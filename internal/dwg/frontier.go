package dwg

// Point is one entry of a Pareto frontier kept in an arena: a frontier is
// a run of points by strictly ascending S and strictly descending B. A
// and P are back-references whose meaning the caller defines;
// MergeFrontier sets A to the Shift's A and P to the arena index of the
// point it shifted.
type Point struct {
	S, B float64
	A, P int32
}

// Shift is one input of MergeFrontier: the frontier arena[Pos:End]
// shifted by (DS, DB), its merged points tagged with A.
type Shift struct {
	Pos, End int
	A        int32
	DS, DB   float64
	s        float64 // shifted S of arena[Pos] during the merge
}

// MergeFrontier appends to arena the Pareto frontier of the union of the
// shifted frontiers and returns the grown arena. It merges the shifts by
// S, ties going to the earlier shift and then the earlier point (arrival
// order), and keeps a candidate only if its B is below the last
// survivor's. An equal-S candidate with lower B replaces that survivor,
// so an exact (S, B) tie keeps the earlier arrival and equal S keeps the
// lower B, even when float rounding makes two shifted S of one frontier
// equal. heads is scratch: the merge consumes it.
func MergeFrontier(arena []Point, heads []Shift) []Point {
	first := len(arena)
	for i := range heads {
		heads[i].s = arena[heads[i].Pos].S + heads[i].DS
	}
	for len(heads) > 0 {
		k, s := 0, heads[0].s
		for i := 1; i < len(heads); i++ {
			if heads[i].s < s {
				k, s = i, heads[i].s
			}
		}
		h := &heads[k]
		cand := Point{S: s, B: arena[h.Pos].B + h.DB, A: h.A, P: int32(h.Pos)}
		if h.Pos++; h.Pos < h.End {
			h.s = arena[h.Pos].S + h.DS
		} else {
			heads = append(heads[:k], heads[k+1:]...) // keeps arrival order
		}
		if n := len(arena); n > first {
			last := &arena[n-1]
			if last.B <= cand.B {
				continue // dominated (S ≥, B ≥), possibly an exact tie
			}
			if last.S == cand.S {
				*last = cand // equal S, lower B
				continue
			}
		}
		arena = append(arena, cand)
	}
	return arena
}
