package workload

import (
	"repro/internal/model"
)

// PaperSatellites is the satellite (colour) order of the paper tree:
// R, Y, B, G as painted in Figure 5.
var PaperSatellites = []string{"R", "Y", "B", "G"}

// PaperTree reconstructs the 13-CRU tree of the paper's Figures 2/5/6/8
// with realistic numeric profiles. The structure is fixed by the figure
// evidence:
//
//	CRU1 ── CRU2 ── CRU4 ── CRU9/CRU10/CRU11 (sensors on R)
//	   │       └── CRU5 (sensor on B)
//	   └── CRU3 ── CRU6 ── CRU13 (sensor on B)
//	           ├── CRU7 (sensor on Y)
//	           └── CRU8 ── CRU12 (sensor on G)
//
// Colour propagation makes ⟨CRU1,CRU2⟩ and ⟨CRU1,CRU3⟩ the conflicting
// edges, so exactly {CRU1, CRU2, CRU3} are pinned to the host — the
// configuration the paper describes in §5.1.
func PaperTree() *model.Tree {
	return buildPaperTree(paperProfile{
		h:   map[int]float64{1: 4, 2: 3, 3: 3, 4: 2, 5: 2, 6: 2, 7: 2, 8: 2, 9: 1, 10: 1, 11: 1, 12: 1, 13: 1},
		s:   map[int]float64{1: 10, 2: 7.5, 3: 7.5, 4: 5, 5: 5, 6: 5, 7: 5, 8: 5, 9: 2.5, 10: 2.5, 11: 2.5, 12: 2.5, 13: 2.5},
		c:   map[int]float64{2: 2, 3: 2, 4: 1.5, 5: 1, 6: 1.5, 7: 1, 8: 1, 9: 0.8, 10: 0.8, 11: 0.8, 12: 0.7, 13: 0.7},
		raw: 2.5,
	})
}

// PaperTreeSymbolic builds the same structure with "symbolic" profiles —
// every h_i, s_i and c_ij is a distinct identifiable constant
// (h_i = 2^i, s_i = 1000·i, c_{i,parent} = i, c_{s,i} = i/10) — so the
// Figure-8 σ-label identities and the §5.3 β examples can be asserted as
// exact sums in tests and in experiment E4.
func PaperTreeSymbolic() *model.Tree {
	p := paperProfile{
		h: map[int]float64{}, s: map[int]float64{}, c: map[int]float64{}, rawPerCRU: map[int]float64{},
	}
	for i := 1; i <= 13; i++ {
		p.h[i] = float64(int64(1) << uint(i)) // 2^i: sums are uniquely decodable
		p.s[i] = float64(1000 * i)
		p.c[i] = float64(i)
		p.rawPerCRU[i] = float64(i) / 10
	}
	return buildPaperTree(p)
}

// SymbolicH returns the symbolic host time h_i used by PaperTreeSymbolic.
func SymbolicH(i int) float64 { return float64(int64(1) << uint(i)) }

// SymbolicS returns the symbolic satellite time s_i used by PaperTreeSymbolic.
func SymbolicS(i int) float64 { return float64(1000 * i) }

// SymbolicC returns the symbolic communication cost c_{i,parent}.
func SymbolicC(i int) float64 { return float64(i) }

// SymbolicRaw returns the symbolic raw-frame cost c_{s,i} of the sensor
// feeding CRU i.
func SymbolicRaw(i int) float64 { return float64(i) / 10 }

type paperProfile struct {
	h, s, c   map[int]float64
	raw       float64
	rawPerCRU map[int]float64 // overrides raw when non-nil
}

func (p paperProfile) rawOf(i int) float64 {
	if p.rawPerCRU != nil {
		return p.rawPerCRU[i]
	}
	return p.raw
}

func buildPaperTree(p paperProfile) *model.Tree {
	b := model.NewBuilder()
	r := b.Satellite("R")
	y := b.Satellite("Y")
	blue := b.Satellite("B")
	g := b.Satellite("G")

	cru := make(map[int]model.NodeID, 13)
	cru[1] = b.Root("CRU1", p.h[1], p.s[1])
	cru[2] = b.Child(cru[1], "CRU2", p.h[2], p.s[2], p.c[2])
	cru[3] = b.Child(cru[1], "CRU3", p.h[3], p.s[3], p.c[3])
	cru[4] = b.Child(cru[2], "CRU4", p.h[4], p.s[4], p.c[4])
	cru[5] = b.Child(cru[2], "CRU5", p.h[5], p.s[5], p.c[5])
	cru[6] = b.Child(cru[3], "CRU6", p.h[6], p.s[6], p.c[6])
	cru[7] = b.Child(cru[3], "CRU7", p.h[7], p.s[7], p.c[7])
	cru[8] = b.Child(cru[3], "CRU8", p.h[8], p.s[8], p.c[8])
	cru[9] = b.Child(cru[4], "CRU9", p.h[9], p.s[9], p.c[9])
	cru[10] = b.Child(cru[4], "CRU10", p.h[10], p.s[10], p.c[10])
	cru[11] = b.Child(cru[4], "CRU11", p.h[11], p.s[11], p.c[11])
	cru[12] = b.Child(cru[8], "CRU12", p.h[12], p.s[12], p.c[12])
	cru[13] = b.Child(cru[6], "CRU13", p.h[13], p.s[13], p.c[13])

	b.Sensor(cru[9], "sensor9", r, p.rawOf(9))
	b.Sensor(cru[10], "sensor10", r, p.rawOf(10))
	b.Sensor(cru[11], "sensor11", r, p.rawOf(11))
	b.Sensor(cru[5], "sensor5", blue, p.rawOf(5))
	b.Sensor(cru[13], "sensor13", blue, p.rawOf(13))
	b.Sensor(cru[7], "sensor7", y, p.rawOf(7))
	b.Sensor(cru[12], "sensor12", g, p.rawOf(12))

	return b.MustBuild()
}
