package dwg

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// TestMergeFrontierContextBands: a merge of 200 shifts of a 200-point
// frontier takes several 2²⁰-scan bands, and MergeFrontierContext
// resumes each band where the last stopped, so its survivors equal
// MergeFrontier's point for point, with small-integer values making
// ties common. A cancelled context ends the merge after the first band
// and leaves the arena as it was.
func TestMergeFrontierContextBands(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	arena := make([]Point, 200)
	s, b := 0.0, 1000.0
	for i := range arena {
		s += float64(1 + rng.Intn(3))
		b -= float64(1 + rng.Intn(3))
		arena[i] = Point{S: s, B: b, A: -1, P: int32(i)}
	}
	heads := make([]Shift, 200)
	for i := range heads {
		heads[i] = Shift{Pos: 0, End: len(arena), A: int32(i), DS: float64(rng.Intn(400)), DB: float64(rng.Intn(400))}
	}

	want := MergeFrontier(slices.Clone(arena), slices.Clone(heads))
	got, err := MergeFrontierContext(context.Background(), slices.Clone(arena), slices.Clone(heads))
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("banded merge: %d points (err %v), single merge %d points", len(got), err, len(want))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, err = MergeFrontierContext(ctx, slices.Clone(arena), slices.Clone(heads))
	if !errors.Is(err, context.Canceled) || !slices.Equal(got, arena) {
		t.Fatalf("cancelled merge: err %v, arena grew from %d to %d points", err, len(arena), len(got))
	}
}
