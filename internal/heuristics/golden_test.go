package heuristics

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// goldenTree returns seeded instance i of the golden suite: 8–58 CRUs
// over 2–4 satellites.
func goldenTree(i int) *model.Tree {
	spec := workload.DefaultRandomSpec(8+10*i, 2+i%3)
	return workload.Random(rand.New(rand.NewSource(int64(1000+i))), spec)
}

// keyHash is the FNV-64a digest of an assignment's Key, so the golden
// table pins the whole assignment without spelling out every node.
func keyHash(a *model.Assignment) string {
	h := fnv.New64a()
	h.Write([]byte(a.Key()))
	return fmt.Sprintf("%016x", h.Sum64())
}

type goldenRow struct {
	delay float64
	work  int
	key   string
}

// TestSeededHeuristicsGolden pins the exact answers of the two
// population heuristics with default configs: delay (bit for bit), Work
// and the assignment, on six seeded random trees × solver seeds 0–2. The
// values were recorded before the heuristics' delay kernel was changed;
// any change in how candidates are priced or in rng consumption shows up
// here.
func TestSeededHeuristicsGolden(t *testing.T) {
	solvers := []struct {
		name string
		run  func(*model.Tree, int64) *Result
		want [6][3]goldenRow
	}{
		{"genetic", func(tr *model.Tree, seed int64) *Result {
			return Genetic(tr, GeneticConfig{Seed: seed})
		}, [6][3]goldenRow{
			{
				{24.368695461459527, 2320, "bb1f236c53b637d7"},
				{24.368695461459527, 2320, "bb1f236c53b637d7"},
				{24.368695461459527, 2320, "bb1f236c53b637d7"},
			},
			{
				{54.45199185907247, 2320, "d72f26618917e13b"},
				{54.45199185907247, 2320, "d72f26618917e13b"},
				{54.45199185907247, 2320, "d72f26618917e13b"},
			},
			{
				{63.246120177164336, 2320, "1839cdf7288ca8ca"},
				{63.091601890839215, 2320, "c22f62d1e3515ab2"},
				{63.81514093529913, 2320, "00adf002e2c3e77a"},
			},
			{
				{119.464371684117, 2320, "07d50eb8963e4a84"},
				{119.17783642792531, 2320, "3792e926e1a8e3cf"},
				{118.38340004651522, 2320, "b9ee461bc3ac51b7"},
			},
			{
				{123.01572780600122, 2320, "285b0e6c8dc08648"},
				{122.84087136828086, 2320, "670d9b97ebd20608"},
				{123.34225296187162, 2320, "4381d3bf9e503608"},
			},
			{
				{132.70675673474057, 2320, "6603c22a1596aaf2"},
				{132.70675673474057, 2320, "6603c22a1596aaf2"},
				{132.70675673474057, 2320, "6603c22a1596aaf2"},
			},
		}},
		{"annealing-pack", func(tr *model.Tree, seed int64) *Result {
			r, err := AnnealRestarts(context.Background(), tr, AnnealPackConfig{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}, [6][3]goldenRow{
			{
				{24.368695461459527, 16008, "bb1f236c53b637d7"},
				{24.368695461459527, 16008, "bb1f236c53b637d7"},
				{24.368695461459527, 16008, "bb1f236c53b637d7"},
			},
			{
				{54.45199185907247, 16008, "d72f26618917e13b"},
				{54.45199185907247, 16008, "d72f26618917e13b"},
				{54.45199185907247, 16008, "d72f26618917e13b"},
			},
			{
				{63.091601890839215, 16008, "c22f62d1e3515ab2"},
				{63.091601890839215, 16008, "c22f62d1e3515ab2"},
				{63.091601890839215, 16008, "c22f62d1e3515ab2"},
			},
			{
				{119.07324644494688, 16008, "3332982de1e548af"},
				{119.14194740760902, 16008, "539fcd4925907aac"},
				{118.72187465141255, 16008, "5ed377c32ba9d907"},
			},
			{
				{123.93583207459275, 16008, "c13a166ed735a310"},
				{124.12628409052701, 16008, "d7ccc3a54ad27123"},
				{124.9983168835162, 16008, "97843e920bf70538"},
			},
			{
				{132.91800236445715, 16008, "e442612758986dda"},
				{132.91800236445715, 16008, "e442612758986dda"},
				{133.24905240993417, 16008, "796207fe0945d312"},
			},
		}},
	}
	for _, s := range solvers {
		for i := range s.want {
			tree := goldenTree(i)
			for seed := range s.want[i] {
				r := s.run(tree, int64(seed))
				got := goldenRow{r.Delay, r.Work, keyHash(r.Assignment)}
				if want := s.want[i][seed]; got != want {
					t.Errorf("%s tree %d seed %d: got {%v, %d, %q}, want {%v, %d, %q}",
						s.name, i, seed, got.delay, got.work, got.key, want.delay, want.work, want.key)
				}
			}
		}
	}
}
