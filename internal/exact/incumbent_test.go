package exact_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/exact"
	"repro/internal/model"
	"repro/internal/workload"
)

// reevaluated returns an error unless asg is feasible for tree and the
// reference pointer evaluation prices it at d, within 1e-9 relative.
func reevaluated(tree *model.Tree, asg *model.Assignment, d float64) error {
	if err := asg.Validate(tree); err != nil {
		return fmt.Errorf("infeasible: %w", err)
	}
	if got := eval.PointerDelay(tree, asg); math.Abs(got-d) > 1e-9*math.Max(1, math.Abs(d)) {
		return fmt.Errorf("reports delay %v but evaluates to %v", d, got)
	}
	return nil
}

// TestBranchAndBoundIncumbentsReevaluate: the search marks only the CRU
// it sinks and fills the sunk spans in when it stores an incumbent. On
// random 8–40-CRU trees, at one and two workers, completed and starved
// (BestEffort on a tiny node budget), every streamed incumbent and every
// final assignment is feasible and re-evaluates to the delay it reports.
// That covers the fill-in of the sequential search and of the
// work-stealing publish.
func TestBranchAndBoundIncumbentsReevaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		spec := workload.DefaultRandomSpec(8+trial*32/11, 2+rng.Intn(3))
		spec.Clustered = trial%2 == 0
		tree := workload.Random(rng, spec)
		for _, workers := range []int{1, 2} {
			for _, starved := range []bool{false, true} {
				name := fmt.Sprintf("trial %d (%d CRUs), workers %d, starved %v",
					trial, spec.CRUs, workers, starved)
				opts := exact.BnBOptions{Workers: workers}
				if starved {
					opts.MaxNodes = 8 + rng.Intn(40)
					opts.BestEffort = true
				}
				// The stream may run on a search worker, which must not
				// stop the test: keep the first failure for later.
				streamed := 0
				var bad error
				opts.OnIncumbent = func(inc core.Incumbent) {
					streamed++
					if err := reevaluated(tree, inc.Assignment, inc.Delay); err != nil && bad == nil {
						bad = fmt.Errorf("incumbent %d: %w", streamed, err)
					}
				}
				res, err := exact.BranchAndBoundOpts(context.Background(), tree, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if bad != nil {
					t.Fatalf("%s: %v", name, bad)
				}
				if streamed == 0 {
					t.Fatalf("%s: no incumbent streamed", name)
				}
				if res.Partial && !starved {
					t.Fatalf("%s: complete solve reported partial", name)
				}
				if err := reevaluated(tree, res.Assignment, res.Delay); err != nil {
					t.Fatalf("%s: result: %v", name, err)
				}
			}
		}
	}
}
