package heuristics

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/model"
)

// AnnealPackConfig tunes AnnealRestarts. Zero values select the defaults
// noted below.
type AnnealPackConfig struct {
	Seed int64
	// Restarts is the number of independent walks (default 8). It is part
	// of the configuration, not a performance hint: changing it changes
	// which walks run and therefore the answer, which is why the
	// registered solver pins it to the default instead of consuming
	// Request.Parallelism (the cache identity excludes parallelism on the
	// grounds that it never changes a solver's output).
	Restarts int
	Steps    int     // per walk, default 2000
	StartT   float64 // default: 10% of the all-host delay
	CoolRate float64 // geometric factor per step, default 0.995
	// Init, when non-nil, becomes walk 0's starting assignment (the
	// warm-start hook). It is never modified.
	Init *model.Assignment

	// OnImprove, when set, receives every improvement of the pack-wide
	// best assignment (including the initial one) with a fresh clone.
	// Heuristics carry no bound proof, so Incumbent.LowerBound is 0.
	OnImprove func(core.Incumbent)
	// BestEffort returns the best-so-far with Result.Partial set instead
	// of a context error when the deadline expires mid-pack.
	BestEffort bool
}

// annealWalk is one walk of the pack: its own rng, position vector, move
// buffer, temperature and current delay. Walks never read each other's
// state, so the pack is a pure portfolio — only the best-so-far is shared.
type annealWalk struct {
	rng   *rand.Rand
	loc   []model.Location
	moves []cutMove
	mv    cutMove
	old   model.Location
	delay float64
	temp  float64
	done  bool
}

// AnnealRestarts runs a portfolio of independent simulated-annealing
// walks in lockstep: every step each live walk proposes one sink/lift
// move, prices it with eval.FlatDelay on one pooled frame, and accepts or
// rejects it. Walks differ by seed and start point (walk 0 takes Init
// when given, even walks start all-host, odd walks start from the
// maximal distribution), which is the classic
// restart-diversification defence against a single walk freezing in a
// poor basin. Deterministic for a fixed seed and restart count.
func AnnealRestarts(ctx context.Context, t *model.Tree, cfg AnnealPackConfig) (*Result, error) {
	restarts := core.IntOr(cfg.Restarts, 8)
	steps := core.IntOr(cfg.Steps, 2000)
	cool := cfg.CoolRate
	if cool <= 0 || cool >= 1 {
		cool = 0.995
	}
	c := model.Compile(t)
	n := c.Len()

	fr := eval.GetFrame()
	defer eval.PutFrame(fr)

	// The shared default start temperature prices moves against the
	// all-host delay, exactly like the scalar Anneal.
	baseT := cfg.StartT
	if baseT <= 0 {
		scratch := make([]model.Location, n)
		c.BaseLocations(scratch)
		baseT = 0.1 * (eval.FlatDelay(c, scratch, fr) + 1)
	}

	walks := make([]*annealWalk, restarts)
	for i := range walks {
		w := &annealWalk{
			rng:  rand.New(rand.NewSource(cfg.Seed + int64(i)*0x9e3779b9)),
			loc:  make([]model.Location, n),
			temp: baseT,
		}
		switch {
		case i == 0 && cfg.Init != nil:
			c.LoadLocations(w.loc, cfg.Init)
		case i%2 == 0:
			c.BaseLocations(w.loc)
		default:
			c.TopmostLocations(w.loc)
		}
		walks[i] = w
	}
	best := make([]model.Location, n)
	bestDelay := math.Inf(1)
	for _, w := range walks {
		w.delay = eval.FlatDelay(c, w.loc, fr)
		if w.delay < bestDelay {
			bestDelay = w.delay
			copy(best, w.loc)
		}
	}

	evals := len(walks)
	stream := func() {
		if cfg.OnImprove == nil {
			return
		}
		asg := model.NewAssignment(t)
		c.StoreAssignment(asg, best)
		cfg.OnImprove(core.Incumbent{Assignment: asg, Delay: bestDelay, Work: evals})
	}
	stream()

	partial := false
	proposing := make([]*annealWalk, 0, restarts)
	for step := 0; step < steps; step++ {
		if step&0x3f == 0 {
			if err := ctx.Err(); err != nil {
				if !cfg.BestEffort {
					return nil, err
				}
				partial = true
				break
			}
		}
		// Every live walk proposes one move; each proposal is priced and
		// then accepted or rejected with its walk's own rng — the same
		// ||-short-circuit as the scalar walk, so rng consumption per walk
		// is identical to running it alone.
		proposing = proposing[:0]
		for _, w := range walks {
			if w.done {
				continue
			}
			w.moves = appendMoves(w.moves[:0], c, w.loc)
			if len(w.moves) == 0 {
				w.done = true
				continue
			}
			w.mv = w.moves[w.rng.Intn(len(w.moves))]
			w.old = w.loc[w.mv.pos]
			w.loc[w.mv.pos] = w.mv.to
			proposing = append(proposing, w)
		}
		if len(proposing) == 0 {
			break
		}
		evals += len(proposing)
		for _, w := range proposing {
			d := eval.FlatDelay(c, w.loc, fr)
			if delta := d - w.delay; delta <= 0 || w.rng.Float64() < math.Exp(-delta/w.temp) {
				w.delay = d
				if d < bestDelay {
					bestDelay = d
					copy(best, w.loc)
					stream()
				}
			} else {
				w.loc[w.mv.pos] = w.old
			}
			w.temp *= cool
		}
	}
	asg := model.NewAssignment(t)
	c.StoreAssignment(asg, best)
	return &Result{Assignment: asg, Delay: bestDelay, Work: evals, Partial: partial}, nil
}
