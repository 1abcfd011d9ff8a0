package heuristics

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/pool"
)

// GeneticConfig tunes Genetic. Zero values select the defaults noted below.
type GeneticConfig struct {
	Seed        int64
	Population  int     // default 40
	Generations int     // default 60
	Crossover   float64 // probability per child, default 0.9
	Mutation    float64 // per-gene flip probability, default 0.05
	Elite       int     // survivors copied verbatim, default 2
	Tournament  int     // tournament size, default 3
	// Init, when non-nil, is a feasible assignment whose cut genome joins
	// the initial population next to the two trivial baselines (the
	// warm-start hook): after a small instance drift the previous
	// revision's solution is usually one mutation from optimal again.
	Init *model.Assignment

	// OnImprove, when set, receives every improvement of the population's
	// best individual (including the initial population's) with a fresh
	// assignment clone. Heuristics carry no bound proof, so
	// Incumbent.LowerBound is 0.
	OnImprove func(core.Incumbent)
	// BestEffort returns the best-so-far with Result.Partial set instead
	// of a context error when the deadline expires between generations.
	BestEffort bool
}

func (c GeneticConfig) withDefaults() GeneticConfig {
	if c.Population <= 1 {
		c.Population = 40
	}
	c.Generations = core.IntOr(c.Generations, 60)
	c.Crossover = core.FloatOr(c.Crossover, 0.9)
	c.Mutation = core.FloatOr(c.Mutation, 0.05)
	c.Elite = core.IntOr(c.Elite, 2)
	if c.Tournament <= 1 {
		c.Tournament = 3
	}
	return c
}

// Genetic runs the genetic algorithm the paper's §6 cites (Wang et al.'s
// GA-based matching and scheduling) adapted to the tree problem. A genome
// has one "cut here" bit per monochromatic processing CRU; decoding walks
// the tree top-down and sinks the subtree at the first set bit, which maps
// every genome to a feasible assignment (genes below a cut are ignored, so
// the representation is redundant but never invalid). Deterministic for a
// fixed seed.
func Genetic(t *model.Tree, cfg GeneticConfig) *Result {
	r, _ := GeneticContext(context.Background(), t, cfg)
	return r
}

// GeneticContext is Genetic with cancellation: the context is checked once
// per generation. On cancellation the returned error is the context's and
// the result is nil. Genomes decode into a pooled position vector by
// pre-order span skipping over the compiled plan and are scored with
// eval.FlatDelay on one pooled frame, so one decode+evaluation costs two
// flat passes and zero allocation (the genomes themselves are the
// population's only churn).
func GeneticContext(ctx context.Context, t *model.Tree, cfg GeneticConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := model.Compile(t)

	// Gene sites: monochromatic non-root processing CRUs, in pre-order.
	var sites []int32
	siteOf := make([]int32, c.Len())
	for i := range siteOf {
		siteOf[i] = -1
	}
	for _, p := range c.Pre {
		if !c.Proc[p] || p == c.RootPos || c.Colour[p] == model.NoSatellite {
			continue
		}
		siteOf[p] = int32(len(sites))
		sites = append(sites, p)
	}

	st := moveStates.Get()
	defer moveStates.Put(st)
	st.loc = pool.Keep(st.loc, c.Len())

	// decode fills st.loc with the genome's assignment: scan pre-order,
	// sink the whole span at the first set site bit, and skip the subtree
	// (genes below a cut are ignored). Subtrees are contiguous in
	// pre-order too, so the skip is an index jump, not a walk.
	decode := func(genome []bool) {
		c.BaseLocations(st.loc)
		for i := 0; i < len(c.Pre); {
			p := c.Pre[i]
			if si := siteOf[p]; si >= 0 && genome[si] {
				c.FillSpan(st.loc, p, model.OnSatellite(c.Colour[p]))
				i += int(p - c.Start[p] + 1)
				continue
			}
			i++
		}
	}

	type individual struct {
		genome []bool
		delay  float64
	}

	if len(sites) == 0 {
		asg := model.NewAssignment(t)
		return &Result{Assignment: asg, Delay: eval.MustDelay(t, asg)}, nil
	}

	// scorePop fills in the delays of inds. Decoding and scoring consume
	// no randomness, so deferring evaluation to the end of a generation
	// leaves the rng stream — and therefore the whole run — identical to
	// genome-at-a-time scoring.
	fr := eval.GetFrame()
	defer eval.PutFrame(fr)
	scorePop := func(inds []individual) {
		for i := range inds {
			decode(inds[i].genome)
			inds[i].delay = eval.FlatDelay(c, st.loc, fr)
		}
	}

	pop := make([]individual, cfg.Population)
	for i := range pop {
		g := make([]bool, len(sites))
		for j := range g {
			g[j] = rng.Intn(2) == 0
		}
		pop[i] = individual{genome: g}
	}
	// Seed the population with both trivial baselines.
	pop[0].genome = make([]bool, len(sites))
	if len(pop) > 1 {
		topmost := make([]bool, len(sites))
		for j := range topmost {
			topmost[j] = true // redundant bits are ignored below the first cut
		}
		pop[1].genome = topmost
	}
	if cfg.Init != nil && len(pop) > 2 {
		// Encode the warm assignment as a cut genome: a site's bit is set
		// iff it runs on a satellite. Feasibility makes satellite residency
		// upward-contiguous, so decode's first-set-bit walk reproduces the
		// warm cut exactly.
		warm := make([]bool, len(sites))
		for j, p := range sites {
			_, onSat := cfg.Init.At(c.Post[p]).Satellite()
			warm[j] = onSat
		}
		pop[2].genome = warm
	}
	scorePop(pop)

	byDelay := func() { sort.Slice(pop, func(i, j int) bool { return pop[i].delay < pop[j].delay }) }
	tournament := func() individual {
		best := pop[rng.Intn(len(pop))]
		for k := 1; k < cfg.Tournament; k++ {
			cand := pop[rng.Intn(len(pop))]
			if cand.delay < best.delay {
				best = cand
			}
		}
		return best
	}

	// stream clones the current best out to the improvement callback.
	bestSeen := math.Inf(1)
	stream := func(work int) {
		if cfg.OnImprove == nil {
			return
		}
		best := pop[0]
		for _, ind := range pop[1:] {
			if ind.delay < best.delay {
				best = ind
			}
		}
		if best.delay >= bestSeen {
			return
		}
		bestSeen = best.delay
		decode(best.genome)
		asg := model.NewAssignment(t)
		c.StoreAssignment(asg, st.loc)
		cfg.OnImprove(core.Incumbent{Assignment: asg, Delay: best.delay, Work: work})
	}

	evaluations := len(pop)
	stream(evaluations)
	partial := false
	for gen := 0; gen < cfg.Generations; gen++ {
		if err := ctx.Err(); err != nil {
			if !cfg.BestEffort {
				return nil, err
			}
			partial = true
			break
		}
		byDelay()
		next := make([]individual, 0, cfg.Population)
		for e := 0; e < cfg.Elite && e < len(pop); e++ {
			next = append(next, pop[e])
		}
		elites := len(next)
		for len(next) < cfg.Population {
			a, b := tournament(), tournament()
			child := make([]bool, len(sites))
			if rng.Float64() < cfg.Crossover {
				// Uniform crossover.
				for j := range child {
					if rng.Intn(2) == 0 {
						child[j] = a.genome[j]
					} else {
						child[j] = b.genome[j]
					}
				}
			} else {
				copy(child, a.genome)
			}
			for j := range child {
				if rng.Float64() < cfg.Mutation {
					child[j] = !child[j]
				}
			}
			next = append(next, individual{genome: child})
			evaluations++
		}
		scorePop(next[elites:]) // elites keep their scored delays
		pop = next
		stream(evaluations)
	}
	byDelay()
	best := pop[0]
	decode(best.genome)
	asg := model.NewAssignment(t)
	c.StoreAssignment(asg, st.loc)
	return &Result{Assignment: asg, Delay: best.delay, Work: evaluations, Partial: partial}, nil
}
