package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"earthing"
	"earthing/internal/designopt"
)

// designProblem is the seeded design-loop problem: the Balaidos-class site
// of BENCH_optimize.json (80 × 60 m, Balaidos two-layer soil, 4 starts, 400
// evaluations) with the fault current and both layer conductivities perturbed
// by the seed (±4 % and ±2 %).
func designProblem(seed int64) (earthing.OptimizeSpec, earthing.OptimizeOptions) {
	r := rand.New(rand.NewSource(seed))
	u := func() float64 { return 2*r.Float64() - 1 }
	spec := earthing.OptimizeSpec{
		Width: 80, Height: 60,
		Model:        earthing.TwoLayerSoil(0.005*(1+0.02*u()), 0.016*(1+0.02*u()), 1.0),
		FaultCurrent: 1_000 * (1 + 0.04*u()),
		Safety: earthing.SafetyCriteria{
			FaultDuration:    0.5,
			SoilRho:          200,
			SurfaceRho:       3_000,
			SurfaceThickness: 0.1,
		},
		MinLines: 2, MaxLines: 7,
		MaxRods:    8,
		VoltageRes: 5,
	}
	opt := earthing.OptimizeOptions{Starts: 4, MaxEvals: 400, Seed: 1}
	opt.Config = earthing.Config{
		RodElements: 2,
		BEM:         earthing.BEMOptions{SeriesTol: seriesTol, Workers: workers},
	}
	return spec, opt
}

type designBench struct {
	spec   earthing.OptimizeSpec
	opt    earthing.OptimizeOptions
	winner []byte
	cost   float64
	stats  earthing.OptimizeStats
}

// setupDesign builds the problem and warms up with an analysis of the
// family's smallest, median and largest lattice.
func setupDesign(ctx context.Context, in inputs) (bench, error) {
	b := &designBench{}
	b.spec, b.opt = designProblem(in.seed)
	for _, g := range b.familyLattices() {
		if _, err := earthing.Analyze(ctx, g, b.spec.Model, b.opt.Config); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// familyLattices are the search family's smallest, median and largest
// plain lattices.
func (b *designBench) familyLattices() []*earthing.Grid {
	var gs []*earthing.Grid
	for _, n := range []int{b.spec.MinLines, (b.spec.MinLines + b.spec.MaxLines) / 2, b.spec.MaxLines} {
		gs = append(gs, earthing.RectGrid(0, 0, b.spec.Width, b.spec.Height, n, n, 0.6, 0.006))
	}
	return gs
}

// search runs one search and checks that it found a feasible design that is
// byte-identical to the first search's.
func (b *designBench) search(ctx context.Context, run func() (*earthing.OptimizedDesign, earthing.OptimizeStats, error)) (time.Duration, *earthing.OptimizedDesign, error) {
	start := time.Now()
	best, stats, err := run()
	d := time.Since(start)
	if err != nil {
		return 0, nil, err
	}
	enc, err := json.Marshal(best)
	if err != nil {
		return 0, nil, err
	}
	if b.winner == nil {
		b.winner, b.cost, b.stats = enc, best.Cost, stats
	} else if !bytes.Equal(enc, b.winner) {
		return 0, nil, fmt.Errorf("winning design %s differs from the first search's %s", enc, b.winner)
	}
	return d, best, nil
}

func (b *designBench) optimize(ctx context.Context) (time.Duration, *earthing.OptimizedDesign, error) {
	return b.search(ctx, func() (*earthing.OptimizedDesign, earthing.OptimizeStats, error) {
		return earthing.Optimize(ctx, b.spec, b.opt)
	})
}

// op is one search.
func (b *designBench) op(ctx context.Context, _ int) (time.Duration, error) {
	d, _, err := b.optimize(ctx)
	return d, err
}

func (b *designBench) finish(_ context.Context, _ []time.Duration, m metrics) (int, []string, error) {
	m.set("design_cost", b.cost, "cost")
	return 0, []string{fmt.Sprintf("winner %s; %d requested, %d evaluated, %d generations",
		b.winner, b.stats.Requested, b.stats.Evaluated, b.stats.Generations)}, nil
}

func (b *designBench) close() error { return nil }

// traceDesign alternates untraced searches (earthing.Optimize) with traced
// ones that call designopt.Run directly, then analyzes representative
// lattices on their own to price a search without the engine's batching and
// caching.
func traceDesign(ctx context.Context, in inputs, tr *tracer, budget time.Duration) (traced, error) {
	bb, err := setupDesign(ctx, in)
	if err != nil {
		return traced{}, err
	}
	b := bb.(*designBench)
	var best *earthing.OptimizedDesign
	var stats earthing.OptimizeStats
	check, n, err := pairLoop(budget, tr,
		func() (time.Duration, error) {
			d, _, err := b.optimize(ctx)
			return d, err
		},
		func() (time.Duration, int64, error) {
			root := tr.begin("design-loop.search", 0, 0)
			_, err := tr.layer(root, "designopt.Run", func() error {
				var err error
				_, best, err = b.search(ctx, func() (*earthing.OptimizedDesign, earthing.OptimizeStats, error) {
					d, s, err := designopt.Run(ctx, b.spec, b.opt)
					stats = s
					return d, s, err
				})
				return err
			})
			if err != nil {
				return 0, 0, err
			}
			return root.end(), root.id(), nil
		})
	if err != nil {
		return traced{}, err
	}
	// A search without the engine's batching and caching would pay one
	// independent analysis per request: price one as the mean over the
	// family's smallest, median and largest lattice (as BENCH_optimize.json
	// does).
	root := tr.begin("design-loop.representative", 0, 0)
	var direct time.Duration
	family := b.familyLattices()
	for _, g := range family {
		d, err := tr.layer(root, "core.Analyze", func() error {
			_, err := earthing.Analyze(ctx, g, b.spec.Model, b.opt.Config)
			return err
		})
		if err != nil {
			return traced{}, err
		}
		direct += d / time.Duration(len(family))
	}
	root.end()
	wall := median(check.TracedMs)
	m := metrics{}
	m.set("designopt.requested", float64(stats.Requested), "count")
	m.set("designopt.evaluated", float64(stats.Evaluated), "count")
	m.set("designopt.cache_hit_ratio", stats.HitRate, "1")
	m.set("designopt.generations", float64(stats.Generations), "count")
	m.set("designopt.eval_ms", wall/float64(max(stats.Evaluated, 1)), "ms")
	m.set("sweep.amortization", ms(direct)*float64(stats.Requested)/wall, "x")
	notes := []string{fmt.Sprintf("%d traced searches, winner %dx%d with %d rods byte-identical throughout; a representative lattice analyzed alone takes %.1f ms",
		n, best.NX, best.NY, best.Rods, ms(direct))}
	return traced{layers: m, check: check, attempted: n, notes: notes}, nil
}
