package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"earthing"
	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/linalg"
)

// balaidosSoil is one §5.2 soil case with its Table 5.1 Req and the
// documented agreement the reproduction holds to.
type balaidosSoil struct {
	name     string
	model    earthing.SoilModel
	rods     int
	paperReq float64
	tol      float64
}

// balaidosSoils are the paper's soils A (uniform), B and C (two-layer).
// RodElements lands the paper's 241-element discretization: soil C's rods
// cross the 1 m interface and are split there automatically.
func balaidosSoils() []balaidosSoil {
	return []balaidosSoil{
		{"A", earthing.UniformSoil(0.020), 2, 0.3366, 0.005},
		{"B", earthing.TwoLayerSoil(0.0025, 0.020, 0.7), 2, 0.3522, 0.005},
		{"C", earthing.TwoLayerSoil(0.0025, 0.020, 1.0), 1, 0.4860, 0.03},
	}
}

const balaidosGPR = 10_000

func balaidosConfig(s balaidosSoil, w int) earthing.Config {
	return earthing.Config{
		GPR:         balaidosGPR,
		RodElements: s.rods,
		BEM:         earthing.BEMOptions{SeriesTol: seriesTol, Workers: w},
	}
}

// balaidosOrder is the seeded order in which a pass visits the soils.
func balaidosOrder(seed int64) []balaidosSoil {
	soils := balaidosSoils()
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(soils), func(i, j int) { soils[i], soils[j] = soils[j], soils[i] })
	return soils
}

type balaidosBench struct {
	grid   *earthing.Grid
	soils  []balaidosSoil
	oneW   []time.Duration
	reqErr float64
}

// setupBalaidos builds the grid, runs the preprocessing stage (mesh and
// assembler set-up) of every soil once, and warms up with a full analysis
// under soil B.
func setupBalaidos(ctx context.Context, in inputs) (bench, error) {
	b := &balaidosBench{grid: earthing.Balaidos(), soils: balaidosOrder(in.seed)}
	for _, s := range b.soils {
		cfg := balaidosConfig(s, workers)
		mesh, _, err := core.BuildMesh(b.grid, s.model, cfg)
		if err != nil {
			return nil, err
		}
		if _, err := bem.New(mesh, s.model, cfg.BEM); err != nil {
			return nil, err
		}
	}
	warm := balaidosSoils()[1]
	if _, err := earthing.Analyze(ctx, b.grid, warm.model, balaidosConfig(warm, workers)); err != nil {
		return nil, err
	}
	return b, nil
}

// pass analyzes the grid under every soil at w workers and checks Req
// against Table 5.1.
func (b *balaidosBench) pass(ctx context.Context, w int) (time.Duration, map[string]float64, error) {
	reqs := map[string]float64{}
	start := time.Now()
	for _, s := range b.soils {
		res, err := earthing.Analyze(ctx, b.grid, s.model, balaidosConfig(s, w))
		if err != nil {
			return 0, nil, fmt.Errorf("soil %s at %d workers: %w", s.name, w, err)
		}
		reqs[s.name] = res.Req
	}
	d := time.Since(start)
	for _, s := range b.soils {
		e := math.Abs(reqs[s.name]-s.paperReq) / s.paperReq
		b.reqErr = math.Max(b.reqErr, e)
		if e > s.tol {
			return 0, nil, fmt.Errorf("soil %s: Req %.5f Ω is %.2f%% from Table 5.1's %.4f Ω (allowed %.1f%%)",
				s.name, reqs[s.name], 100*e, s.paperReq, 100*s.tol)
		}
	}
	return d, reqs, nil
}

// op is one Table 6.3 pass at two workers, followed by the same pass at one
// worker for the speed-up. Only the two-worker pass is the op's latency.
func (b *balaidosBench) op(ctx context.Context, _ int) (time.Duration, error) {
	d, _, err := b.pass(ctx, workers)
	if err != nil {
		return 0, err
	}
	d1, _, err := b.pass(ctx, 1)
	if err != nil {
		return 0, err
	}
	b.oneW = append(b.oneW, d1)
	return d, nil
}

func (b *balaidosBench) finish(_ context.Context, lat []time.Duration, m metrics) (int, []string, error) {
	two, one := median(msAll(lat)), median(msAll(b.oneW))
	if two > 0 {
		m.set("speedup_2w", one/two, "x")
	}
	m.set("req_err_rel", b.reqErr, "1")
	order := ""
	for _, s := range b.soils {
		order += s.name
	}
	return 0, []string{fmt.Sprintf("soil order %s; speedup_2w = %.1f ms (1 worker) / %.1f ms (2 workers), medians of %d passes",
		order, one, two, len(lat))}, nil
}

func (b *balaidosBench) close() error { return nil }

// balaidosReplay is one pass through the layers' public functions, the same
// calls and arguments earthing.Analyze makes, each in its own span.
type balaidosReplay struct {
	reqs    map[string]float64
	prepMs  float64
	setupMs float64
	matgen  map[string]float64
	solveMs float64
	iters   int
	pairs   int
	busy    []time.Duration
	genWall time.Duration
	elems   int
	dof     int
}

func replayBalaidos(ctx context.Context, tr *tracer, g *earthing.Grid, soils []balaidosSoil) (time.Duration, int64, balaidosReplay, error) {
	out := balaidosReplay{reqs: map[string]float64{}, matgen: map[string]float64{}, busy: make([]time.Duration, workers)}
	root := tr.begin("paper-balaidos.pass", 0, 0)
	start := time.Now()
	for _, s := range soils {
		cfg := balaidosConfig(s, workers)
		var (
			mesh *earthing.Mesh
			asm  *bem.Assembler
			a    *linalg.SymMatrix
			nu   []float64
			cg   linalg.CGResult
			cur  float64
		)
		d, err := tr.layer(root, "core.BuildMesh", func() (err error) {
			mesh, _, err = core.BuildMesh(g, s.model, cfg)
			return err
		})
		if err != nil {
			return 0, 0, out, err
		}
		out.prepMs += ms(d)
		if d, err = tr.layer(root, "bem.New", func() (err error) {
			asm, err = bem.New(mesh, s.model, cfg.BEM)
			return err
		}); err != nil {
			return 0, 0, out, err
		}
		out.setupMs += ms(d)
		if d, err = tr.layer(root, "bem.MatrixCtx", func() (err error) {
			a, _, err = asm.MatrixCtx(ctx)
			return err
		}); err != nil {
			return 0, 0, out, err
		}
		out.matgen[s.name] = ms(d)
		out.genWall += d
		out.pairs += asm.NumPairs()
		for i, bz := range asm.WorkerBusy() {
			if i < len(out.busy) {
				out.busy[i] += bz
			}
		}
		if _, err = tr.layer(root, "bem.RHS", func() error { nu = bem.RHS(mesh); return nil }); err != nil {
			return 0, 0, out, err
		}
		if d, err = tr.layer(root, "linalg.SolveCGParallel", func() (err error) {
			cg, err = linalg.SolveCGParallel(a, nu, linalg.CGOptions{Tol: 1e-10}, cfg.BEM.Workers)
			return err
		}); err != nil {
			return 0, 0, out, err
		}
		out.solveMs += ms(d)
		out.iters += cg.Iterations
		if _, err = tr.layer(root, "bem.TotalCurrent", func() error { cur = bem.TotalCurrent(mesh, cg.X); return nil }); err != nil {
			return 0, 0, out, err
		}
		out.reqs[s.name] = 1 / cur
		out.elems, out.dof = len(mesh.Elements), mesh.NumDoF
	}
	d := time.Since(start)
	if root != nil {
		d = root.end()
	}
	return d, root.id(), out, nil
}

// traceBalaidos alternates untraced two-worker passes (earthing.Analyze)
// with traced replays; every replayed Req must be bit-identical to the
// untraced one.
func traceBalaidos(ctx context.Context, in inputs, tr *tracer, budget time.Duration) (traced, error) {
	bb, err := setupBalaidos(ctx, in)
	if err != nil {
		return traced{}, err
	}
	b := bb.(*balaidosBench)
	var (
		want  map[string]float64
		reps  []balaidosReplay
		fails int
	)
	check, n, err := pairLoop(budget, tr,
		func() (d time.Duration, err error) {
			d, want, err = b.pass(ctx, workers)
			return d, err
		},
		func() (time.Duration, int64, error) {
			d, root, rep, err := replayBalaidos(ctx, tr, b.grid, b.soils)
			if err != nil {
				return 0, 0, err
			}
			for name, r := range rep.reqs {
				if math.Float64bits(r) != math.Float64bits(want[name]) {
					fails++
					break
				}
			}
			reps = append(reps, rep)
			return d, root, nil
		})
	if err != nil {
		return traced{}, err
	}
	col := func(f func(balaidosReplay) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	m := metrics{}
	m.set("core.preprocess_ms", col(func(r balaidosReplay) float64 { return r.prepMs }), "ms")
	m.set("bem.setup_ms", col(func(r balaidosReplay) float64 { return r.setupMs }), "ms")
	for _, s := range b.soils {
		name := s.name
		m.set("bem.matgen_ms."+name, col(func(r balaidosReplay) float64 { return r.matgen[name] }), "ms")
	}
	m.set("bem.pairs_per_s", col(func(r balaidosReplay) float64 { return float64(r.pairs) / r.genWall.Seconds() }), "1/s")
	m.set("sched.imbalance", col(func(r balaidosReplay) float64 {
		var sum, top time.Duration
		for _, bz := range r.busy {
			sum += bz
			top = max(top, bz)
		}
		return float64(top) / (float64(sum) / float64(len(r.busy)))
	}), "1")
	m.set("sched.utilization", col(func(r balaidosReplay) float64 {
		var sum time.Duration
		for _, bz := range r.busy {
			sum += bz
		}
		return float64(sum) / (float64(workers) * float64(r.genWall))
	}), "1")
	m.set("linalg.solve_ms", col(func(r balaidosReplay) float64 { return r.solveMs }), "ms")
	m.set("linalg.cg_iters", col(func(r balaidosReplay) float64 { return float64(r.iters) }), "count")
	m.set("grid.elements", float64(reps[0].elems), "count")
	m.set("grid.dof", float64(reps[0].dof), "count")
	notes := []string{fmt.Sprintf("%d traced passes; replayed Req bit-identical to Analyze on every soil in %d of them",
		n, n-fails)}
	return traced{layers: m, check: check, attempted: n, failed: fails, notes: notes}, nil
}
