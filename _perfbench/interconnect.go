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
	"earthing/internal/hmatrix"
)

const (
	interconnectN   = 1000
	interconnectEps = 1e-6
	interconnectEta = 2
)

// interconnectGrid is the grid seed of the workload: the README quickstart's
// seed. The grid is fixed rather than drawn from the workload seed because the
// compressed build's cost differs by up to ±15 % from one generated grid to
// the next, more than the benchmark's bounds; the seed draws the GPR.
const interconnectGrid = 1

// interconnectRef is the dense-PCG Req (flat kernel, unit GPR, series tol
// 1e-7) of InterconnectedGrid(1000, 1) in soil C. A dense run costs about
// 20 s on a 2-core host, so the reference is computed once ("perfbench refs"
// recomputes and compares it) instead of in every run.
const interconnectRef = 0.20287679439751516

func interconnectSoil() earthing.SoilModel { return earthing.TwoLayerSoil(0.0025, 0.020, 1.0) }

// interconnectGPR draws the op's GPR (Req does not depend on it).
func interconnectGPR(seed int64) float64 {
	return 1_000 + 19_000*rand.New(rand.NewSource(seed)).Float64()
}

// interconnectConfig is the core configuration the facade builds from
// WithFlatAssembly, WithHMatrix(1e-6, 2) and WithWorkers(2).
func interconnectConfig(gpr float64) core.Config {
	return core.Config{
		GPR:     gpr,
		Solver:  core.SolverHMatrix,
		HMatrix: core.HMatrixConfig{Eps: interconnectEps, Eta: interconnectEta},
		BEM:     bem.Options{SeriesTol: seriesTol, Workers: workers, Kernel: bem.FlatKernel},
	}
}

type interconnectBench struct {
	grid   *earthing.Grid
	gpr    float64
	first  float64
	reqErr float64
}

// interconnectWarmN sizes the warm-up analysis of the set-up.
const interconnectWarmN = 200

// setupInterconnect generates the grid, runs its preprocessing stage and
// warms up with the same compressed analysis of a 200-DoF interconnected
// grid.
func setupInterconnect(ctx context.Context, in inputs) (bench, error) {
	b := &interconnectBench{
		grid: earthing.InterconnectedGrid(interconnectN, interconnectGrid),
		gpr:  interconnectGPR(in.seed),
	}
	cfg := interconnectConfig(b.gpr)
	mesh, _, err := core.BuildMesh(b.grid, interconnectSoil(), cfg)
	if err != nil {
		return nil, err
	}
	if _, err := bem.New(mesh, interconnectSoil(), cfg.BEM); err != nil {
		return nil, err
	}
	if _, _, err := analyzeInterconnect(ctx, earthing.InterconnectedGrid(interconnectWarmN, interconnectGrid), b.gpr); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *interconnectBench) analyze(ctx context.Context) (time.Duration, *earthing.Result, error) {
	return analyzeInterconnect(ctx, b.grid, b.gpr)
}

// analyzeInterconnect is the README quickstart's compressed analysis.
func analyzeInterconnect(ctx context.Context, g *earthing.Grid, gpr float64) (time.Duration, *earthing.Result, error) {
	start := time.Now()
	res, err := earthing.Analyze(ctx, g, interconnectSoil(), earthing.Config{GPR: gpr, BEM: earthing.BEMOptions{SeriesTol: seriesTol}},
		earthing.WithFlatAssembly(), earthing.WithHMatrix(interconnectEps, interconnectEta),
		earthing.WithWorkers(workers))
	if err != nil {
		return 0, nil, err
	}
	return time.Since(start), res, nil
}

// op is one compressed analysis. Its Req must lie within 10·ε of the dense
// reference and repeat bit for bit across ops.
func (b *interconnectBench) op(ctx context.Context, _ int) (time.Duration, error) {
	d, res, err := b.analyze(ctx)
	if err != nil {
		return 0, err
	}
	if len(res.Warnings) > 0 {
		return 0, fmt.Errorf("compressed analysis warned: %v", res.Warnings)
	}
	e := math.Abs(res.Req-interconnectRef) / interconnectRef
	b.reqErr = math.Max(b.reqErr, e)
	if e > 10*interconnectEps {
		return 0, fmt.Errorf("H-matrix Req %.12g is %.3g from the dense %.12g (allowed %g)",
			res.Req, e, interconnectRef, 10*interconnectEps)
	}
	if b.first == 0 {
		b.first = res.Req
	} else if math.Float64bits(res.Req) != math.Float64bits(b.first) {
		return 0, fmt.Errorf("Req %.17g differs from the first op's %.17g", res.Req, b.first)
	}
	return d, nil
}

func (b *interconnectBench) finish(_ context.Context, _ []time.Duration, m metrics) (int, []string, error) {
	m.set("req_err_rel", b.reqErr, "1")
	return 0, []string{fmt.Sprintf("InterconnectedGrid(%d, %d), GPR %.1f V; |ΔReq|/Req %.3g against the dense reference",
		interconnectN, interconnectGrid, b.gpr, b.reqErr)}, nil
}

func (b *interconnectBench) close() error { return nil }

// interconnectReplay is the compressed pipeline through the layers' public
// functions: the calls core.Analyze makes for SolverHMatrix.
type interconnectReplay struct {
	req     float64
	prepMs  float64
	setupMs float64
	buildMs float64
	solveMs float64
	iters   int
	stats   hmatrix.BuildStats
	asm     *bem.Assembler
	mesh    *earthing.Mesh
}

func replayInterconnect(ctx context.Context, tr *tracer, b *interconnectBench) (time.Duration, int64, interconnectReplay, error) {
	var out interconnectReplay
	cfg := interconnectConfig(b.gpr)
	model := interconnectSoil()
	root := tr.begin("interconnect-hmatrix.analysis", 0, 0)
	start := time.Now()
	var (
		h   *hmatrix.HMatrix
		nu  []float64
		sr  hmatrix.SolveResult
		cur float64
	)
	d, err := tr.layer(root, "core.BuildMesh", func() (err error) {
		out.mesh, _, err = core.BuildMesh(b.grid, model, cfg)
		return err
	})
	if err != nil {
		return 0, 0, out, err
	}
	out.prepMs = ms(d)
	if d, err = tr.layer(root, "bem.New", func() (err error) {
		out.asm, err = bem.New(out.mesh, model, cfg.BEM)
		return err
	}); err != nil {
		return 0, 0, out, err
	}
	out.setupMs = ms(d)
	if d, err = tr.layer(root, "hmatrix.Build", func() (err error) {
		h, err = hmatrix.Build(ctx, out.asm, hmatrix.Params{
			Eps: cfg.HMatrix.Eps, Eta: cfg.HMatrix.Eta, Workers: cfg.BEM.Workers,
		})
		return err
	}); err != nil {
		return 0, 0, out, err
	}
	out.buildMs = ms(d)
	out.stats = h.Stats()
	if _, err = tr.layer(root, "bem.RHS", func() error { nu = bem.RHS(out.mesh); return nil }); err != nil {
		return 0, 0, out, err
	}
	if d, err = tr.layer(root, "hmatrix.Solve", func() (err error) {
		sr, err = h.Solve(nu, hmatrix.SolveOptions{Tol: cfg.CGTol})
		return err
	}); err != nil {
		return 0, 0, out, err
	}
	out.solveMs = ms(d)
	out.iters = sr.Iterations
	if _, err = tr.layer(root, "bem.TotalCurrent", func() error { cur = bem.TotalCurrent(out.mesh, sr.X); return nil }); err != nil {
		return 0, 0, out, err
	}
	out.req = 1 / cur
	total := time.Since(start)
	if root != nil {
		total = root.end()
	}
	return total, root.id(), out, nil
}

// pairSampleSize is how many near and how many far element pairs the pair
// kernel timing draws.
const pairSampleSize = 256

// samplePairs times Assembler.PairMatrix on a seeded sample of near pairs
// (midpoints closer than half the summed lengths: self, touching and
// adjacent elements) and far pairs (midpoints more than five summed lengths
// apart), returning ns per call.
func samplePairs(tr *tracer, asm *bem.Assembler, mesh *earthing.Mesh, seed int64) (near, far float64) {
	r := rand.New(rand.NewSource(seed))
	m := len(mesh.Elements)
	var nearPairs, farPairs [][2]int
	for tries := 0; tries < 1_000_000 && (len(nearPairs) < pairSampleSize || len(farPairs) < pairSampleSize); tries++ {
		beta := r.Intn(m)
		var alpha int
		if len(nearPairs) < pairSampleSize && tries%2 == 0 {
			alpha = max(0, beta-r.Intn(3))
		} else {
			alpha = r.Intn(beta + 1)
		}
		eb, ea := mesh.Elements[beta].Seg, mesh.Elements[alpha].Seg
		sum := eb.Length() + ea.Length()
		d := eb.Midpoint().Sub(ea.Midpoint()).Norm()
		switch {
		case d < sum/2 && len(nearPairs) < pairSampleSize:
			nearPairs = append(nearPairs, [2]int{beta, alpha})
		case d > 5*sum && len(farPairs) < pairSampleSize:
			farPairs = append(farPairs, [2]int{beta, alpha})
		}
	}
	cs := asm.NewColumnScratch()
	out := make([]float64, asm.StoreSize()/max(asm.NumPairs(), 1))
	timePairs := func(name string, pairs [][2]int) float64 {
		if len(pairs) == 0 {
			return 0
		}
		const rounds = 4
		sp := tr.begin(name, 0, 0)
		start := time.Now()
		for k := 0; k < rounds; k++ {
			for _, p := range pairs {
				asm.PairMatrix(p[0], p[1], out, cs)
			}
		}
		d := time.Since(start)
		sp.end()
		return float64(d.Nanoseconds()) / float64(rounds*len(pairs))
	}
	return timePairs("bem.PairMatrix.near", nearPairs), timePairs("bem.PairMatrix.far", farPairs)
}

// traceInterconnect alternates untraced analyses with traced replays; every
// replayed Req must be bit-identical to the untraced one. A seeded pair
// sample of the same mesh times the near and far pair kernels.
func traceInterconnect(ctx context.Context, in inputs, tr *tracer, budget time.Duration) (traced, error) {
	bb, err := setupInterconnect(ctx, in)
	if err != nil {
		return traced{}, err
	}
	b := bb.(*interconnectBench)
	var (
		want  float64
		reps  []interconnectReplay
		fails int
	)
	check, n, err := pairLoop(budget, tr,
		func() (time.Duration, error) {
			d, res, err := b.analyze(ctx)
			if err == nil {
				want = res.Req
			}
			return d, err
		},
		func() (time.Duration, int64, error) {
			d, root, rep, err := replayInterconnect(ctx, tr, b)
			if err != nil {
				return 0, 0, err
			}
			if math.Float64bits(rep.req) != math.Float64bits(want) {
				fails++
			}
			reps = append(reps, rep)
			return d, root, nil
		})
	if err != nil {
		return traced{}, err
	}
	col := func(f func(interconnectReplay) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	last := reps[len(reps)-1]
	near, far := samplePairs(tr, last.asm, last.mesh, in.seed)
	st := last.stats
	m := metrics{}
	m.set("core.preprocess_ms", col(func(r interconnectReplay) float64 { return r.prepMs }), "ms")
	m.set("bem.setup_ms", col(func(r interconnectReplay) float64 { return r.setupMs }), "ms")
	m.set("hmatrix.build_ms", col(func(r interconnectReplay) float64 { return r.buildMs }), "ms")
	m.set("hmatrix.solve_ms", col(func(r interconnectReplay) float64 { return r.solveMs }), "ms")
	m.set("hmatrix.cg_iters", float64(last.iters), "count")
	m.set("hmatrix.dense_blocks", float64(st.DenseBlocks), "count")
	m.set("hmatrix.low_rank_blocks", float64(st.LowRank), "count")
	m.set("hmatrix.avg_rank", st.AvgRank, "1")
	m.set("hmatrix.max_rank", float64(st.MaxRank), "count")
	m.set("hmatrix.compression", st.CompressionRatio(), "1")
	m.set("bem.pair_near_ns", near, "ns")
	m.set("bem.pair_far_ns", far, "ns")
	m.set("grid.elements", float64(len(last.mesh.Elements)), "count")
	m.set("grid.dof", float64(last.mesh.NumDoF), "count")
	notes := []string{fmt.Sprintf("%d traced analyses of InterconnectedGrid(%d, %d); replayed Req bit-identical to Analyze in %d of %d",
		n, interconnectN, interconnectGrid, n-fails, n)}
	return traced{layers: m, check: check, attempted: n, failed: fails, notes: notes}, nil
}

// denseInterconnectReq is the reference the compressed Req is held to: the
// same grid solved densely (flat kernel, PCG) at unit GPR.
func denseInterconnectReq(ctx context.Context, gridSeed int64) (float64, error) {
	res, err := earthing.Analyze(ctx, earthing.InterconnectedGrid(interconnectN, gridSeed), interconnectSoil(),
		earthing.Config{GPR: 1, BEM: earthing.BEMOptions{SeriesTol: seriesTol}},
		earthing.WithFlatAssembly(), earthing.WithWorkers(workers))
	if err != nil {
		return 0, fmt.Errorf("dense reference of grid %d: %w", gridSeed, err)
	}
	return res.Req, nil
}
