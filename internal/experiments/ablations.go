package experiments

import (
	"fmt"
	"io"
	"time"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/fdm"
	"earthing/internal/grid"
	"earthing/internal/linalg"
	"earthing/internal/soil"
)

// AblationAssembly compares the paper's dependency-breaking transformation
// (store all elemental matrices, assemble sequentially afterwards, §6.2)
// against assembling under a mutex inside the parallel loop.
func AblationAssembly(out io.Writer, q Quality, workers []int) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	q = q.withDefaults()
	m, err := grid.BarberaMesh()
	if err != nil {
		return err
	}
	model := BarberaTwoLayer()
	header(w, "Ablation — elemental assembly: store-then-assemble vs mutex (§6.2)")
	fmt.Fprintf(w, "%-22s %8s %14s\n", "mode", "workers", "matrix time")
	for _, mode := range []bem.AssemblyMode{bem.StoreThenAssemble, bem.MutexAssemble} {
		for _, p := range workers {
			opt := q.bemOptions(p)
			opt.Assembly = mode
			wall, err := minDuration(q.Repeats, func() (time.Duration, error) {
				d, _, err := matrixGenTime(m, model, opt)
				return d, err
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-22s %8d %14v\n", mode, p, wall.Round(time.Millisecond))
		}
	}
	return nil
}

// SeriesTolPoint is one tolerance sweep sample.
type SeriesTolPoint struct {
	Tol  float64
	Req  float64
	Wall time.Duration
}

// RunAblationSeriesTol sweeps the kernel-series truncation tolerance and
// reports the accuracy/time trade-off that makes multilayer models so much
// more expensive than uniform ones (§4.3: series "numerically added up until
// a tolerance is fulfilled").
func RunAblationSeriesTol(tols []float64, workers int) ([]SeriesTolPoint, error) {
	var pts []SeriesTolPoint
	for _, tol := range tols {
		q := Quality{SeriesTol: tol, Repeats: 1}
		start := time.Now()
		res, err := AnalyzeBalaidos(BalaidosModels()[2], q, workers) // model C, worst convergence
		if err != nil {
			return nil, err
		}
		pts = append(pts, SeriesTolPoint{Tol: tol, Req: res.Req, Wall: time.Since(start)})
	}
	return pts, nil
}

// AblationSeriesTol prints the tolerance sweep.
func AblationSeriesTol(out io.Writer, workers int) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	pts, err := RunAblationSeriesTol([]float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7}, workers)
	if err != nil {
		return err
	}
	header(w, "Ablation — kernel series tolerance (Balaidos model C)")
	fmt.Fprintf(w, "%-10s %12s %14s\n", "tol", "Req (ohm)", "analysis time")
	for _, p := range pts {
		fmt.Fprintf(w, "%-10.0e %12.5f %14v\n", p.Tol, p.Req, p.Wall.Round(time.Millisecond))
	}
	return nil
}

// AblationSolver compares the direct Cholesky solve with the diagonal
// preconditioned CG the paper recommends (§4.3), on the Barberá system.
func AblationSolver(out io.Writer, q Quality) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	q = q.withDefaults()
	m, err := grid.BarberaMesh()
	if err != nil {
		return err
	}
	model := BarberaTwoLayer()
	a, err := bem.New(m, model, q.bemOptions(0))
	if err != nil {
		return err
	}
	r, _, err := a.Matrix()
	if err != nil {
		return err
	}
	nu := bem.RHS(m)

	header(w, "Ablation — linear solver (Barberá two-layer system, N = "+fmt.Sprint(r.Order())+")")
	start := time.Now()
	ch, err := linalg.NewCholesky(r, linalg.FactorOpts{})
	if err != nil {
		return err
	}
	xd, err := ch.Solve(nu)
	if err != nil {
		return err
	}
	dDirect := time.Since(start)

	start = time.Now()
	cg, err := linalg.SolveCG(r, nu, linalg.CGOptions{Tol: 1e-10})
	if err != nil {
		return err
	}
	dCG := time.Since(start)

	reqD := 1 / bem.TotalCurrent(m, xd)
	reqC := 1 / bem.TotalCurrent(m, cg.X)
	fmt.Fprintf(w, "cholesky: %12v  Req = %.6f ohm\n", dDirect, reqD)
	fmt.Fprintf(w, "pcg:      %12v  Req = %.6f ohm (%d iterations, residual %.1e)\n",
		dCG, reqC, cg.Iterations, cg.Residual)
	fmt.Fprintln(w, "(the paper: system resolution cost \"should never prevail\" over matrix generation)")
	return nil
}

// AblationThreeLayer exercises the paper's §4.2 extension: grounding
// analysis in a three-layer soil, comparing the closed-form "double series"
// image expansion (fast path, electrodes in the top layer) against the
// numeric Hankel-transform kernels.
func AblationThreeLayer(out io.Writer) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	g := grid.RectMesh(0, 0, 30, 30, 4, 4, 0.5, 0.006)
	gammas := []float64{0.004, 0.02, 0.008}
	thick := []float64{1.2, 2.0}

	header(w, "Ablation — three-layer soil: double-series images vs Hankel quadrature (§4.2)")
	run := func(model soil.Model, label string) (float64, time.Duration, error) {
		start := time.Now()
		res, err := core.Analyze(g, model, core.Config{
			GPR: 10_000,
			BEM: bem.Options{SeriesTol: 1e-7, MaxGroups: 200},
		})
		if err != nil {
			return 0, 0, err
		}
		d := time.Since(start)
		fmt.Fprintf(w, "%-28s Req = %.4f ohm   total %v\n", label, res.Req, d.Round(time.Millisecond))
		return res.Req, d, nil
	}

	ml, err := soil.NewMultiLayer(gammas, thick)
	if err != nil {
		return err
	}
	ml.Tol = 1e-7
	reqImg, tImg, err := run(ml, "images (double series)")
	if err != nil {
		return err
	}
	mlQ, err := soil.NewMultiLayer(gammas, thick)
	if err != nil {
		return err
	}
	mlQ.Tol = 1e-7
	reqQuad, tQuad, err := run(hideImages{mlQ}, "Hankel quadrature")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "relative Req difference: %.2e; speedup of the image path: %.1fx\n",
		2*abs(reqImg-reqQuad)/(reqImg+reqQuad), float64(tQuad)/float64(tImg))
	fmt.Fprintln(w, "(the paper: series kernels make multilayer models expensive; higher layer")
	fmt.Fprintln(w, " counts need double, triple, … series — regenerated here from the recursive")
	fmt.Fprintln(w, " reflection coefficient)")
	return nil
}

// hideImages forces the quadrature path by hiding the expansion.
type hideImages struct{ soil.Model }

func (h hideImages) ImageExpansion(src, obs, maxGroup int) ([]soil.Image, bool) {
	return nil, false
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// AblationGrading sweeps the lattice grading factor of a Barberá-sized
// triangle at fixed element count: practical plans compress spacings toward
// the perimeter (where leakage concentrates), and the sweep shows Req is
// almost insensitive to it — which pins the residual §5.1 offset on the
// unpublished outline rather than interior spacing (see EXPERIMENTS.md).
func AblationGrading(out io.Writer, q Quality) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	q = q.withDefaults()
	header(w, "Ablation — lattice grading (Barberá-sized triangle, uniform soil)")
	fmt.Fprintf(w, "%-8s %10s %12s\n", "beta", "elements", "Req (ohm)")
	for _, beta := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
		g := grid.TriangleMeshGraded(89, 143, 16, 28, 0.8, 12.85e-3/2, beta)
		m, err := grid.Discretize(g, grid.Linear, 0)
		if err != nil {
			return err
		}
		res, err := core.AnalyzeMesh(m, BarberaUniform(), core.Config{
			GPR: 10_000, BEM: q.bemOptions(0),
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8.1f %10d %12.4f\n", beta, len(m.Elements), res.Req)
	}
	fmt.Fprintln(w, "(paper value 0.3128; grading moves Req by <1%)")
	return nil
}

// BaselineFDM quantifies the paper's §3 argument against volume
// discretization: it solves the same grounding problem (a driven rod, then
// a small grid) with the BEM and with the finite-difference baseline, and
// reports unknown counts, times and the resistance each method computes.
// The FD lattice cannot represent the thin conductor radius, so its Req
// corresponds to an electrode of effective radius ≈ 0.3·h — the accuracy
// gap that only shrinks with (expensively) finer lattices.
func BaselineFDM(out io.Writer) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	header(w, "Baseline — BEM vs finite differences (the paper's §3 argument)")
	model := soil.NewUniform(0.01)

	cases := []struct {
		name string
		g    *grid.Grid
		box  fdm.Box
	}{
		{"rod 3 m", grid.SingleRod(0, 0, 0, 3, 0.0075),
			fdm.Box{X0: -12, Y0: -12, X1: 12, Y1: 12, Depth: 14, H: 0.5}},
		{"grid 20x20 m", grid.RectMesh(0, 0, 20, 20, 3, 3, 1, 0.0075),
			fdm.Box{X0: -20, Y0: -20, X1: 40, Y1: 40, Depth: 30, H: 1.0}},
	}
	fmt.Fprintf(w, "%-14s %10s %12s %12s %14s %12s\n",
		"problem", "method", "unknowns", "Req (ohm)", "time", "CG iters")
	for _, c := range cases {
		start := time.Now()
		res, err := core.Analyze(c.g, model, core.Config{MaxElemLen: 1})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %10s %12d %12.3f %14v %12d\n",
			c.name, "BEM", res.Mesh.NumDoF, res.Req,
			time.Since(start).Round(time.Millisecond), res.CG.Iterations)

		start = time.Now()
		s, err := fdm.New(c.g, model, c.box)
		if err != nil {
			return err
		}
		fr, err := s.Solve(1e-7, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %10s %12d %12.3f %14v %12d\n",
			c.name, "FD", fr.Nodes, fr.Req,
			time.Since(start).Round(time.Millisecond), fr.Iterations)
	}
	fmt.Fprintln(w, "\nthe FD lattice needs 10³–10⁴× the unknowns and still reads Req low (its")
	fmt.Fprintln(w, "Dirichlet cells act as a conductor of radius ≈0.3·h, not the real 7.5 mm);")
	fmt.Fprintln(w, "resolving the true radius would need h ≈ centimetres — the \"completely out")
	fmt.Fprintln(w, "of range computing effort\" that motivates the boundary element method.")
	return nil
}

// ConvergencePoint is one mesh-refinement sample.
type ConvergencePoint struct {
	Kind     grid.ElementKind
	Elements int
	Req      float64
}

// RunAblationElements refines a 30×30 m test grid and reports Req for
// constant and linear element families — the discretization study behind
// the choice of Galerkin linear elements (§4.2).
func RunAblationElements(maxLens []float64) ([]ConvergencePoint, error) {
	g := grid.RectMesh(0, 0, 30, 30, 4, 4, 0.8, 0.006)
	model := soil.NewTwoLayer(0.005, 0.016, 1.0)
	var pts []ConvergencePoint
	for _, kind := range []grid.ElementKind{grid.Constant, grid.Linear} {
		for _, ml := range maxLens {
			res, err := core.Analyze(g, model, core.Config{
				ElementKind: kind, MaxElemLen: ml,
			})
			if err != nil {
				return nil, err
			}
			pts = append(pts, ConvergencePoint{Kind: kind, Elements: len(res.Mesh.Elements), Req: res.Req})
		}
	}
	return pts, nil
}

// AblationElements prints the element-family convergence study.
func AblationElements(out io.Writer) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	pts, err := RunAblationElements([]float64{10, 5, 2.5, 1.25})
	if err != nil {
		return err
	}
	header(w, "Ablation — element family convergence (30×30 m grid, two-layer soil)")
	fmt.Fprintf(w, "%-10s %10s %12s\n", "kind", "elements", "Req (ohm)")
	for _, p := range pts {
		fmt.Fprintf(w, "%-10s %10d %12.5f\n", p.Kind, p.Elements, p.Req)
	}
	return nil
}
