package core

import (
	"math"
	"strings"
	"testing"

	"earthing/internal/bem"
	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/soil"
)

func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Max(math.Abs(a), math.Abs(b)))
}

func TestAnalyzeSmallGridUniform(t *testing.T) {
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	res, err := Analyze(g, soil.NewUniform(0.016), Config{GPR: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Req <= 0 || math.IsNaN(res.Req) {
		t.Fatalf("Req = %v", res.Req)
	}
	if relDiff(res.Current, 10_000/res.Req) > 1e-12 {
		t.Errorf("I = %v, want GPR/Req = %v", res.Current, 10_000/res.Req)
	}
	// A 20×20 m grid in 62.5 Ω·m soil lands in the ~1–3 Ω range.
	if res.Req < 0.5 || res.Req > 5 {
		t.Errorf("Req = %v ohm out of physical range", res.Req)
	}
	if !res.CG.Converged {
		t.Error("PCG did not converge")
	}
	if res.Timings.MatrixGen <= 0 || res.Timings.Solve <= 0 {
		t.Errorf("stage timings not recorded: %+v", res.Timings)
	}
}

func TestGPRScalesLinearly(t *testing.T) {
	g := grid.RectMesh(0, 0, 15, 15, 2, 2, 0.8, 0.006)
	model := soil.NewTwoLayer(0.005, 0.016, 1.0)
	r1, err := Analyze(g, model, Config{GPR: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Analyze(g, model, Config{GPR: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(r1.Req, r2.Req) > 1e-12 {
		t.Error("Req must not depend on GPR")
	}
	if relDiff(r2.Current, 10_000*r1.Current) > 1e-9 {
		t.Errorf("current did not scale: %v vs %v", r2.Current, 10_000*r1.Current)
	}
	p1 := r1.PotentialAt(geom.V(30, 7, 0))
	p2 := r2.PotentialAt(geom.V(30, 7, 0))
	if relDiff(p2, 10_000*p1) > 1e-9 {
		t.Errorf("potential did not scale: %v vs %v", p2, 10_000*p1)
	}
}

func TestSolversAgree(t *testing.T) {
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	model := soil.NewTwoLayer(0.005, 0.016, 1.0)
	pcg, err := Analyze(g, model, Config{Solver: PCG})
	if err != nil {
		t.Fatal(err)
	}
	chol, err := Analyze(g, model, Config{Solver: Cholesky})
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(pcg.Req, chol.Req) > 1e-8 {
		t.Errorf("PCG Req %v vs Cholesky Req %v", pcg.Req, chol.Req)
	}
}

// TestCholeskyDeterministicAcrossWorkers: the direct solve gives the same
// bits at any worker count. The 12×12 lattice has 144 DoF, so the
// factorization runs more than one panel and its parallel stages.
func TestCholeskyDeterministicAcrossWorkers(t *testing.T) {
	g := grid.RectMesh(0, 0, 30, 30, 12, 12, 0.8, 0.006)
	model := soil.NewTwoLayer(0.005, 0.016, 1.0)
	probe := geom.V(7, 9, 0)
	var ref *Result
	for _, w := range []int{1, 2, 4} {
		res, err := Analyze(g, model, Config{GPR: 10_000, Solver: Cholesky,
			BEM: bem.Options{Workers: w, SeriesTol: 1e-5}})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			if len(res.Sigma) < 128 {
				t.Fatalf("%d DoF; the test needs ≥ 128", len(res.Sigma))
			}
			ref = res
			continue
		}
		for i, v := range res.Sigma {
			if v != ref.Sigma[i] {
				t.Fatalf("workers=%d: σ[%d] = %v, workers=1 gives %v", w, i, v, ref.Sigma[i])
			}
		}
		if res.Req != ref.Req {
			t.Errorf("workers=%d: Req %v, workers=1 gives %v", w, res.Req, ref.Req)
		}
		if p, pRef := res.PotentialAt(probe), ref.PotentialAt(probe); p != pRef {
			t.Errorf("workers=%d: V(7,9,0) = %v, workers=1 gives %v", w, p, pRef)
		}
	}
}

func TestAnalyzeSplitsAtInterfaces(t *testing.T) {
	// A rod crossing the two-layer interface must be handled transparently.
	g := grid.SingleRod(0, 0, 0.5, 2.0, 0.007)
	model := soil.NewTwoLayer(0.005, 0.016, 1.0)
	res, err := Analyze(g, model, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mesh.Elements) < 2 {
		t.Errorf("expected interface split, got %d elements", len(res.Mesh.Elements))
	}
	if res.Req <= 0 {
		t.Errorf("Req = %v", res.Req)
	}
}

func TestInterfaceDepthsProbe(t *testing.T) {
	tl := soil.NewTwoLayer(0.005, 0.016, 1.25)
	d := interfaceDepths(tl)
	if len(d) != 1 || math.Abs(d[0]-1.25) > 1e-6 {
		t.Errorf("two-layer interfaces = %v", d)
	}
	ml, err := soil.NewMultiLayer([]float64{1, 2, 3}, []float64{0.7, 2.3})
	if err != nil {
		t.Fatal(err)
	}
	d = interfaceDepths(ml)
	if len(d) != 2 || math.Abs(d[0]-0.7) > 1e-6 || math.Abs(d[1]-3.0) > 1e-6 {
		t.Errorf("three-layer interfaces = %v", d)
	}
	if got := interfaceDepths(soil.NewUniform(1)); got != nil {
		t.Errorf("uniform interfaces = %v", got)
	}
}

func TestRodElementsOption(t *testing.T) {
	g := grid.Balaidos()
	model := soil.NewUniform(0.02)
	res, err := Analyze(g, model, Config{RodElements: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mesh.Elements) != 241 { // 107 + 2·67, paper's Balaidos count
		t.Errorf("elements = %d, want 241", len(res.Mesh.Elements))
	}
}

func TestAnalyzeReader(t *testing.T) {
	in := `name tiny
conductor 0 0 0.8 10 0 0.8 0.006
conductor 0 0 0.8 0 10 0.8 0.006
rod 0 0 0.8 1.5 0.007
`
	res, err := AnalyzeReader(strings.NewReader(in), soil.NewUniform(0.02), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Req <= 0 {
		t.Errorf("Req = %v", res.Req)
	}
	if _, err := AnalyzeReader(strings.NewReader("garbage"), soil.NewUniform(0.02), Config{}); err == nil {
		t.Error("bad input accepted")
	}
}

// TestAnalyzeMeshPaperDiscretizations pins the Balaidos reproduction to the
// documented Table 5.1 agreement: Req within 0.5 % of the paper for soils A
// and B, and within 3 % for soil C, on the paper's 241-element
// discretization (two elements per rod; soil C's rods split at the 1 m
// interface).
func TestAnalyzeMeshPaperDiscretizations(t *testing.T) {
	cases := []struct {
		name     string
		model    soil.Model
		rods     int
		paperReq float64
		tol      float64
	}{
		{"A", soil.NewUniform(0.020), 2, 0.3366, 0.005},
		{"B", soil.NewTwoLayer(0.0025, 0.020, 0.7), 2, 0.3522, 0.005},
		{"C", soil.NewTwoLayer(0.0025, 0.020, 1.0), 1, 0.4860, 0.03},
	}
	for _, c := range cases {
		if testing.Short() && c.name != "A" {
			continue
		}
		res, err := Analyze(grid.Balaidos(), c.model, Config{GPR: 10_000, RodElements: c.rods})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(res.Mesh.Elements); n != 241 {
			t.Errorf("soil %s: %d elements, want 241", c.name, n)
		}
		if e := math.Abs(res.Req-c.paperReq) / c.paperReq; e > c.tol {
			t.Errorf("soil %s: Req %.5f Ω is %.2f%% from Table 5.1's %.4f Ω (allowed %.1f%%)",
				c.name, res.Req, 100*e, c.paperReq, 100*c.tol)
		}
	}
}

// TestMixedSolveBalaidosNoFallback is the regression test for a false stall:
// on Balaidos soil B the mixed-precision refinement's last correction sits
// at the float64 round-off floor without contracting further, which is
// convergence, not a stall — the solve must not fall back to full precision
// and must agree with the float64 factorization.
func TestMixedSolveBalaidosNoFallback(t *testing.T) {
	model := soil.NewTwoLayer(0.0025, 0.020, 0.7)
	cfg := Config{GPR: 10_000, RodElements: 2, Solver: CholeskyMixed}
	mixed, err := Analyze(grid.Balaidos(), model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range mixed.Warnings {
		if strings.Contains(w, "full precision") {
			t.Fatalf("mixed solve fell back: %s", w)
		}
	}
	cfg.Solver = Cholesky
	full, err := Analyze(grid.Balaidos(), model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(mixed.Req-full.Req) / full.Req; rel > 1e-10 {
		t.Errorf("mixed Req %v vs full %v (rel Δ %g > 1e-10)", mixed.Req, full.Req, rel)
	}
}

func TestBoundaryConditionOnElectrode(t *testing.T) {
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	model := soil.NewTwoLayer(0.005, 0.016, 1.2)
	res, err := Analyze(g, model, Config{GPR: 10_000, MaxElemLen: 2,
		BEM: bem.Options{GaussOrder: 6, SeriesTol: 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	el := res.Mesh.Elements[3]
	// Potential on the conductor surface should recover the GPR.
	p := el.Seg.Midpoint().Add(geom.V(0, 0, -el.Radius))
	v := res.PotentialAt(p)
	if math.Abs(v-10_000)/10_000 > 0.05 {
		t.Errorf("V on electrode = %v, want 10000", v)
	}
}

func TestWriteReport(t *testing.T) {
	g := grid.RectMesh(0, 0, 10, 10, 2, 2, 0.8, 0.006)
	res, err := Analyze(g, soil.NewUniform(0.02), Config{GPR: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := res.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"equivalent resistance", "uniform soil", "degrees of freedom"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestPredictedSpeedup(t *testing.T) {
	g := grid.RectMesh(0, 0, 30, 30, 5, 5, 0.8, 0.006)
	model := soil.NewTwoLayer(0.005, 0.016, 1.0)
	res, err := Analyze(g, model, Config{BEM: bem.Options{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	s := res.PredictedSpeedup()
	if s < 1 || s > 4.2 {
		t.Errorf("predicted speedup = %v with 4 workers", s)
	}
	// Sequential run predicts 1.
	seq, err := Analyze(g, model, Config{BEM: bem.Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if sp := seq.PredictedSpeedup(); sp != 1 {
		t.Errorf("sequential predicted speedup = %v", sp)
	}
}

func TestInvalidConfigs(t *testing.T) {
	g := grid.RectMesh(0, 0, 10, 10, 2, 2, 0.8, 0.006)
	if _, err := Analyze(g, soil.NewUniform(0.02), Config{GPR: -5}); err == nil {
		t.Error("negative GPR accepted")
	}
	if _, err := Analyze(g, soil.NewUniform(0.02), Config{Solver: SolverKind(99)}); err == nil {
		t.Error("unknown solver accepted")
	}
	if _, err := Analyze(&grid.Grid{}, soil.NewUniform(0.02), Config{}); err == nil {
		t.Error("empty grid accepted")
	}
}

func TestBondingWarning(t *testing.T) {
	g := grid.RectMesh(0, 0, 10, 10, 2, 2, 0.8, 0.006)
	g.AddRod(30, 30, 0.8, 2, 0.007) // floating, far from the grid
	res, err := Analyze(g, soil.NewUniform(0.02), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0], "disconnected") {
		t.Errorf("warnings = %v", res.Warnings)
	}
	var sb strings.Builder
	if err := res.WriteReport(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "WARNING") {
		t.Error("report does not surface the warning")
	}
	// A bonded grid carries no warnings.
	clean, err := Analyze(grid.RectMesh(0, 0, 10, 10, 2, 2, 0.8, 0.006), soil.NewUniform(0.02), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", clean.Warnings)
	}
}

// TestTruncatedLadderWarning: a two-layer soil whose default 256-group image
// ladder stops while |κ|^256 is still above SeriesTol reports the cut on the
// Result, on the dense and on the compressed path; the paper's soils and the
// benchmark workloads' soils (|κ| ≤ 0.78, 0.78^256 ≈ 1e-28) do not.
func TestTruncatedLadderWarning(t *testing.T) {
	g := grid.RectMesh(0, 0, 10, 10, 2, 2, 0.8, 0.006)
	steep := soil.NewTwoLayer(0.0005, 0.05, 2.0) // κ ≈ −0.98
	for _, solver := range []SolverKind{PCG, SolverHMatrix} {
		res, err := Analyze(g, steep, Config{Solver: solver})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0], "MaxGroups = 256") ||
			!strings.Contains(res.Warnings[0], "layers 1–2") {
			t.Errorf("%v: warnings = %q, want one naming the cut at MaxGroups and the layer pair", solver, res.Warnings)
		}
	}
	for name, model := range map[string]soil.Model{
		"A":                 soil.NewUniform(0.020),
		"B":                 soil.NewTwoLayer(0.0025, 0.020, 0.7),
		"C (interconnect)":  soil.NewTwoLayer(0.0025, 0.020, 1.0),
		"design-loop":       soil.NewTwoLayer(0.005, 0.016, 1.0),
		"groundd-mix worst": soil.NewTwoLayer(0.004, 0.0201, 1.2),
		"kappa+0.78":        soil.NewTwoLayer(0.020, 0.0025, 1.0),
	} {
		res, err := Analyze(g, model, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Warnings) != 0 {
			t.Errorf("soil %s: unexpected warnings %q", name, res.Warnings)
		}
	}
}

func TestSolverKindString(t *testing.T) {
	if PCG.String() != "pcg" || Cholesky.String() != "cholesky" {
		t.Error("SolverKind strings wrong")
	}
}
