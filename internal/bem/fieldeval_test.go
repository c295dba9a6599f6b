package bem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/soil"
)

// fieldEvalFixture builds an assembler over a mesh that mixes horizontal
// grid elements and a rod (split at the model interfaces when needed), plus
// a deterministic pseudo-solution vector.
func fieldEvalFixture(t testing.TB, model soil.Model, kind grid.ElementKind) (*Assembler, []float64) {
	return fieldEvalFixtureRod(t, model, kind, false)
}

// fieldEvalFixtureRod is fieldEvalFixture, with surfaceRod adding a second
// rod from z = 0 at (15, 15). Its surface ladders hold images at ±az with
// the same axial direction, which only the sz test of the fold tells apart
// from mirrors.
func fieldEvalFixtureRod(t testing.TB, model soil.Model, kind grid.ElementKind, surfaceRod bool) (*Assembler, []float64) {
	t.Helper()
	g := grid.RectMesh(0, 0, 20, 20, 3, 3, 0.8, 0.006)
	g.AddRod(5, 5, 0.8, 2.5, 0.007)
	if surfaceRod {
		g.AddRod(15, 15, 0, 2.5, 0.007)
	}
	var depths []float64
	if model.NumLayers() > 1 {
		depths = []float64{1.0, 3.0} // interfaces of the layered fixtures below
	}
	gs := g.SplitAtDepths(depths...)
	m, err := grid.Discretize(gs, kind, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(m, model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sigma := make([]float64, m.NumDoF)
	for i := range sigma {
		sigma[i] = 0.5 + 0.03*float64(i%17)
	}
	return a, sigma
}

// fieldEvalPoints samples observation points on the surface, at depth inside
// every layer, and close to the conductors (where the ρ clamp engages).
func fieldEvalPoints() []geom.Vec3 {
	r := rand.New(rand.NewSource(7))
	pts := []geom.Vec3{
		geom.V(10, 10, 0),       // surface over the grid
		geom.V(-12, 25, 0),      // surface outside the grid
		geom.V(10, 0.001, 0),    // surface above an edge conductor
		geom.V(5, 5, 0.81),      // just below the rod top
		geom.V(3, 3, 0.8),       // on the conductor plane
		geom.V(10, 10.005, 0.8), // ~radius from a conductor axis
		geom.V(7, 9, 1.5),       // second layer (two-layer models)
		geom.V(9, 6, 2.5),       // third layer (multilayer models)
		geom.V(40, -30, 5),      // far field at depth
	}
	for i := 0; i < 40; i++ {
		pts = append(pts, geom.V(r.Float64()*40-10, r.Float64()*40-10, r.Float64()*3))
	}
	return pts
}

// surfaceRaster is a 9 × 9 raster on z = 0 over the fieldEvalFixture grid
// and beyond it: x, y ∈ {−10, −5, …, 30} puts points directly above the
// conductors (x or y ∈ {0, 10, 20}), above the rod top at (5, 5) and on the
// top of fieldEvalFixtureRod's surface rod at (15, 15).
func surfaceRaster() []geom.Vec3 {
	var pts []geom.Vec3
	for j := 0; j < 9; j++ {
		for i := 0; i < 9; i++ {
			pts = append(pts, geom.V(-10+5*float64(i), -10+5*float64(j), 0))
		}
	}
	return pts
}

// TestFieldEvaluatorMatchesPotential is the core equivalence suite: the
// batched engine must reproduce the direct per-point Potential oracle to
// ≤ 1e-10 across uniform, two-layer and multilayer soils (the latter
// exercising the mixed image/quadrature plan), for linear and constant
// elements. The surface raster runs the folded, fused path, also over a
// rod that reaches the surface; a point 1e-9 below the surface must scan
// the unfolded ladders.
func TestFieldEvaluatorMatchesPotential(t *testing.T) {
	ml, err := soil.NewMultiLayer([]float64{0.004, 0.02, 0.01}, []float64{1.0, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	ml.Tol = 1e-6
	cases := []struct {
		name  string
		model soil.Model
	}{
		{"uniform", soil.NewUniform(0.016)},
		{"two-layer", soil.NewTwoLayer(0.005, 0.016, 1.0)},
		{"three-layer", ml},
	}
	for _, kind := range []grid.ElementKind{grid.Linear, grid.Constant} {
		for _, c := range cases {
			below := geom.V(10, 10, 1e-9)
			for _, surfaceRod := range []bool{false, true} {
				a, sigma := fieldEvalFixtureRod(t, c.model, kind, surfaceRod)
				fe := a.Evaluator()
				pts := append(surfaceRaster(), below)
				if !surfaceRod {
					pts = append(pts, fieldEvalPoints()...)
				}
				for _, x := range pts {
					want := a.Potential(x, sigma)
					got := fe.PotentialAt(x, sigma)
					if d := math.Abs(got - want); d > 1e-10 {
						t.Errorf("%s/%v/surface rod %v: V(%v) batch %v vs oracle %v (Δ=%g)",
							c.name, kind, surfaceRod, x, got, want, d)
					}
					if onSurface := x.Z == 0; got != fe.potential(x, sigma, onSurface) {
						t.Errorf("%s/%v/surface rod %v: V(%v) did not take the folded=%v ladders",
							c.name, kind, surfaceRod, x, onSurface)
					}
				}
			}
		}
	}
}

// TestFieldEvaluatorMatchesGradPotential checks the gradient engine against
// the GradPotential oracle (including the finite-difference fallback of
// multilayer off-top pairs) to ≤ 1e-10 per component.
func TestFieldEvaluatorMatchesGradPotential(t *testing.T) {
	ml, err := soil.NewMultiLayer([]float64{0.004, 0.02, 0.01}, []float64{1.0, 2.0})
	if err != nil {
		t.Fatal(err)
	}
	ml.Tol = 1e-6
	cases := []struct {
		name  string
		model soil.Model
	}{
		{"uniform", soil.NewUniform(0.016)},
		{"two-layer", soil.NewTwoLayer(0.005, 0.016, 1.0)},
		{"three-layer", ml},
	}
	for _, c := range cases {
		a, sigma := fieldEvalFixture(t, c.model, grid.Linear)
		fe := a.Evaluator()
		for _, x := range fieldEvalPoints() {
			want := a.GradPotential(x, sigma)
			got := fe.GradientAt(x, sigma)
			d := got.Sub(want).Norm()
			// The FD fallback integrand is itself noisy at the quadrature
			// tolerance; image-kernel layers must agree to 1e-10.
			tol := 1e-10 * (1 + want.Norm())
			if d > tol {
				t.Errorf("%s: ∇V(%v) batch %v vs oracle %v (Δ=%g)", c.name, x, got, want, d)
			}
		}
	}
}

// TestPotentialBatchMatchesSequentialExactly asserts the parallel batch is
// bit-identical to the sequential batch — the analog of the matrix
// generation's parallel-correctness invariant.
func TestPotentialBatchMatchesSequentialExactly(t *testing.T) {
	a, sigma := fieldEvalFixture(t, soil.NewTwoLayer(0.005, 0.016, 1.0), grid.Linear)
	fe := a.Evaluator()
	pts := fieldEvalPoints()
	seq := make([]float64, len(pts))
	par := make([]float64, len(pts))
	fe.PotentialBatch(pts, sigma, 2.5, seq, BatchOptions{Workers: 1})
	st := fe.PotentialBatch(pts, sigma, 2.5, par, BatchOptions{Workers: 4})
	if st.Sched.Iterations != len(pts) {
		t.Errorf("stats report %d iterations, want %d", st.Sched.Iterations, len(pts))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("point %d: parallel %v != sequential %v", i, par[i], seq[i])
		}
	}
	// Spot-check scaling against the per-point core.
	if want := 2.5 * fe.PotentialAt(pts[3], sigma); seq[3] != want {
		t.Errorf("scale not applied: %v vs %v", seq[3], want)
	}

	grads := make([]geom.Vec3, len(pts))
	fe.GradBatch(pts, sigma, grads, BatchOptions{Workers: 3})
	for i, x := range pts[:8] {
		if grads[i] != fe.GradientAt(x, sigma) {
			t.Fatalf("grad batch differs at %d", i)
		}
	}
}

// TestFieldEvaluatorZeroAllocs guards the engine's central property: once
// the plan is built, the per-point evaluation allocates nothing.
func TestFieldEvaluatorZeroAllocs(t *testing.T) {
	a, sigma := fieldEvalFixture(t, soil.NewTwoLayer(0.005, 0.016, 1.0), grid.Linear)
	fe := a.Evaluator()
	x := geom.V(11, 7, 0.3)
	fe.PotentialAt(x, sigma) // build the plan outside the measurement
	if n := testing.AllocsPerRun(100, func() { fe.PotentialAt(x, sigma) }); n != 0 {
		t.Errorf("PotentialAt allocates %v times per point", n)
	}
	fe.GradientAt(x, sigma)
	if n := testing.AllocsPerRun(100, func() { fe.GradientAt(x, sigma) }); n != 0 {
		t.Errorf("GradientAt allocates %v times per point", n)
	}
	// Surface points scan the folded ladders, allocation-free as well.
	s := geom.V(11, 7, 0)
	fe.PotentialAt(s, sigma)
	if n := testing.AllocsPerRun(100, func() { fe.PotentialAt(s, sigma) }); n != 0 {
		t.Errorf("PotentialAt allocates %v times per surface point", n)
	}
}

// TestEvaluatorCachedAndConcurrent checks Assembler.Evaluator returns one
// shared instance and that concurrent first-use (lazy plan build) is safe —
// run under -race in CI.
func TestEvaluatorCachedAndConcurrent(t *testing.T) {
	a, sigma := fieldEvalFixture(t, soil.NewTwoLayer(0.005, 0.016, 1.0), grid.Linear)
	if a.Evaluator() != a.Evaluator() {
		t.Fatal("Evaluator not cached")
	}
	pts := fieldEvalPoints()
	out := make([]float64, len(pts))
	a.Evaluator().PotentialBatch(pts, sigma, 1, out, BatchOptions{Workers: 8})
	for i, v := range out {
		if math.IsNaN(v) {
			t.Fatalf("NaN at point %d", i)
		}
	}
}

// builtPlanBytes is the resident size of a built plan, from its slice
// capacities.
func builtPlanBytes(p *evalPlan) int64 {
	return int64(unsafe.Sizeof(*p)) +
		int64(cap(p.elems))*int64(unsafe.Sizeof(planElem{})) +
		4*int64(cap(p.byElem)+cap(p.quadElems)+cap(p.grpOff)+cap(p.foldOff)) +
		int64(cap(p.imgs)+cap(p.fold))*int64(unsafe.Sizeof(planImage{}))
}

// TestPlanLaddersShared pins the ladder sharing of buildPlan: on Balaidos
// under soil C the 241 elements need just three ladders (grid conductors,
// and the rod pieces above and below the interface), and every element's
// shared ladder holds exactly the images its own reflection produces.
func TestPlanLaddersShared(t *testing.T) {
	model := soil.NewTwoLayer(0.0025, 0.020, 1.0)
	m := balaidosFixtureMesh(t, 1.0, 1)
	a, err := New(m, model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for obs := 1; obs <= model.NumLayers(); obs++ {
		if n := len(a.planShapeOf(obs, a.layerSeries(obs)).firsts); n != 3 {
			t.Errorf("observation layer %d: %d ladders, want 3", obs, n)
		}
		p := a.Evaluator().plan(obs)
		series := a.layerSeries(obs)
		for e := range m.Elements {
			el := &m.Elements[e]
			pe := &p.elems[p.byElem[e]]
			groups := series[a.elemLayer[e]-1]
			if int(pe.grpHi-pe.grpLo) != len(groups) {
				t.Fatalf("element %d: %d groups in its ladder, want %d", e, pe.grpHi-pe.grpLo, len(groups))
			}
			for g, grp := range groups {
				got := p.imgs[p.grpOff[pe.grpLo+int32(g)]:p.grpOff[pe.grpLo+int32(g)+1]]
				if len(got) != len(grp) {
					t.Fatalf("element %d group %d: %d images, want %d", e, g, len(got), len(grp))
				}
				for i, im := range grp {
					want := planImage{az: im.Sign*el.Seg.A.Z + im.Offset, sz: im.Sign * el.Seg.Dir().Z, w: im.Weight}
					if got[i] != want {
						t.Fatalf("element %d group %d image %d: shared %+v, own %+v", e, g, i, got[i], want)
					}
				}
			}
		}
	}
}

// TestSurfaceFoldPairsMirrors checks the folded surface copy of every
// observation-layer-1 plan against its unfolded ladders: walking each group
// in order, every folded image is either an unpaired image unchanged or, at
// weight 2w, the first of a pair whose partner later in the group is
// bitwise its mirror (−az, −sz, w). Surface ladders of these soils pair
// every image off, halving them, except the group-0 pair of a source at
// z = 0 (+0 and −1·0 + 0 = +0 are not bitwise mirrors); and the shape
// predicted the exact size.
func TestSurfaceFoldPairsMirrors(t *testing.T) {
	for name, model := range flatFixtureModels(t) {
		for _, kind := range []grid.ElementKind{grid.Linear, grid.Constant} {
			a, _ := fieldEvalFixtureRod(t, model, kind, true)
			p := a.Evaluator().plan(1)
			if len(p.foldOff) != len(p.grpOff) {
				t.Fatalf("%s/%v: %d folded groups, want %d", name, kind, len(p.foldOff)-1, len(p.grpOff)-1)
			}
			if n := a.planShapeOf(1, a.layerSeries(1)).folded; n != len(p.fold) {
				t.Errorf("%s/%v: shape predicts %d folded images, plan holds %d", name, kind, n, len(p.fold))
			}
			first := map[int32]bool{} // the group 0 of every ladder
			for _, pe := range p.elems {
				first[pe.grpLo] = true
			}
			for g := 0; g+1 < len(p.grpOff); g++ {
				imgs := p.imgs[p.grpOff[g]:p.grpOff[g+1]]
				fold := p.fold[p.foldOff[g]:p.foldOff[g+1]]
				if err := checkFold(imgs, fold); err != "" {
					t.Fatalf("%s/%v group %d: %s", name, kind, g, err)
				}
				want := len(imgs) / 2
				if first[int32(g)] && imgs[0].az == 0 { // the source is at z = 0
					want = len(imgs)
				}
				if len(fold) != want {
					t.Errorf("%s/%v group %d: %d images folded to %d, want %d", name, kind, g, len(imgs), len(fold), want)
				}
			}
			if a.Evaluator().plan(a.model.NumLayers()).fold != nil && a.model.NumLayers() > 1 {
				t.Errorf("%s/%v: a deeper observation layer carries a folded copy", name, kind)
			}
		}
	}
}

// checkFold replays the fold of one group and returns what is wrong with it.
func checkFold(imgs, fold []planImage) string {
	bits := math.Float64bits
	taken := make([]bool, len(imgs))
	k := 0
	for i, im := range imgs {
		if taken[i] {
			continue
		}
		if k == len(fold) {
			return "folded group ends early"
		}
		f := fold[k]
		k++
		if bits(f.az) != bits(im.az) || bits(f.sz) != bits(im.sz) {
			return fmt.Sprintf("folded image %d %+v is not image %d %+v", k-1, f, i, im)
		}
		if bits(f.w) == bits(im.w) {
			continue // unpaired
		}
		if f.w != 2*im.w {
			return fmt.Sprintf("folded image %d weight %v, want %v or %v", k-1, f.w, im.w, 2*im.w)
		}
		partner := -1
		for j := i + 1; j < len(imgs) && partner < 0; j++ {
			m := imgs[j]
			if !taken[j] && bits(m.az) == bits(-im.az) && bits(m.sz) == bits(-im.sz) && bits(m.w) == bits(im.w) {
				partner = j
			}
		}
		if partner < 0 {
			return fmt.Sprintf("image %d %+v folded without a bitwise mirror", i, im)
		}
		taken[partner] = true
	}
	if k != len(fold) {
		return fmt.Sprintf("%d folded images, replay produced %d", len(fold), k)
	}
	return ""
}

// TestFootprintCountsPlans pins that Footprint bounds the plans and the
// far-pair tables from above whether or not they have been built: it is the
// same before and after the lazy builds, and at least the geometry plus the
// built plans' and tables' bytes. The small fixture grid is narrower than
// the far path's minimum distance, so an interconnected grid, whose tables
// do get built, rides along.
func TestFootprintCountsPlans(t *testing.T) {
	fixtures := map[string]*Assembler{}
	for name, model := range flatFixtureModels(t) {
		fixtures[name], _ = fieldEvalFixture(t, model, grid.Linear)
	}
	inter, err := grid.Discretize(grid.Interconnected(300, 2).SplitAtDepths(1.0), grid.Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fixtures["interconnected"], err = New(inter, soil.NewTwoLayer(0.0025, 0.020, 1.0), Options{}); err != nil {
		t.Fatal(err)
	}
	for name, a := range fixtures {
		model := a.model
		before := a.Footprint()
		built := a.Geometry.Footprint()
		for obs := 1; obs <= model.NumLayers(); obs++ {
			built += builtPlanBytes(a.Evaluator().plan(obs))
		}
		far := buildAllFarTables(a)
		built += far
		if name == "interconnected" && len(a.far().classes) == 0 {
			t.Errorf("%s: no far-pair tables to count", name)
		}
		if after := a.Footprint(); after != before {
			t.Errorf("%s: Footprint %d before the plans and tables were built, %d after", name, before, after)
		}
		if before < built {
			t.Errorf("%s: Footprint %d < geometry + built plans and far tables %d", name, before, built)
		}
	}
}

// buildAllFarTables builds every far-pair table whose source class has a
// ladder in the observation layer and returns the bytes the far state then
// holds.
func buildAllFarTables(a *Assembler) int64 {
	ff := a.far()
	n := int64(unsafe.Sizeof(*ff)) + 4*int64(cap(ff.class)) +
		int64(unsafe.Sizeof(farClass{}))*int64(cap(ff.classes)) +
		int64(unsafe.Sizeof(lazyFarTable{}))*int64(cap(ff.tables))
	for obs := range ff.classes {
		p := a.Evaluator().plan(a.model.LayerOf(ff.classes[obs].z))
		for src := range ff.classes {
			for e, c := range ff.class {
				if int(c) != src || p.byElem[e] < 0 {
					continue
				}
				pe := &p.elems[p.byElem[e]]
				tab := ff.table(int32(obs), int32(src), p.imgs[p.grpOff[pe.grpLo]:p.grpOff[pe.grpHi]])
				n += int64(unsafe.Sizeof(*tab)) + 8*int64(cap(tab.fd)) +
					int64(unsafe.Sizeof(nearImage{}))*int64(cap(tab.near))
				break
			}
		}
	}
	return n
}

func benchFixture(b *testing.B) (*Assembler, []float64, []geom.Vec3) {
	m, err := grid.BarberaMesh()
	if err != nil {
		b.Fatal(err)
	}
	a, err := New(m, soil.NewTwoLayer(0.005, 0.016, 1.0), Options{})
	if err != nil {
		b.Fatal(err)
	}
	sigma := make([]float64, m.NumDoF)
	for i := range sigma {
		sigma[i] = 0.5 + 0.03*float64(i%17)
	}
	var pts []geom.Vec3
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			pts = append(pts, geom.V(-10+float64(i)*10, -10+float64(j)*9, 0))
		}
	}
	return a, sigma, pts
}

// BenchmarkPotentialBatch measures the batched engine on benchFixture's
// surface points (ns/op is ns/point; must report 0 allocs/op).
func BenchmarkPotentialBatch(b *testing.B) {
	a, sigma, pts := benchFixture(b)
	fe := a.Evaluator()
	fe.PotentialAt(pts[0], sigma) // plan build outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fe.PotentialAt(pts[i%len(pts)], sigma)
	}
}

// BenchmarkGradBatch is the gradient counterpart of BenchmarkPotentialBatch.
func BenchmarkGradBatch(b *testing.B) {
	a, sigma, pts := benchFixture(b)
	fe := a.Evaluator()
	fe.GradientAt(pts[0], sigma)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fe.GradientAt(pts[i%len(pts)], sigma)
	}
}

// FuzzSurfacePotential draws two-layer soils, a small grid with a rod
// (which may cross the interface) and a point on z = 0, and checks both the
// folded and the unfolded ladders against the Potential oracle to 1e-10
// relative to max(1, |V|), for linear elements.
func FuzzSurfacePotential(f *testing.F) {
	f.Add(0.005, 0.016, 1.0, 0.8, 10.0, 10.0)
	f.Add(0.0025, 0.020, 1.0, 0.5, 0.0, 5.0)  // above a conductor, κ ≈ +0.78
	f.Add(0.05, 0.0005, 2.0, 1.5, 5.0, 5.0)   // above the rod top, κ ≈ −0.98
	f.Add(0.01, 0.01, 0.7, 0.3, -12.0, 25.0)  // uniform, outside the grid
	f.Add(0.001, 0.1, 0.25, 0.6, 20.0, 0.003) // rod reaching far into layer 2
	f.Fuzz(func(t *testing.T, g1, g2, h, depth, x, y float64) {
		for _, v := range []float64{g1, g2, h, depth, x, y} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		fold := func(v, lo, hi float64) float64 { return lo + math.Mod(math.Abs(v), hi-lo) }
		g1, g2 = fold(g1, 1e-3, 0.1), fold(g2, 1e-3, 0.1)
		h = fold(h, 0.2, 5)
		depth = fold(depth, 0.2, 2)
		x, y = fold(x, -15, 25), fold(y, -15, 25)

		g := grid.RectMesh(0, 0, 10, 10, 2, 2, depth, 0.006)
		g.AddRod(5, 5, depth, 3, 0.007)
		m, err := grid.Discretize(g.SplitAtDepths(h), grid.Linear, 0)
		if err != nil {
			return
		}
		a, err := New(m, soil.NewTwoLayer(g1, g2, h), Options{})
		if err != nil {
			t.Fatal(err)
		}
		sigma := make([]float64, m.NumDoF)
		for i := range sigma {
			sigma[i] = 0.5 + 0.03*float64(i%17)
		}
		p := geom.V(x, y, 0)
		want := a.Potential(p, sigma)
		fe := a.Evaluator()
		for _, folded := range []bool{true, false} {
			got := fe.potential(p, sigma, folded)
			if d := math.Abs(got - want); d > 1e-10*math.Max(1, math.Abs(want)) {
				t.Errorf("γ=(%g, %g) h=%g depth=%g V(%v) folded=%v: %v vs oracle %v (Δ=%g)",
					g1, g2, h, depth, p, folded, got, want, d)
			}
		}
	})
}
