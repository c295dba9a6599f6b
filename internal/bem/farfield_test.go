package bem

import (
	"math"
	"math/rand"
	"testing"

	"earthing/internal/geom"
	"earthing/internal/grid"
	"earthing/internal/quad"
	"earthing/internal/soil"
)

// farSoil is a contract soil and the depth the meshes are split at.
type farSoil struct {
	model soil.Model
	h     float64
}

// farSoils returns the accuracy-contract soils of the far-pair path: uniform,
// the paper's soil C (κ ≈ −0.78), its mirror (κ ≈ +0.78) and a near-limit
// contrast (κ ≈ −0.98) whose default ladder is truncated.
func farSoils() map[string]farSoil {
	return map[string]farSoil{
		"uniform":    {soil.NewUniform(0.01), 1.0},
		"kappa-0.78": {soil.NewTwoLayer(0.0025, 0.020, 1.0), 1.0},
		"kappa+0.78": {soil.NewTwoLayer(0.020, 0.0025, 1.0), 1.0},
		"kappa-0.98": {soil.NewTwoLayer(0.0005, 0.05, 2.0), 2.0},
	}
}

// farMeshes returns the contract meshes split at the soil interface: an
// interconnected multi-substation grid and the paper's Balaidos mesh, the
// latter also with constant elements.
func farMeshes(t testing.TB, h float64) map[string]*grid.Mesh {
	t.Helper()
	inter, err := grid.Discretize(grid.Interconnected(600, 3).SplitAtDepths(h), grid.Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	meshes := map[string]*grid.Mesh{"interconnected": inter}
	for name, kind := range map[string]grid.ElementKind{"balaidos": grid.Linear, "balaidos-constant": grid.Constant} {
		m, err := grid.DiscretizeN(grid.Balaidos().SplitAtDepths(h), kind, func(c grid.Conductor) int {
			if c.Seg.IsVertical(1e-9) {
				return 2
			}
			return 1
		})
		if err != nil {
			t.Fatal(err)
		}
		meshes[name] = m
	}
	return meshes
}

// convergedAssembler is the far path's reference: analytic inner integral,
// 16-point outer rule on every pair and the image series summed to
// SeriesTol 1e-16 (capped at the same MaxGroups the tables sum).
func convergedAssembler(t testing.TB, m *grid.Mesh, model soil.Model) *Assembler {
	t.Helper()
	a, err := New(m, model, Options{GaussOrder: 16, NearGaussOrder: 16, SeriesTol: 1e-16})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// pairErr returns max |got − want| over the entries, relative to the
// largest |want| entry.
func pairErr(got, want []float64) float64 {
	var num, den float64
	for i := range want {
		num = math.Max(num, math.Abs(got[i]-want[i]))
		den = math.Max(den, math.Abs(want[i]))
	}
	return num / den
}

// TestPairMatrixFarMatchesConverged is the far path's accuracy contract:
// on random eligible pairs of an interconnected grid and of Balaidos, in
// four soils, every elemental matrix is within 3e-9 of the converged
// reference and within 1e-8 of the flat kernel (PairMatrix), both relative
// to the pair's largest entry. The flat kernel runs with its series
// converged (SeriesTol 1e-16): at the default 1e-7 its per-pair series stop
// alone moves far entries by up to 3e-7. At κ ≈ −0.98 the flat kernel's
// Gauss-4 outer rule is itself 3.5e-8 off the reference on these pairs, so
// the comparison with it gets a 5e-8 budget there.
func TestPairMatrixFarMatchesConverged(t *testing.T) {
	const samples = 150
	for sname, fs := range farSoils() {
		model := fs.model
		flatBudget := 1e-8
		if sname == "kappa-0.98" {
			flatBudget = 5e-8
		}
		for mname, m := range farMeshes(t, fs.h) {
			a, err := New(m, model, Options{SeriesTol: 1e-16})
			if err != nil {
				t.Fatal(err)
			}
			ref := convergedAssembler(t, m, model)
			cs, rcs := a.NewColumnScratch(), ref.NewColumnScratch()
			kk := a.k * a.k
			far, want, flat := make([]float64, kk), make([]float64, kk), make([]float64, kk)
			rng := rand.New(rand.NewSource(7))
			n := len(m.Elements)
			var found int
			var worstRef, worstFlat float64
			for try := 0; try < 200*samples && found < samples; try++ {
				beta, alpha := rng.Intn(n), rng.Intn(n)
				if !a.PairMatrixFar(beta, alpha, far) {
					continue
				}
				found++
				ref.PairMatrix(beta, alpha, want, rcs)
				a.PairMatrix(beta, alpha, flat, cs)
				worstRef = math.Max(worstRef, pairErr(far, want))
				worstFlat = math.Max(worstFlat, pairErr(far, flat))
			}
			if found < samples {
				t.Fatalf("%s/%s: only %d eligible far pairs in the sample", sname, mname, found)
			}
			t.Logf("%s/%s: %d pairs, vs converged %.2e, vs PairMatrix %.2e", sname, mname, found, worstRef, worstFlat)
			if worstRef > 3e-9 {
				t.Errorf("%s/%s: far path off the converged reference by %.3g (budget 3e-9)", sname, mname, worstRef)
			}
			if worstFlat > flatBudget {
				t.Errorf("%s/%s: far path off PairMatrix by %.3g (budget %g)", sname, mname, worstFlat, flatBudget)
			}
		}
	}
}

// clampKink reports whether the observation element beta passes partly
// inside the thin-wire clamp cylinder (ρ < radius) of one of alpha's images.
// The clamped kernel then has a kink inside beta, where no fixed-order rule
// converges: 14- to 24-point references scatter by up to 1e-8 on such
// pairs, so none of them can serve as the reference. Pairs fully inside
// the cylinder (collinear conductors) or fully outside it are smooth.
func clampKink(a *Assembler, beta, alpha int) bool {
	elA, elB := &a.mesh.Elements[alpha], &a.mesh.Elements[beta]
	d := elA.Seg.Dir()
	// Signed horizontal distance of beta's end points from alpha's axis;
	// it is linear along beta.
	cross := func(x, y float64) float64 { return d.X*(y-elA.Seg.A.Y) - d.Y*(x-elA.Seg.A.X) }
	s0, s1 := cross(elB.Seg.A.X, elB.Seg.A.Y), cross(elB.Seg.B.X, elB.Seg.B.Y)
	lo, hi := math.Min(math.Abs(s0), math.Abs(s1)), math.Max(math.Abs(s0), math.Abs(s1))
	if s0*s1 < 0 {
		lo = 0
	}
	r2 := elA.Radius * elA.Radius
	series := a.layerSeries(a.elemLayer[beta])[a.elemLayer[alpha]-1]
	for _, grp := range series {
		for _, im := range grp {
			dz := elB.Seg.A.Z - (im.Sign*elA.Seg.A.Z + im.Offset)
			if lo*lo+dz*dz < r2 && hi*hi+dz*dz >= r2 {
				return true
			}
		}
	}
	return false
}

// directReference integrates the elemental matrix of a horizontal pair with
// a 16 × 16 Gauss rule over both elements on the directly summed image
// series: every image of all MaxGroups groups, compensated, with the
// thin-wire clamp ρ² ≥ radius² per point pair. For far pairs it converges
// to rounding, and unlike the analytic inner integral it does not cancel at
// large separations, where the source moment i1 = (r1 − r0 + p·i0)/l loses
// digits (6.6e-9 off at 420 source lengths, against 2e-14 here).
func directReference(a *Assembler, beta, alpha int, out []float64) {
	elA, elB := &a.mesh.Elements[alpha], &a.mesh.Elements[beta]
	d := elA.Seg.Dir()
	lenA, lenB := elA.Seg.Length(), elB.Seg.Length()
	r2min := elA.Radius * elA.Radius
	series := a.layerSeries(a.elemLayer[beta])[a.elemLayer[alpha]-1]
	rule := quad.GaussLegendre(16)
	var acc [4]quad.KahanSum
	for gi, xg := range rule.X {
		tg, wg := 0.5*(xg+1), 0.5*rule.W[gi]
		ob := elB.Seg.Point(tg)
		dx, dy := ob.X-elA.Seg.A.X, ob.Y-elA.Seg.A.Y
		pp := dx*d.X + dy*d.Y
		perp2 := dx*dx + dy*dy - pp*pp
		for hi, xh := range rule.X {
			th, wh := 0.5*(xh+1), 0.5*rule.W[hi]
			ax := pp - th*lenA
			var g quad.KahanSum
			for _, grp := range series {
				for _, im := range grp {
					dz := ob.Z - (im.Sign*elA.Seg.A.Z + im.Offset)
					rho2 := math.Max(perp2+dz*dz, r2min)
					g.Add(im.Weight / math.Sqrt(rho2+ax*ax))
				}
			}
			v := g.Sum() * wg * wh
			if a.linear {
				acc[0].Add(v * (1 - tg) * (1 - th))
				acc[1].Add(v * (1 - tg) * th)
				acc[2].Add(v * tg * (1 - th))
				acc[3].Add(v * tg * th)
			} else {
				acc[0].Add(v)
			}
		}
	}
	scale := lenA * lenB / (4 * math.Pi * a.model.Conductivity(a.elemLayer[alpha]))
	for i := range out {
		out[i] = scale * acc[i].Sum()
	}
}

// FuzzPairMatrixFar checks the far path on random horizontal element pairs:
// lengths, separation, directions, the two burial depths, the conductor
// radius and the two-layer soil are all drawn from the inputs. Every ordered
// pair the far path accepts must be within the contract's 3e-9 of the
// converged direct reference (directReference), except pairs with a clamp
// kink (clampKink), which have no converged reference.
func FuzzPairMatrixFar(f *testing.F) {
	f.Add(4.0, 2.0, 3.5, 0.3, 1.2, 0.8, 0.8, 0.006, 0.0025, 0.020, 1.0)
	f.Add(10.0, 10.0, 3.0, 0.0, 0.0, 0.5, 0.5, 0.006, 0.020, 0.0025, 1.0) // collinear, κ ≈ +0.78
	f.Add(1.0, 5.0, 8.0, 1.57, 2.0, 0.6, 2.6, 0.01, 0.0005, 0.05, 2.0)    // across the interface, κ ≈ −0.98
	f.Add(3.0, 3.0, 20.0, 2.5, 0.7, 1.0, 1.0, 0.004, 0.01, 0.01, 1.0)     // uniform
	f.Fuzz(func(t *testing.T, lenA, lenB, sep, angA, angB, zA, zB, radius, g1, g2, h float64) {
		for _, v := range []float64{lenA, lenB, sep, angA, angB, zA, zB, radius, g1, g2, h} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		// Fold every input into a physical range.
		fold := func(v, lo, hi float64) float64 { return lo + math.Mod(math.Abs(v), hi-lo) }
		lenA, lenB = fold(lenA, 0.5, 20), fold(lenB, 0.5, 20)
		zA, zB = fold(zA, 0.2, 4), fold(zB, 0.2, 4)
		radius = fold(radius, 0.002, 0.02)
		g1, g2 = fold(g1, 1e-4, 0.1), fold(g2, 1e-4, 0.1)
		h = fold(h, 0.2, 5)
		dist := fold(sep, 3, 40) * math.Max(lenA, lenB)
		dirA := geom.V(math.Cos(angA), math.Sin(angA), 0)
		dirB := geom.V(math.Cos(angB), math.Sin(angB), 0)
		a0 := geom.V(0, 0, zA)
		// Start B beyond A's end along A's direction, so the pair is at
		// least dist apart horizontally whatever B's direction.
		b0 := a0.Add(dirA.Scale(lenA + dist + lenB))
		b0.Z = zB

		g := &grid.Grid{}
		g.AddConductor(a0, a0.Add(dirA.Scale(lenA)), radius)
		g.AddConductor(b0, b0.Add(dirB.Scale(lenB)), radius)
		model := soil.NewTwoLayer(g1, g2, h)
		m, err := grid.Discretize(g.SplitAtDepths(h), grid.Linear, 0)
		if err != nil || len(m.Elements) != 2 {
			return
		}
		a, err := New(m, model, Options{})
		if err != nil {
			t.Fatal(err)
		}
		kk := a.k * a.k
		far, want := make([]float64, kk), make([]float64, kk)
		for _, p := range [][2]int{{0, 1}, {1, 0}} {
			if !a.PairMatrixFar(p[0], p[1], far) || clampKink(a, p[0], p[1]) {
				continue
			}
			directReference(a, p[0], p[1], want)
			if e := pairErr(far, want); e > 3e-9 {
				t.Fatalf("pair %v (lengths %.3g, %.3g; depths %.3g, %.3g; %v): far path %.3g off the direct reference\nfar  %v\nwant %v",
					p, lenA, lenB, zA, zB, model.Describe(), e, far, want)
			}
		}
	})
}

// BenchmarkPairMatrixFar measures the far path per elemental matrix (ns/op
// is ns/pair) on eligible pairs of an interconnected grid in soil C, tables
// built.
func BenchmarkPairMatrixFar(b *testing.B) {
	model := soil.NewTwoLayer(0.0025, 0.020, 1.0)
	m := farMeshes(b, model.H)["interconnected"]
	a, err := New(m, model, Options{})
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, a.k*a.k)
	rng := rand.New(rand.NewSource(1))
	var pairs [][2]int
	for len(pairs) < 1024 {
		beta, alpha := rng.Intn(len(m.Elements)), rng.Intn(len(m.Elements))
		if a.PairMatrixFar(beta, alpha, out) {
			pairs = append(pairs, [2]int{beta, alpha})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		a.PairMatrixFar(p[0], p[1], out)
	}
}

// TestLnPos pins the table-driven logarithm of the far path's table index
// against math.Log: within 5e-16 absolute plus 4e-16 relative over the whole
// range the index can see and beyond, including every table cell boundary.
func TestLnPos(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := []float64{1, 2, 0.5, 1 + 1e-15, 2 - 1e-15, math.SmallestNonzeroFloat64 * (1 << 52), math.MaxFloat64}
	for k := 0; k <= 1<<lnTableBits; k++ {
		c := 1 + float64(k)/(1<<lnTableBits)
		xs = append(xs, c, math.Nextafter(c, 0), math.Nextafter(c, 3))
	}
	for i := 0; i < 100000; i++ {
		xs = append(xs, math.Exp(rng.Float64()*80-40))
	}
	for _, x := range xs {
		got, want := lnPos(x), math.Log(x)
		if d := math.Abs(got - want); d > 5e-16+4e-16*math.Abs(want) {
			t.Fatalf("lnPos(%.17g) = %.17g, math.Log %.17g (off by %.3g)", x, got, want, d)
		}
	}
}
