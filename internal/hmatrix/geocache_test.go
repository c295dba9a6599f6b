package hmatrix

import (
	"context"
	"math"
	"testing"

	"earthing/internal/bem"
	"earthing/internal/grid"
	"earthing/internal/soil"
)

// TestGeoCacheMatchesExactBuild compares a default build (geometric pair
// cache enabled) against an ExactGeometry build of the same system: the
// cached build's product must stay within the documented canonicalization
// budget of the exact one — far below the ε = 1e-6 block tolerance — and the
// compressed Req must move by an amount negligible against the 10·ε
// engineering budget.
func TestGeoCacheMatchesExactBuild(t *testing.T) {
	g := grid.Interconnected(300, 2)
	s := buildSystem(t, g, soil.NewTwoLayer(0.0025, 0.020, 1.0), 0)

	exact, err := Build(context.Background(), s.asm, Params{Eps: 1e-6, Workers: 2, ExactGeometry: true})
	if err != nil {
		t.Fatal(err)
	}
	cached, err := Build(context.Background(), s.asm, Params{Eps: 1e-6, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	if got := matvecRelErr(t, cached, s.dense, 17); got > 50e-6 {
		t.Errorf("cached build matvec error %.3g vs dense; budget 50·ε", got)
	}
	reqExact := reqCompressed(t, s, exact)
	reqCached := reqCompressed(t, s, cached)
	if rel := math.Abs(reqCached-reqExact) / reqExact; rel > 1e-7 {
		t.Errorf("geometric cache moved Req by %.3g relative (exact %.8g, cached %.8g)",
			rel, reqExact, reqCached)
	}
}

// TestGeoCacheDisabledBelowEps pins the gating contract: a build tighter than
// ε = 1e-7 must not enable the cache (its ≲ 1e-9 perturbation would eat the
// error budget), and neither must ExactGeometry, so both configurations
// reproduce the dense matrix bit-for-bit on an all-near-field partition.
func TestGeoCacheDisabledBelowEps(t *testing.T) {
	g := grid.RectMesh(0, 0, 10, 10, 3, 3, 0.5, 0.01)
	s := buildSystem(t, g, soil.NewUniform(0.02), 3)
	for _, p := range []Params{
		{Eps: 1e-8, Eta: 1e-9, LeafSize: 8, Workers: 2},
		{Eps: 1e-6, Eta: 1e-9, LeafSize: 8, Workers: 2, ExactGeometry: true},
	} {
		h, err := Build(context.Background(), s.asm, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := matvecRelErr(t, h, s.dense, 9); got > 1e-12 {
			t.Errorf("Eps=%g ExactGeometry=%v: all-dense build differs from dense matrix by %.3g",
				p.Eps, p.ExactGeometry, got)
		}
		if st := h.Stats(); st.FarPairs != 0 || st.GeoHits != 0 {
			t.Errorf("Eps=%g ExactGeometry=%v: %d far pairs and %d geometric cache hits, want none",
				p.Eps, p.ExactGeometry, st.FarPairs, st.GeoHits)
		}
	}
}

// TestBuildStatsPairCounters pins the pair counters of a default build: the
// far path serves pairs, and the far count and the cache-plus-kernel count
// do not depend on the worker count (only the split between cache hits and
// kernel calls does, since each worker keeps its own cache). The 4-worker
// build also has its workers race for the lazily built far tables, which
// the -race run of this package checks.
func TestBuildStatsPairCounters(t *testing.T) {
	m, err := grid.Discretize(grid.Interconnected(300, 2).SplitAtDepths(1.0), grid.Linear, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ref BuildStats
	for _, workers := range []int{1, 4} {
		asm, err := bem.New(m, soil.NewTwoLayer(0.0025, 0.020, 1.0), bem.Options{})
		if err != nil {
			t.Fatal(err)
		}
		h, err := Build(context.Background(), asm, Params{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		st := h.Stats()
		if st.FarPairs <= 0 || st.KernelPairs <= 0 {
			t.Fatalf("workers=%d: far %d, cache %d, kernel %d pairs; want far and kernel pairs",
				workers, st.FarPairs, st.GeoHits, st.KernelPairs)
		}
		if workers == 1 {
			ref = st
			continue
		}
		if st.FarPairs != ref.FarPairs || st.GeoHits+st.KernelPairs != ref.GeoHits+ref.KernelPairs {
			t.Errorf("workers=%d: far %d, cache+kernel %d; 1 worker: far %d, cache+kernel %d",
				workers, st.FarPairs, st.GeoHits+st.KernelPairs, ref.FarPairs, ref.GeoHits+ref.KernelPairs)
		}
	}
}
