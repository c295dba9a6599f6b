package bem

import (
	"context"
	"math"
	"testing"

	"earthing/internal/linalg"
	"earthing/internal/soil"
)

// The reference image-series kernel: every image-reflected segment is
// re-derived (im.ApplySegment) and integrated through the closed-form asinh
// inner integrals of shapeIntegrals. It is the oracle the flat kernel is
// pinned against (flatkernel_test.go); production assembly runs the flat
// kernel only.

// referenceMatrix assembles the Galerkin matrix of a through the reference
// kernel, on the same pair loop, series truncation and scatter order as
// MatrixCtx's StoreThenAssemble path.
func referenceMatrix(t testing.TB, a *Assembler) *linalg.SymMatrix {
	t.Helper()
	k := a.k
	series := make([][][][]soil.Image, a.model.NumLayers()) // [obs−1][src−1]
	for obs := range series {
		series[obs] = a.layerSeries(obs + 1)
	}
	store := make([]float64, a.StoreSize())
	if _, err := a.runPairLoop(context.Background(), func(beta, alpha int, s *pairScratch) {
		idx := (beta*(beta+1)/2 + alpha) * k * k
		a.pairMatrixReference(beta, alpha, series[a.elemLayer[beta]-1][a.elemLayer[alpha]-1], store[idx:idx+k*k], s)
	}); err != nil {
		t.Fatal(err)
	}
	return a.AssembleStore(store)
}

// pairMatrixReference is pairMatrix with the reference kernel in place of
// the flat one; groups is the source layer's grouped expansion in the
// observation layer, nil without one.
func (a *Assembler) pairMatrixReference(beta, alpha int, groups [][]soil.Image, out []float64, s *pairScratch) {
	for i := range out {
		out[i] = 0
	}
	if groups != nil {
		a.pairMatrixImages(beta, alpha, groups, out, s)
	} else {
		a.pairMatrixQuadrature(beta, alpha, out, s)
	}
}

func (a *Assembler) pairMatrixImages(beta, alpha int, groups [][]soil.Image, out []float64, s *pairScratch) {
	k := a.k
	elA := &a.mesh.Elements[alpha]
	elB := &a.mesh.Elements[beta]
	srcLayer := a.elemLayer[alpha]
	pref := 1 / (4 * math.Pi * a.model.Conductivity(srcLayer))
	lenB := elB.Seg.Length()

	// Near pairs (self, touching, adjacent) get the refined outer rule: the
	// inner analytic integral varies sharply along the test element there.
	gpPos, gpW, gpShape := a.gpPos[beta], a.gpW, a.gpShape
	if beta == alpha ||
		elB.Seg.DistToSegment(elA.Seg) < 0.5*(lenB+elA.Seg.Length()) {
		gpPos, gpW, gpShape = a.gpPosN[beta], a.gpWN, a.gpShapeN
	}

	maxAccum := 0.0
	smallGroups := 0
	for _, grp := range groups {
		for i := range s.group {
			s.group[i] = 0
		}
		for _, im := range grp {
			segI := im.ApplySegment(elA.Seg)
			for g, chi := range gpPos {
				shapeIntegrals(chi, segI.A, segI.B, elA.Radius, a.linear, s.inner)
				wg := gpW[g] * lenB * im.Weight
				for j := 0; j < k; j++ {
					wj := wg * gpShape[g][j]
					for i := 0; i < k; i++ {
						s.group[j*k+i] += wj * s.inner[i]
					}
				}
			}
		}
		gmax := 0.0
		for i, v := range s.group {
			out[i] += v
			if av := math.Abs(v); av > gmax {
				gmax = av
			}
			if av := math.Abs(out[i]); av > maxAccum {
				maxAccum = av
			}
		}
		if gmax <= a.opt.SeriesTol*maxAccum {
			smallGroups++
			if smallGroups >= 2 {
				break
			}
		} else {
			smallGroups = 0
		}
	}
	for i := range out {
		out[i] *= pref
	}
}
