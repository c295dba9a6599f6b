package bem

import (
	"math"
	"testing"

	"earthing/internal/grid"
	"earthing/internal/soil"
)

// TestPairGeomKeyCanonicalizes pins the two contracts of the geometric pair
// signature on a uniform lattice: congruent pairs (lattice translates) share
// one key, and every pair sharing a key yields a bitwise-identical elemental
// matrix through PairMatrixQuant — the property the H-matrix geometric cache
// relies on for schedule-independent reuse. It also bounds the quantization
// perturbation: PairMatrixQuant must agree with PairMatrix to well under the
// 1e-9 relative budget the cache documents.
func TestPairGeomKeyCanonicalizes(t *testing.T) {
	g := grid.RectMesh(0, 0, 12, 12, 4, 4, 0.6, 0.01)
	m, err := grid.Discretize(g, grid.Linear, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	asm, err := New(m, soil.NewTwoLayer(0.02, 0.005, 2.0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs := asm.NewColumnScratch()
	k := m.DoFCount()
	kk := k * k

	type rep struct {
		beta, alpha int
		mat         []float64
	}
	byKey := make(map[string]rep)
	shared, pairs := 0, 0
	worstRel := 0.0
	exact := make([]float64, kk)
	quant := make([]float64, kk)
	var buf []byte
	n := len(m.Elements)
	for beta := 0; beta < n; beta++ {
		for alpha := 0; alpha <= beta; alpha++ {
			var ok bool
			buf, ok = asm.AppendPairGeomKey(beta, alpha, buf[:0])
			if !ok {
				t.Fatalf("pair (%d,%d): key unsupported on a two-layer flat-kernel assembler", beta, alpha)
			}
			pairs++
			asm.PairMatrixQuant(beta, alpha, quant, cs)

			// Quantized vs exact evaluation: the canonicalization budget.
			asm.PairMatrix(beta, alpha, exact, cs)
			for i := range exact {
				if d := math.Abs(quant[i] - exact[i]); exact[i] != 0 {
					if rel := d / math.Abs(exact[i]); rel > worstRel {
						worstRel = rel
					}
				}
			}

			if prev, seen := byKey[string(buf)]; seen {
				shared++
				for i := range quant {
					if quant[i] != prev.mat[i] {
						t.Fatalf("pairs (%d,%d) and (%d,%d) share a signature but differ at entry %d: %x vs %x",
							beta, alpha, prev.beta, prev.alpha, i, quant[i], prev.mat[i])
					}
				}
			} else {
				byKey[string(buf)] = rep{beta, alpha, append([]float64(nil), quant...)}
			}
		}
	}
	if shared == 0 {
		t.Fatalf("uniform %d-element lattice produced no shared signatures across %d pairs", n, pairs)
	}
	if worstRel > 1e-9 {
		t.Errorf("quantized evaluation perturbs entries by %.3g relative; budget 1e-9", worstRel)
	}
	t.Logf("%d pairs, %d unique signatures (%d shared), worst quantization error %.3g",
		pairs, len(byKey), shared, worstRel)
}

// TestPairGeomKeyUnsupported checks the refusal path: a layer pair without
// an image expansion (the quadrature fallback in a 3-layer model) cannot be
// keyed.
func TestPairGeomKeyUnsupported(t *testing.T) {
	three, err := soil.NewMultiLayer([]float64{0.02, 0.008, 0.03}, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// A MultiLayer model only carries an image expansion for (src, obs) =
	// (1, 1), so rods buried inside layer 2 (z ∈ [2, 5]) force the
	// quadrature fallback for every pair touching them.
	deep := &grid.Grid{}
	for i := 0; i < 3; i++ {
		deep.AddRod(float64(i)*2, 0, 0.5, 1.0, 0.01) // layer 1
		deep.AddRod(float64(i)*2, 3, 2.5, 2.0, 0.01) // layer 2
	}
	dm, err := grid.Discretize(deep, grid.Linear, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	asm, err := New(dm, three, Options{})
	if err != nil {
		t.Fatal(err)
	}
	anyUnsupported := false
	var buf []byte
	for beta := range dm.Elements {
		for alpha := 0; alpha <= beta; alpha++ {
			if _, ok := asm.AppendPairGeomKey(beta, alpha, buf[:0]); !ok {
				anyUnsupported = true
			}
		}
	}
	if !anyUnsupported {
		t.Error("3-layer model keyed every pair; expected quadrature-fallback refusals")
	}
}
