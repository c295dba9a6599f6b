package experiments

import (
	"testing"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/grid"
)

// benchBalaidosAssembly times single-thread matrix generation of the
// Balaidos grid under one §5.2 soil case.
func benchBalaidosAssembly(b *testing.B, soilCase int) {
	b.Helper()
	c := BalaidosModels()[soilCase]
	mesh, _, err := core.BuildMesh(grid.Balaidos(), c.Model, core.Config{RodElements: c.RodElements})
	if err != nil {
		b.Fatal(err)
	}
	asm, err := bem.New(mesh, c.Model, Default().bemOptions(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := asm.Matrix(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBalaidosAssemblyB(b *testing.B) { benchBalaidosAssembly(b, 1) }
func BenchmarkBalaidosAssemblyC(b *testing.B) { benchBalaidosAssembly(b, 2) }
