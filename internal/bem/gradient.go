package bem

import (
	"math"

	"earthing/internal/geom"
)

// elementGradByDifferences is the finite-difference fallback for one
// element's contribution when its layer pair has no image expansion
// (Hankel-based kernels).
func (a *Assembler) elementGradByDifferences(e int, x geom.Vec3, sigma []float64) geom.Vec3 {
	const h = 1e-4
	v := func(p geom.Vec3) float64 { return a.elementPotentialQuadrature(e, p, sigma) }
	dx := (v(x.Add(geom.V(h, 0, 0))) - v(x.Add(geom.V(-h, 0, 0)))) / (2 * h)
	dy := (v(x.Add(geom.V(0, h, 0))) - v(x.Add(geom.V(0, -h, 0)))) / (2 * h)
	var dz float64
	if x.Z > h {
		dz = (v(x.Add(geom.V(0, 0, h))) - v(x.Add(geom.V(0, 0, -h)))) / (2 * h)
	} else {
		// One-sided at the surface to stay in the ground.
		dz = (v(x.Add(geom.V(0, 0, h))) - v(x)) / h
	}
	return geom.V(dx, dy, dz)
}

// ElectricField returns E = −∇V at x in V/m per unit GPR.
func (a *Assembler) ElectricField(x geom.Vec3, sigma []float64) geom.Vec3 {
	return a.Evaluator().GradientAt(x, sigma).Scale(-1)
}

// CurrentDensity returns the conduction current density σ = −γ·∇V (A/m²
// per unit GPR) at a point strictly inside the ground, using the
// conductivity of the layer containing x (eq. 2.1).
func (a *Assembler) CurrentDensity(x geom.Vec3, sigma []float64) geom.Vec3 {
	gamma := a.model.Conductivity(a.model.LayerOf(math.Max(x.Z, 0)))
	return a.Evaluator().GradientAt(x, sigma).Scale(-gamma)
}
