// Package soil implements the layered-earth Green's functions (integral
// kernels) of the grounding formulation: the uniform (single-layer) model,
// the two-layer model via infinite image series (eq. 3.2 of the paper), and
// a general N-layer model evaluated by numeric Hankel transforms.
//
// Conventions: z is depth, positive downwards, z = 0 on the earth surface.
// Layer 1 is the top layer. Conductivities are in (Ω·m)⁻¹, matching the
// units used in the paper's examples.
//
// All models expose the potential produced by a unit point current source;
// the BEM layer (package bem) integrates these kernels over electrode
// segments, analytically when an image expansion exists and by quadrature
// otherwise.
package soil

import "earthing/internal/geom"

// Image is one term of a method-of-images expansion. The image of a source
// point ξ = (x, y, z) is ξ' = (x, y, Sign·z + Offset), and it contributes
// Weight/r(x, ξ') to the kernel series (eq. 3.2: ψ_l / r(x, ξ_l)).
//
// Because reflections across horizontal planes are affine in z only, the
// image of a straight electrode segment is again a straight segment, which
// is what allows closed-form inner integrals in the BEM.
type Image struct {
	Sign   float64 // +1 (translation) or −1 (reflection)
	Offset float64 // added to Sign·z
	Weight float64 // series weight ψ_l
	Group  int     // series group index n (0 = primary + surface image)
}

// Apply maps a source point to this image's location.
func (im Image) Apply(p geom.Vec3) geom.Vec3 {
	return geom.Vec3{X: p.X, Y: p.Y, Z: im.Sign*p.Z + im.Offset}
}

// ApplySegment maps a source segment to its image segment.
func (im Image) ApplySegment(s geom.Segment) geom.Segment {
	return geom.Segment{A: im.Apply(s.A), B: im.Apply(s.B)}
}

// Model describes a horizontally stratified soil and its point-source
// Green's function.
type Model interface {
	// NumLayers returns the number of horizontal layers C ≥ 1.
	NumLayers() int

	// LayerOf returns the 1-based index of the layer containing depth z.
	// Points above the surface (z < 0) report layer 1; interface depths
	// belong to the upper layer.
	LayerOf(z float64) int

	// Conductivity returns γ_c of layer c (1-based) in (Ω·m)⁻¹.
	Conductivity(layer int) float64

	// ImageExpansion returns all images of groups 0..maxGroup for a source
	// in layer src observed in layer obs, listed in group order, and
	// ok = true, when the model has a closed-form image representation.
	// The kernel is then
	//
	//	V(x) = 1/(4π·γ_src) · Σ Weight_l / r(x, ξ_l)
	//
	// Models without an image form (N ≥ 3 layers) return ok = false and
	// callers must fall back to PointPotential quadrature.
	ImageExpansion(src, obs, maxGroup int) (images []Image, ok bool)

	// PointPotential returns the potential (in volts) at x produced by a
	// unit (1 A) point current source at xi. Both points must be in the
	// ground (z ≥ 0).
	PointPotential(x, xi geom.Vec3) float64

	// Describe returns a short human-readable description of the model.
	Describe() string
}

// SeriesControl bounds the truncation of infinite kernel series. The zero
// value selects the defaults below.
type SeriesControl struct {
	// Tol stops summation once a whole group contributes less than
	// Tol·|sum| for two consecutive groups. Default 1e-9.
	Tol float64
	// MaxGroups is the hard cap on series groups. Default 512.
	MaxGroups int
}

// withDefaults fills in unset fields.
func (c SeriesControl) withDefaults() SeriesControl {
	if c.Tol <= 0 {
		c.Tol = 1e-9
	}
	if c.MaxGroups <= 0 {
		c.MaxGroups = 512
	}
	return c
}
