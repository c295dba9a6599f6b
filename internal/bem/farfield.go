package bem

import (
	"math"
	"sync"
	"unsafe"

	"earthing/internal/geom"
	"earthing/internal/quad"
	"earthing/internal/soil"
)

// Far-pair Green's function tables. For two horizontal elements far apart
// the image sum seen by an observation point is a smooth function of the
// horizontal distance R alone: every image of a horizontal source is the
// same (x, y) segment at another depth, so
//
//	G(R) = Σ w / √(R² + dz²),   dz = z_obs − az (one term per image)
//
// depends only on (observation depth, source ladder). The far path tabulates
// F(u) = R·G(R) once per (observation class, source class) on a uniform grid
// in u = ln R and integrates the elemental matrix with a farGauss × farGauss
// Gauss tensor rule over both elements — one table lookup per point pair
// instead of the flat kernel's walk over the image ladder (about 67 groups
// per far pair at |κ| = 0.78).
//
// The table sums the whole ladder (all MaxGroups groups, no early exit).
// Images with dz² < radius² — the primary image of a same-depth pair — are
// left out of the table and evaluated per point pair with the thin-wire
// clamp of the flat kernel (ρ² ≥ radius², ρ measured to the source axis);
// without it collinear pairs would be off by r²/2R². Entries agree with a
// converged 16-point, SeriesTol 1e-16 reference to a few 1e-9 relative to
// the pair's largest entry, which is tighter than the Gauss-4 flat kernel.
//
// Only the H-matrix entry generator uses the path (under the same gate as
// its geometric cache); dense assembly never does.

const (
	// farGauss is the Gauss–Legendre order of the tensor rule on each
	// element of a far pair.
	farGauss = 6
	// farSep admits a pair when DistToSegment ≥ farSep·max(lenα, lenβ).
	farSep = 3
	// farStep is the table step in u = ln R.
	farStep = 0.01
)

// farField is the far-pair state of an assembler: the horizontal element
// classes, the table grid shared by every table, and the lazily built
// tables themselves.
type farField struct {
	// class[e] indexes classes for horizontal elements (−1 otherwise).
	class []int32
	// classes are the distinct (depth, radius²) of horizontal elements.
	classes []farClass

	// Table grid: node i sits at u = u0 + i·farStep; a point distance R is
	// served when rMin2 ≤ R² ≤ rMax2.
	u0           float64
	nodes        int
	rMin2, rMax2 float64

	// tables[obs·len(classes)+src] is the table of an observation class
	// against a source class.
	tables []lazyFarTable

	// Gauss rule on (0, 1): nodes and ½-scaled weights, and the weights
	// times the linear shape functions 1−t and t.
	gt, gw, gw0, gw1 [farGauss]float64
}

// farClass is one distinct horizontal element configuration: the depth
// fixes the observation layer and, with the radius, the source ladder and
// its clamped images.
type farClass struct {
	z, radius2 float64
}

type lazyFarTable struct {
	once sync.Once
	t    *farTable
}

// farTable is the tabulated image sum of one (observation class, source
// class) pair.
type farTable struct {
	// fd[2i], fd[2i+1] are F and farStep·dF/du at node i.
	fd []float64
	// near are the images left out of the table (dz² < radius²).
	near []nearImage
}

// nearImage is one image evaluated per point pair under the thin-wire clamp.
type nearImage struct {
	dz2, w float64
}

// far returns the far-pair state, building the class index and table grid
// on first use (the tables themselves are built per key on first lookup).
func (a *Assembler) far() *farField {
	a.farOnce.Do(func() { a.farState = newFarField(a) })
	return a.farState
}

// newFarField classifies the horizontal elements and sizes the table grid
// from the mesh: R from farSep × the shortest horizontal element to the
// bounding-box diagonal.
func newFarField(a *Assembler) *farField {
	ff := &farField{class: make([]int32, len(a.mesh.Elements))}
	index := map[farClass]int32{}
	minLen := math.Inf(1)
	lo, hi := a.mesh.Elements[0].Seg.A, a.mesh.Elements[0].Seg.A
	for e := range a.mesh.Elements {
		el := &a.mesh.Elements[e]
		for _, p := range [2]geom.Vec3{el.Seg.A, el.Seg.B} {
			lo.X, lo.Y, lo.Z = math.Min(lo.X, p.X), math.Min(lo.Y, p.Y), math.Min(lo.Z, p.Z)
			hi.X, hi.Y, hi.Z = math.Max(hi.X, p.X), math.Max(hi.Y, p.Y), math.Max(hi.Z, p.Z)
		}
		ff.class[e] = -1
		l := el.Seg.Length()
		// tz == 0 exactly is the horizontal sentinel of the flat kernel's
		// fused path: every image is then a pure depth shift.
		if el.Seg.Dir().Z != 0 || l <= 0 {
			continue
		}
		c := farClass{z: el.Seg.A.Z, radius2: el.Radius * el.Radius}
		ci, ok := index[c]
		if !ok {
			ci = int32(len(ff.classes))
			index[c] = ci
			ff.classes = append(ff.classes, c)
		}
		ff.class[e] = ci
		minLen = math.Min(minLen, l)
	}
	rMin := farSep * minLen
	rMax := hi.Sub(lo).Norm()
	if len(ff.classes) == 0 || !(rMax > rMin) {
		for e := range ff.class {
			ff.class[e] = -1
		}
		ff.classes = nil
		return ff
	}
	ff.u0 = math.Log(rMin)
	ff.nodes = int(math.Ceil((math.Log(rMax)-ff.u0)/farStep)) + 1
	ff.rMin2 = rMin * rMin
	ff.rMax2 = rMax * rMax
	ff.tables = make([]lazyFarTable, len(ff.classes)*len(ff.classes))

	rule := quad.GaussLegendre(farGauss)
	for i, x := range rule.X {
		t := 0.5 * (x + 1)
		w := 0.5 * rule.W[i]
		ff.gt[i], ff.gw[i] = t, w
		ff.gw0[i], ff.gw1[i] = w*(1-t), w*t
	}
	return ff
}

// table returns (building on first use) the table of observation class obs
// against source class src, whose ladder is imgs.
func (ff *farField) table(obs, src int32, imgs []planImage) *farTable {
	lt := &ff.tables[int(obs)*len(ff.classes)+int(src)]
	lt.once.Do(func() {
		lt.t = buildFarTable(imgs, ff.classes[obs].z, ff.classes[src].radius2, ff.u0, ff.nodes)
	})
	return lt.t
}

// buildFarTable tabulates F(u) = R·Σ w/√(R²+dz²) and its scaled derivative
// farStep·dF/du = farStep·Σ w·R·dz²/(R²+dz²)^{3/2} over the images of one
// ladder seen from depth z, leaving the clamped images to per-point
// evaluation. It is a pure function of its arguments, so every worker that
// could build a table builds the same one.
func buildFarTable(imgs []planImage, z, radius2, u0 float64, nodes int) *farTable {
	var near, far []nearImage
	t := &farTable{fd: make([]float64, 2*nodes)}
	for _, im := range imgs {
		dz := z - im.az
		if dz*dz < radius2 {
			near = append(near, nearImage{dz2: dz * dz, w: im.w})
		} else {
			far = append(far, nearImage{dz2: dz * dz, w: im.w})
		}
	}
	t.near = append(make([]nearImage, 0, len(near)), near...)
	for i := 0; i < nodes; i++ {
		r := math.Exp(u0 + float64(i)*farStep)
		r2 := r * r
		var f, d quad.KahanSum
		for _, im := range far {
			s := r2 + im.dz2
			inv := 1 / math.Sqrt(s)
			f.Add(im.w * r * inv)
			d.Add(im.w * r * im.dz2 * inv / s)
		}
		t.fd[2*i] = f.Sum()
		t.fd[2*i+1] = farStep * d.Sum()
	}
	return t
}

// tableBytes is the resident size of one table whose ladder has nearImages
// images with dz² < radius².
func (ff *farField) tableBytes(nearImages int) int64 {
	return int64(unsafe.Sizeof(farTable{})) + 16*int64(ff.nodes) +
		int64(unsafe.Sizeof(nearImage{}))*int64(nearImages)
}

// farFootprint returns the resident bytes of the far-pair state with every
// table built: the class index, the table slots and one table per class
// pair whose source has a ladder in the observation layer. series[obs−1]
// holds the expansions seen from each layer (see layerSeries).
func (a *Assembler) farFootprint(series [][][][]soil.Image) int64 {
	ff := a.far()
	n := int64(unsafe.Sizeof(farField{})) + 4*int64(len(ff.class)) +
		int64(unsafe.Sizeof(farClass{}))*int64(len(ff.classes)) +
		int64(unsafe.Sizeof(lazyFarTable{}))*int64(len(ff.tables))
	for _, obs := range ff.classes {
		obsSeries := series[a.model.LayerOf(obs.z)-1]
		for _, src := range ff.classes {
			groups := obsSeries[a.model.LayerOf(src.z)-1]
			if groups == nil {
				continue
			}
			near := 0
			for _, grp := range groups {
				for _, im := range grp {
					if dz := obs.z - (im.Sign*src.z + im.Offset); dz*dz < src.radius2 {
						near++
					}
				}
			}
			n += ff.tableBytes(near)
		}
	}
	return n
}

// PairMatrixFar computes the elemental matrix of the ordered pair
// (beta, alpha) through the far-pair tables and reports whether the pair was
// eligible; on false, out holds no result and the caller must evaluate the
// pair another way. A pair is eligible when both elements are horizontal,
// the source has an image ladder in the observation layer, DistToSegment ≥
// farSep·max(lenα, lenβ) (which implies the pair is not near by the flat
// kernel's rule) and every Gauss point distance lies inside the table range.
// The result is a pure function of the pair's geometry, whichever worker
// asks first.
func (a *Assembler) PairMatrixFar(beta, alpha int, out []float64) bool {
	ff := a.far()
	cb, ca := ff.class[beta], ff.class[alpha]
	if cb < 0 || ca < 0 {
		return false
	}
	elA := &a.mesh.Elements[alpha]
	elB := &a.mesh.Elements[beta]
	lenA, lenB := elA.Seg.Length(), elB.Seg.Length()
	if elB.Seg.DistToSegment(elA.Seg) < farSep*math.Max(lenA, lenB) {
		return false
	}
	p := a.Evaluator().plan(a.elemLayer[beta])
	pi := p.byElem[alpha]
	if pi < 0 {
		return false
	}
	pe := &p.elems[pi]
	tab := ff.table(cb, ca, p.imgs[p.grpOff[pe.grpLo]:p.grpOff[pe.grpHi]])
	fd, near := tab.fd, tab.near
	invStep := 1 / farStep
	last := ff.nodes - 2

	// Source Gauss points, and each one's axial coordinate on the source.
	var sx, sy, ss [farGauss]float64
	for h, t := range ff.gt {
		sx[h] = pe.ax + t*(elA.Seg.B.X-pe.ax)
		sy[h] = pe.ay + t*(elA.Seg.B.Y-pe.ay)
		ss[h] = t * pe.l
	}
	linear := a.linear
	var o0, o1, o2, o3 float64
	for g, t := range ff.gt {
		ox := elB.Seg.A.X + t*(elB.Seg.B.X-elB.Seg.A.X)
		oy := elB.Seg.A.Y + t*(elB.Seg.B.Y-elB.Seg.A.Y)
		// Axial coordinate and squared distance from the source axis, as
		// the flat kernel hoists them.
		dxa, dya := ox-pe.ax, oy-pe.ay
		pp := dxa*pe.tx + dya*pe.ty
		perp2 := dxa*dxa + dya*dya - pp*pp
		var s0, s1 float64
		for h := range sx {
			dx, dy := ox-sx[h], oy-sy[h]
			r2 := dx*dx + dy*dy
			if r2 < ff.rMin2 || r2 > ff.rMax2 {
				return false
			}
			x := (0.5*lnPos(r2) - ff.u0) * invStep
			i := int(x)
			if i > last {
				i = last
			}
			u := x - float64(i)
			u2 := u * u
			u3 := u2 * u
			f := fd[2*i : 2*i+4 : 2*i+4]
			// Cubic Hermite on [i, i+1] with the tabulated slopes.
			fv := (2*u3-3*u2+1)*f[0] + (u3-2*u2+u)*f[1] + (3*u2-2*u3)*f[2] + (u3-u2)*f[3]
			gv := fv / math.Sqrt(r2)
			ax := pp - ss[h]
			for _, im := range near {
				rho2 := perp2 + im.dz2
				if rho2 < pe.radius2 {
					rho2 = pe.radius2
				}
				r := math.Sqrt(rho2 + ax*ax)
				gv += im.w / r
			}
			if linear {
				s0 += ff.gw0[h] * gv
				s1 += ff.gw1[h] * gv
			} else {
				s0 += ff.gw[h] * gv
			}
		}
		if linear {
			b0, b1 := ff.gw0[g], ff.gw1[g]
			o0 += b0 * s0
			o1 += b0 * s1
			o2 += b1 * s0
			o3 += b1 * s1
		} else {
			o0 += ff.gw[g] * s0
		}
	}
	scale := pe.pref * lenA * lenB
	if linear {
		out[0], out[1], out[2], out[3] = scale*o0, scale*o1, scale*o2, scale*o3
	} else {
		out[0] = scale * o0
	}
	return true
}

// lnTableBits is the number of leading mantissa bits that index lnTable.
const lnTableBits = 7

// lnTable holds, per leading-mantissa cell k, the cell centre's reciprocal
// 1/c_k and logarithm ln c_k, c_k = 1 + (k+½)/2^lnTableBits.
var lnTable = func() (t [1 << lnTableBits][2]float64) {
	for k := range t {
		c := 1 + (float64(k)+0.5)/(1<<lnTableBits)
		t[k] = [2]float64{1 / c, math.Log(c)}
	}
	return t
}()

// lnPos returns ln x for a positive normal x to within a few 1e-16
// absolute: the exponent contributes e·ln 2, the mantissa m ∈ [1, 2) is
// reduced against its table cell to y = m/c_k − 1 with |y| < 2^-8, and
// ln(1+y) is its degree-6 Taylor polynomial (next term < 2e-18). It
// replaces math.Log in the table index, where it is the hot spot.
func lnPos(x float64) float64 {
	b := math.Float64bits(x)
	e := float64(int(b>>52) - 1023)
	t := &lnTable[b>>(52-lnTableBits)&(1<<lnTableBits-1)]
	y := math.Float64frombits(b&(1<<52-1)|1023<<52)*t[0] - 1
	p := y * (1 + y*(-1.0/2+y*(1.0/3+y*(-1.0/4+y*(1.0/5-y*(1.0/6))))))
	return e*math.Ln2 + t[1] + p
}
