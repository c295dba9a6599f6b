package bem

import (
	"context"
	"math"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"earthing/internal/geom"
	"earthing/internal/quad"
	"earthing/internal/sched"
	"earthing/internal/soil"
)

// FieldEvaluator is the batched, allocation-free field evaluation engine for
// the post-processing hot spot (§4.3): dense surface-potential and gradient
// rasters cost O(points × elements × images) kernel evaluations, and a
// direct evaluation re-derives every image-reflected segment
// im.ApplySegment(el.Seg) for every observation point even though the
// reflected geometry depends only on (element, image). It is the only
// potential and gradient evaluator; the direct per-point form is the test
// oracle of potential_test.go.
//
// The evaluator splits that work into a precompute phase and a streaming
// phase. At construction (lazily, per observation layer) it flattens each
// element's grouped image expansion into contiguous arrays. Because every
// image is affine in z only, an image segment shares the (x, y) geometry of
// its source element: three scalars per image — the transformed endpoint
// depth az = Sign·A.Z + Offset, the transformed axial direction component
// sz = Sign·t.z, and the series weight — fully describe it. The per-point
// inner loop then reduces to a cache-friendly scan over flat float64 arrays
// with two square roots and one logarithm per image (the closed form
// asinh(a) + asinh(b) = log((a+√(a²+1))·(b+√(b²+1))) evaluated
// cancellation-safely), preserving the element order, KahanSum accumulation
// and per-group tolerance early-exit of the direct form to ≪ 1e-10.
//
// Surface points (x.Z == 0, the raster and safety hot spot) take two more
// shortcuts in PotentialAt. Every image (az, sz, w) of a surface ladder has
// a mirror (−az, −sz, w) in its group whose term is bit-identical on z = 0,
// so the observation-layer-1 plan carries a folded copy of its ladders with
// each mirror pair merged into one image of weight 2w; and the equal-weight
// groups of horizontal sources take one logarithm per group (fusedGroup),
// as the assembler's flat kernel does.
//
// Layer pairs without an image expansion (N ≥ 3 layer models outside the
// top layer) fall back to Gauss quadrature of Model.PointPotential.
//
// Obtain one with Assembler.Evaluator (cached, concurrency-safe); all batch
// and per-point methods are safe for concurrent use.
type FieldEvaluator struct {
	a *Assembler
	// plans[l-1] is the lazily built flattened plan for observation layer l.
	plans []lazyPlan
}

type lazyPlan struct {
	once sync.Once
	plan *evalPlan
}

// evalPlan holds, for one observation layer, every element's image expansion
// flattened into contiguous arrays (computed once, reused for every point).
type evalPlan struct {
	elems []planElem
	// byElem maps a mesh element index to its position in elems (−1 for
	// quadrature-fallback elements) — the random-access door the flat
	// assembly kernel uses to address one source element's image table.
	byElem []int32
	// quadElems are elements whose (src, obs) layer pair has no image
	// expansion; they fall back to quadrature of Model.PointPotential.
	quadElems []int32

	// imgs is the flattened image stream; one record fully describes an
	// image-reflected segment given its element's shared (x, y) geometry.
	// A single struct stream (rather than parallel arrays) lets the point
	// loop range over subslices bounds-check-free.
	imgs []planImage
	// grpOff[g] is the first image of series group g; group g spans
	// imgs[grpOff[g]:grpOff[g+1]]. A ladder is a consecutive group range
	// [planElem.grpLo, planElem.grpHi), shared by every element with the
	// same ladderKey; a trailing sentinel closes the last.
	grpOff []int32

	// fold and foldOff are the surface copy of the ladders, built for
	// observation layer 1 only: group g of fold is group g of imgs with
	// every mirror pair merged (see foldGroup), so it spans
	// fold[foldOff[g]:foldOff[g+1]] and the group structure — and with it
	// each element's [grpLo, grpHi) — is unchanged.
	fold    []planImage
	foldOff []int32
}

// planImage is one image-reflected segment: the transformed endpoint depth
// az = Sign·A.Z + Offset, the transformed axial direction component
// sz = Sign·t.z, and the series weight.
type planImage struct {
	az, sz, w float64
}

// planElem is the per-element header of a plan: the observation-point-
// invariant geometry and prefactors of one source element.
type planElem struct {
	pref    float64 // 1/(4π·γ_src)
	radius2 float64 // conductor radius squared (thin-wire ρ clamp)
	l, invL float64 // element length and its reciprocal
	ax, ay  float64 // segment start (x, y) — shared by every image
	tx, ty  float64 // axial unit direction (x, y) — shared by every image
	tz      float64 // axial unit direction z of the source segment
	dof0    int32
	dof1    int32 // valid only for linear elements
	grpLo   int32
	grpHi   int32
}

// newFieldEvaluator prepares an evaluator; plans are built per observation
// layer on first use.
func newFieldEvaluator(a *Assembler) *FieldEvaluator {
	return &FieldEvaluator{a: a, plans: make([]lazyPlan, a.model.NumLayers())}
}

// Evaluator returns the batched field evaluation engine for this assembler,
// building it on first call. The evaluator shares the assembler's immutable
// precomputed state and is safe for concurrent use.
func (a *Assembler) Evaluator() *FieldEvaluator {
	a.evalOnce.Do(func() { a.eval = newFieldEvaluator(a) })
	return a.eval
}

// plan returns (building on first use) the flattened plan for an observation
// layer.
func (fe *FieldEvaluator) plan(obsLayer int) *evalPlan {
	lp := &fe.plans[obsLayer-1]
	lp.once.Do(func() { lp.plan = buildPlan(fe.a, obsLayer) })
	return lp.plan
}

// buildPlan flattens every element's image expansion for one observation
// layer. This is the precompute half of the engine: ApplySegment and the
// per-element prefactors run once here instead of once per point. Elements
// with the same ladder key share one flattened ladder (see planShapeOf), and
// every slice is allocated at its final size, so planShape.bytes is exact.
func buildPlan(a *Assembler, obsLayer int) *evalPlan {
	series := a.layerSeries(obsLayer)
	sh := a.planShapeOf(obsLayer, series)
	m := len(a.mesh.Elements)
	p := &evalPlan{
		elems:  make([]planElem, 0, m-sh.quad),
		byElem: make([]int32, m),
		imgs:   make([]planImage, 0, sh.imgs),
		grpOff: make([]int32, 0, sh.groups+1),
	}
	if sh.quad > 0 {
		p.quadElems = make([]int32, 0, sh.quad)
	}
	if sh.fold {
		p.fold = make([]planImage, 0, sh.folded)
		p.foldOff = make([]int32, 0, sh.groups+1)
	}
	// Flatten each distinct ladder once, from the first element using it.
	span := make([][2]int32, len(sh.firsts))
	for li, e := range sh.firsts {
		seg := &a.mesh.Elements[e].Seg
		tz := seg.Dir().Z
		span[li][0] = int32(len(p.grpOff))
		for _, grp := range series[a.elemLayer[e]-1] {
			p.grpOff = append(p.grpOff, int32(len(p.imgs)))
			p.imgs = appendGroup(p.imgs, grp, seg.A.Z, tz)
			if sh.fold {
				p.foldOff = append(p.foldOff, int32(len(p.fold)))
				p.fold = foldGroup(p.fold, p.imgs[p.grpOff[len(p.grpOff)-1]:])
			}
		}
		span[li][1] = int32(len(p.grpOff))
	}
	p.grpOff = append(p.grpOff, int32(len(p.imgs)))
	if sh.fold {
		p.foldOff = append(p.foldOff, int32(len(p.fold)))
	}

	for e := range a.mesh.Elements {
		li := sh.ladder[e]
		if li < 0 {
			p.byElem[e] = -1
			p.quadElems = append(p.quadElems, int32(e))
			continue
		}
		el := &a.mesh.Elements[e]
		p.byElem[e] = int32(len(p.elems))
		l := el.Seg.Length()
		t := el.Seg.Dir()
		pe := planElem{
			pref:    1 / (4 * math.Pi * a.model.Conductivity(a.elemLayer[e])),
			radius2: el.Radius * el.Radius,
			l:       l,
			ax:      el.Seg.A.X,
			ay:      el.Seg.A.Y,
			tx:      t.X,
			ty:      t.Y,
			tz:      t.Z,
			dof0:    int32(el.DoF[0]),
			grpLo:   span[li][0],
			grpHi:   span[li][1],
		}
		if l > 0 {
			pe.invL = 1 / l
		}
		if a.linear {
			pe.dof1 = int32(el.DoF[1])
		}
		p.elems = append(p.elems, pe)
	}
	return p
}

// appendGroup appends the images of one series group reflected about a
// source segment that starts at depth az0 and has axial direction z
// component tz.
func appendGroup(dst []planImage, grp []soil.Image, az0, tz float64) []planImage {
	for _, im := range grp {
		dst = append(dst, planImage{
			az: im.Sign*az0 + im.Offset,
			sz: im.Sign * tz,
			w:  im.Weight,
		})
	}
	return dst
}

// foldGroup appends one series group to dst with its mirror pairs merged:
// an image (az, sz, w) and a later unpaired image that is bitwise
// (−az, −sz, w) become one image (az, sz, 2w) in the first one's place.
// Seen from z = 0 the two have dz = ∓az, the same axial projection and the
// same ρ², so their terms are bit-identical and 2w·term is their exact sum.
// Images without a partner are kept as they are, in order.
func foldGroup(dst, grp []planImage) []planImage {
	taken := make([]bool, len(grp))
	for i, im := range grp {
		if taken[i] {
			continue
		}
		for j := i + 1; j < len(grp); j++ {
			if !taken[j] && isMirror(im, grp[j]) {
				taken[j] = true
				im.w *= 2
				break
			}
		}
		dst = append(dst, im)
	}
	return dst
}

// isMirror reports whether b is bitwise the z = 0 mirror image of a.
func isMirror(a, b planImage) bool {
	return math.Float64bits(b.az) == math.Float64bits(-a.az) &&
		math.Float64bits(b.sz) == math.Float64bits(-a.sz) &&
		math.Float64bits(b.w) == math.Float64bits(a.w)
}

// layerSeries returns, per source layer, the image expansion seen from
// obsLayer split into its series groups; entry src−1 is nil when the pair
// has no image form and falls back to quadrature of Model.PointPotential.
// Models list images in group order, so each group is a subslice of the
// expansion. The model keeps the only resident copy; callers hold the
// result only while they flatten or count it.
func (a *Assembler) layerSeries(obsLayer int) [][][]soil.Image {
	series := make([][][]soil.Image, a.model.NumLayers())
	for src := range series {
		imgs, ok := a.model.ImageExpansion(src+1, obsLayer, a.opt.MaxGroups)
		if !ok {
			continue
		}
		var groups [][]soil.Image
		for lo := 0; lo < len(imgs); {
			hi := lo + 1
			for hi < len(imgs) && imgs[hi].Group == imgs[lo].Group {
				hi++
			}
			for len(groups) < imgs[lo].Group {
				groups = append(groups, nil)
			}
			groups = append(groups, imgs[lo:hi:hi])
			lo = hi
		}
		series[src] = groups
	}
	return series
}

// ladderKey identifies a flattened image ladder within one observation
// layer. The stored images (az, sz, w) depend only on the source layer's
// expansion, the start depth A.Z and the axial direction z of the source
// segment; the key holds the exact bits of both, so elements that share a
// key share bit-identical ladders.
type ladderKey struct {
	src    int
	az, tz uint64
}

// planShape is the layout of the plan for one observation layer, known
// before the plan is built.
type planShape struct {
	ladder []int32 // per element: its ladder's index, −1 for quadrature fallback
	firsts []int32 // per ladder: the first element that uses it
	quad   int     // quadrature-fallback elements
	imgs   int     // images over all distinct ladders
	groups int     // series groups over all distinct ladders
	// fold marks observation layer 1, whose plan carries the folded surface
	// copy of its ladders (folded images in all).
	fold   bool
	folded int
}

// planShapeOf assigns every element its ladder in the plan for obsLayer,
// whose expansions are series (see layerSeries). Grounding grids have few
// distinct ladder keys — a horizontal mesh at one depth plus its rods — so
// sharing shrinks a plan from one ladder per element to a handful.
func (a *Assembler) planShapeOf(obsLayer int, series [][][]soil.Image) planShape {
	sh := planShape{ladder: make([]int32, len(a.mesh.Elements)), fold: obsLayer == 1}
	index := map[ladderKey]int32{}
	var grp, folded []planImage
	for e := range a.mesh.Elements {
		src := a.elemLayer[e]
		groups := series[src-1]
		if groups == nil {
			sh.ladder[e] = -1
			sh.quad++
			continue
		}
		seg := &a.mesh.Elements[e].Seg
		tz := seg.Dir().Z
		k := ladderKey{src, math.Float64bits(seg.A.Z), math.Float64bits(tz)}
		li, ok := index[k]
		if !ok {
			li = int32(len(sh.firsts))
			index[k] = li
			sh.firsts = append(sh.firsts, int32(e))
			sh.groups += len(groups)
			for _, g := range groups {
				sh.imgs += len(g)
				if sh.fold {
					grp = appendGroup(grp[:0], g, seg.A.Z, tz)
					folded = foldGroup(folded[:0], grp)
					sh.folded += len(folded)
				}
			}
		}
		sh.ladder[e] = li
	}
	return sh
}

// bytes returns the resident size of the plan with this shape: header,
// element index, per-element headers, shared ladders and, for observation
// layer 1, their folded surface copy.
func (sh planShape) bytes() int64 {
	m, quad := int64(len(sh.ladder)), int64(sh.quad)
	n := int64(unsafe.Sizeof(evalPlan{})) + 4*m +
		int64(unsafe.Sizeof(planElem{}))*(m-quad) + 4*quad +
		int64(unsafe.Sizeof(planImage{}))*int64(sh.imgs) + 4*int64(sh.groups+1)
	if sh.fold {
		n += int64(unsafe.Sizeof(planImage{}))*int64(sh.folded) + 4*int64(sh.groups+1)
	}
	return n
}

// logI0 returns i0 = asinh(q/ρ) + asinh(p/ρ) = log((q+r1)(p+r0)/ρ²), where
// r0 = √(ρ²+p²), r1 = √(ρ²+q²). Negative p or q would cancel against its
// root, so those factors are rewritten as ρ²/(r−|·|). One log replaces the
// two asinh calls of the per-point path; the result agrees to a few ulp.
func logI0(p, q, r0, r1, rho2 float64) float64 {
	u := q + r1
	if q < 0 {
		u = rho2 / (r1 - q)
	}
	v := p + r0
	if p < 0 {
		v = rho2 / (r0 - p)
	}
	return math.Log(u * v / rho2)
}

// PotentialAt evaluates the earth potential V(x) (per unit GPR) from the
// solved DoF vector, matching the image-series potential to well below
// 1e-10. Points on the surface plane (x.Z == 0 exactly) scan the folded
// ladders. It allocates nothing once the observation layer's plan is built,
// so it is the per-point core the batch methods stream over.
func (fe *FieldEvaluator) PotentialAt(x geom.Vec3, sigma []float64) float64 {
	return fe.potential(x, sigma, x.Z == 0)
}

// potential is PotentialAt with the ladder choice explicit: fold selects
// the folded surface copy, which is exact only for x.Z == 0.
func (fe *FieldEvaluator) potential(x geom.Vec3, sigma []float64, fold bool) float64 {
	a := fe.a
	p := fe.plan(a.model.LayerOf(math.Max(x.Z, 0)))
	imgs, grpOff := p.imgs, p.grpOff
	if fold {
		imgs, grpOff = p.fold, p.foldOff
	}
	linear := a.linear

	var total quad.KahanSum
	for ei := range p.elems {
		pe := &p.elems[ei]
		s0 := sigma[pe.dof0]
		var ds float64
		if linear {
			ds = sigma[pe.dof1] - s0
		}
		dx := x.X - pe.ax
		dy := x.Y - pe.ay
		hxy := dx*pe.tx + dy*pe.ty
		dxy2 := dx*dx + dy*dy
		l, invL, r2min := pe.l, pe.invL, pe.radius2
		// A horizontal source puts every image at the same axial
		// projection hxy, so an equal-weight group takes one logarithm.
		horizontal := pe.tz == 0

		var accum float64
		maxAccum := 0.0
		smallGroups := 0
		for g := pe.grpLo; g < pe.grpHi; g++ {
			ims := imgs[grpOff[g]:grpOff[g+1]]
			var gsum float64
			if horizontal && fusable(ims) {
				i0, sd := fusedGroup(ims, x.Z, hxy, l-hxy, dxy2, r2min)
				if linear {
					i1 := (sd + hxy*i0) * invL
					gsum = ims[0].w * (i0*s0 + i1*ds)
				} else {
					gsum = ims[0].w * i0 * s0
				}
			} else {
				for _, im := range ims {
					dz := x.Z - im.az
					pp := hxy + im.sz*dz
					pp2 := pp * pp
					rho2 := dxy2 + dz*dz - pp2
					if rho2 < r2min {
						rho2 = r2min
					}
					q := l - pp
					r0 := math.Sqrt(rho2 + pp2)
					r1 := math.Sqrt(rho2 + q*q)
					i0 := logI0(pp, q, r0, r1, rho2)
					if linear {
						i1 := (r1 - r0 + pp*i0) * invL
						gsum += im.w * (i0*s0 + i1*ds)
					} else {
						gsum += im.w * i0 * s0
					}
				}
			}
			accum += gsum
			if av := math.Abs(accum); av > maxAccum {
				maxAccum = av
			}
			if math.Abs(gsum) <= a.opt.SeriesTol*maxAccum {
				smallGroups++
				if smallGroups >= 2 {
					break
				}
			} else {
				smallGroups = 0
			}
		}
		total.Add(pe.pref * accum)
	}
	for _, e := range p.quadElems {
		total.Add(a.elementPotentialQuadrature(int(e), x, sigma))
	}
	return total.Sum()
}

// GradientAt evaluates ∇V(x) (V/m per unit GPR) by differentiating the
// image series term by term; like PotentialAt it is allocation-free in steady
// state for image-kernel layer pairs.
func (fe *FieldEvaluator) GradientAt(x geom.Vec3, sigma []float64) geom.Vec3 {
	a := fe.a
	p := fe.plan(a.model.LayerOf(math.Max(x.Z, 0)))
	imgs, grpOff := p.imgs, p.grpOff
	linear := a.linear

	var total geom.Vec3
	for ei := range p.elems {
		pe := &p.elems[ei]
		s0 := sigma[pe.dof0]
		var ds float64
		if linear {
			ds = sigma[pe.dof1] - s0
		}
		dx := x.X - pe.ax
		dy := x.Y - pe.ay
		hxy := dx*pe.tx + dy*pe.ty
		l, invL := pe.l, pe.invL
		minRho := math.Sqrt(pe.radius2)
		tiny := 1e-14 * (1 + l)

		var accX, accY, accZ float64
		maxAccum := 0.0
		smallGroups := 0
		for g := pe.grpLo; g < pe.grpHi; g++ {
			var gx, gy, gz float64
			for _, im := range imgs[grpOff[g]:grpOff[g+1]] {
				szi := im.sz
				dz := x.Z - im.az
				pp := hxy + szi*dz
				// Radial vector from the (image) axis to x; its norm is the
				// true ρ before the thin-wire clamp.
				rx := dx - pe.tx*pp
				ry := dy - pe.ty*pp
				rz := dz - szi*pp
				rhoTrue := math.Sqrt(rx*rx + ry*ry + rz*rz)
				rho := rhoTrue
				clamped := false
				if rho < minRho {
					rho = minRho
					clamped = true
				}
				var hx, hy, hz float64 // ρ̂ (zero on-axis/clamped, as legacy)
				if rhoTrue > tiny && !clamped {
					inv := 1 / rhoTrue
					hx, hy, hz = rx*inv, ry*inv, rz*inv
				}
				rho2 := rho * rho
				q := l - pp
				r0 := math.Sqrt(rho2 + pp*pp)
				r1 := math.Sqrt(rho2 + q*q)
				i0 := logI0(pp, q, r0, r1, rho2)

				di0dp := 1/r0 - 1/r1
				di0drho := -(pp/r0 + q/r1) / rho
				di1dp := (-q/r1 - pp/r0 + i0 + pp*di0dp) * invL
				di1drho := (rho/r1 - rho/r0 + pp*di0drho) * invL

				// g = g0·s0 + g1·(s1−s0) with g_k = t̂·di_k/dp + ρ̂·di_k/dρ.
				coefT := di0dp * s0
				coefR := di0drho * s0
				if linear {
					coefT += di1dp * ds
					coefR += di1drho * ds
				}
				wi := im.w
				gx += wi * (pe.tx*coefT + hx*coefR)
				gy += wi * (pe.ty*coefT + hy*coefR)
				gz += wi * (szi*coefT + hz*coefR)
			}
			accX += gx
			accY += gy
			accZ += gz
			if n := math.Sqrt(accX*accX + accY*accY + accZ*accZ); n > maxAccum {
				maxAccum = n
			}
			if math.Sqrt(gx*gx+gy*gy+gz*gz) <= a.opt.SeriesTol*maxAccum {
				smallGroups++
				if smallGroups >= 2 {
					break
				}
			} else {
				smallGroups = 0
			}
		}
		total.X += pe.pref * accX
		total.Y += pe.pref * accY
		total.Z += pe.pref * accZ
	}
	for _, e := range p.quadElems {
		total = total.Add(a.elementGradByDifferences(int(e), x, sigma))
	}
	return total
}

// BatchOptions configures a batched evaluation.
type BatchOptions struct {
	// Workers is the parallel width; 0 selects GOMAXPROCS, 1 runs
	// sequentially in the calling goroutine.
	Workers int
	// Schedule distributes points over workers (default dynamic,1 — the
	// paper's best schedule; raster points near conductors cost more series
	// groups than far ones, so dynamic balancing matters here too).
	Schedule sched.Schedule
}

func (o BatchOptions) withDefaults() BatchOptions {
	if o.Schedule.IsZero() {
		o.Schedule = sched.Schedule{Kind: sched.Dynamic, Chunk: 1}
	}
	return o
}

// BatchStats describes how a batched evaluation ran.
type BatchStats struct {
	// Sched reports the work distribution of the point loop.
	Sched sched.Stats
	// Busy is the per-worker busy time.
	Busy []time.Duration
	// Wall is the total wall-clock time of the batch.
	Wall time.Duration
}

// PredictedSpeedup returns Σbusy/max(busy) — the load-balance-limited
// speed-up the schedule would achieve with one core per worker, the same
// quantity the matrix-generation tables report.
func (s BatchStats) PredictedSpeedup() float64 {
	var sum, max time.Duration
	for _, b := range s.Busy {
		sum += b
		if b > max {
			max = b
		}
	}
	if max == 0 {
		return 1
	}
	return float64(sum) / float64(max)
}

// PointsPerSec returns the aggregate evaluation throughput of the batch.
func (s BatchStats) PointsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Sched.Iterations) / s.Wall.Seconds()
}

// PotentialBatch evaluates scale·V(points[i]) into out[i] for every point,
// distributing points over workers. out must have len(points). The per-point
// arithmetic is identical to PotentialAt regardless of worker count, so
// results are bit-identical across schedules and parallel widths.
func (fe *FieldEvaluator) PotentialBatch(points []geom.Vec3, sigma []float64, scale float64, out []float64, opt BatchOptions) BatchStats {
	//lint:ignore errdrop background context never cancels, so the error is always nil
	//lint:ignore ctxflow synchronous compatibility wrapper; the ctx-first variant is the primary API
	st, _ := fe.PotentialBatchCtx(context.Background(), points, sigma, scale, out, opt)
	return st
}

// PotentialBatchCtx is PotentialBatch with cooperative cancellation at point
// (chunk) boundaries. On cancellation out is partially filled and ctx.Err()
// is returned; callers must discard the raster.
func (fe *FieldEvaluator) PotentialBatchCtx(ctx context.Context, points []geom.Vec3, sigma []float64, scale float64, out []float64, opt BatchOptions) (BatchStats, error) {
	return fe.runBatch(ctx, len(points), opt, func(i int) {
		out[i] = scale * fe.PotentialAt(points[i], sigma)
	})
}

// GradBatch evaluates ∇V(points[i]) (per unit GPR, unscaled) into out[i].
// out must have len(points).
func (fe *FieldEvaluator) GradBatch(points []geom.Vec3, sigma []float64, out []geom.Vec3, opt BatchOptions) BatchStats {
	//lint:ignore errdrop background context never cancels, so the error is always nil
	//lint:ignore ctxflow synchronous compatibility wrapper; the ctx-first variant is the primary API
	st, _ := fe.GradBatchCtx(context.Background(), points, sigma, out, opt)
	return st
}

// GradBatchCtx is GradBatch with cooperative cancellation, mirroring
// PotentialBatchCtx.
func (fe *FieldEvaluator) GradBatchCtx(ctx context.Context, points []geom.Vec3, sigma []float64, out []geom.Vec3, opt BatchOptions) (BatchStats, error) {
	return fe.runBatch(ctx, len(points), opt, func(i int) {
		out[i] = fe.GradientAt(points[i], sigma)
	})
}

// runBatch distributes body over n points with per-worker busy tracking.
func (fe *FieldEvaluator) runBatch(ctx context.Context, n int, opt BatchOptions, body func(i int)) (BatchStats, error) {
	opt = opt.withDefaults()
	maxW := opt.Workers
	if maxW <= 0 {
		maxW = runtime.GOMAXPROCS(0)
	}
	busy := make([]time.Duration, maxW+1)
	start := time.Now()
	st, err := sched.ForStatsCtx(ctx, n, opt.Workers, opt.Schedule, func(i, wk int) {
		t0 := time.Now()
		body(i)
		if wk >= len(busy) {
			wk = len(busy) - 1
		}
		busy[wk] += time.Since(t0)
	})
	return BatchStats{Sched: st, Busy: busy[:st.Workers], Wall: time.Since(start)}, err
}
