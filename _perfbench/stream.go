package main

import (
	"math/rand"

	"earthing/internal/server"
)

// The groundd-mix request stream. Requests come in blocks of mixBlock whose
// composition is fixed (so every run sees the same endpoint shares) and
// whose order within the block is shuffled by the seed.
const (
	// workingSet is the number of repeatedly requested scenarios; lruEntries
	// is the server's LRU capacity, smaller than the working set so LRU
	// misses fall through to the durable store.
	workingSet = 24
	lruEntries = 8
	// mixBlock requests: mixSolve /v1/solve (mixFresh of them on fresh
	// scenarios), mixRaster /v1/raster and the rest /v1/safety.
	mixBlock  = 20
	mixSolve  = 16
	mixFresh  = 2
	mixRaster = 3
	// Every threeLayerEvery-th fresh scenario uses a three-layer soil on the
	// smallest lattice.
	threeLayerEvery = 8
	// zipfS is the popularity skew over the working set.
	zipfS = 1.2
	// rasterN is the raster side; rasterMargin its margin in metres.
	rasterN      = 16
	rasterMargin = 10
)

const (
	kindSolve  = "solve"
	kindRaster = "raster"
	kindSafety = "safety"
)

// mixRequest is one request of the stream: the endpoint, the scenario (an
// index into mix.scenarios) and the GPR it carries.
type mixRequest struct {
	Kind     string
	Scenario int
	GPR      float64
}

// mix is the seeded groundd-mix input: the working set (scenarios
// [0, workingSet)), the fresh scenarios after it, and the request stream.
type mix struct {
	scenarios []server.Scenario
	requests  []mixRequest
}

// newMix generates n requests from seed. The same seed always yields the
// same scenarios and requests.
func newMix(seed int64, n int) *mix {
	r := rand.New(rand.NewSource(seed))
	m := &mix{}
	for i := 0; i < workingSet; i++ {
		m.scenarios = append(m.scenarios, latticeScenario(r, workingShape(i)))
	}
	zipf := rand.NewZipf(r, zipfS, 1, workingSet-1)
	fresh := 0
	for len(m.requests) < n {
		block := make([]mixRequest, 0, mixBlock)
		for i := 0; i < mixBlock; i++ {
			kind := kindSafety
			switch {
			case i < mixSolve:
				kind = kindSolve
			case i < mixSolve+mixRaster:
				kind = kindRaster
			}
			sc := int(zipf.Uint64())
			if i < mixFresh {
				fresh++
				if fresh%threeLayerEvery == 0 {
					m.scenarios = append(m.scenarios, threeLayerScenario(r))
				} else {
					m.scenarios = append(m.scenarios, latticeScenario(r, freshShape(fresh)))
				}
				sc = len(m.scenarios) - 1
			}
			block = append(block, mixRequest{Kind: kind, Scenario: sc, GPR: 1_000 + 19_000*r.Float64()})
		}
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		m.requests = append(m.requests, block...)
	}
	m.requests = m.requests[:n]
	return m
}

// shape is a lattice's size class; the seed perturbs each instance.
type shape struct {
	nx, ny        int
	width, height float64
	rods          bool
}

// workingShape is the shape of the working-set scenario of popularity rank
// i: 3–6 lines per direction, 20–50 m sides, corner rods on every other
// rank. Shapes and ranks are the same for every seed, so the cost of a run
// does not hinge on which sizes a seed happens to make popular.
func workingShape(i int) shape {
	return shape{
		nx: 3 + (3*i)%4, ny: 3 + (3*i+1)%4,
		width: 20 + 30*float64((7*i)%10)/9, height: 20 + 30*float64((3*i+4)%10)/9,
		rods: i%2 == 0,
	}
}

// freshShape is the shape of the k-th fresh scenario: 2–5 lines per
// direction, 20–50 m sides, no rods.
func freshShape(k int) shape {
	return shape{
		nx: 2 + k%4, ny: 2 + (k/4)%4,
		width: 20 + 30*float64((3*k)%7)/6, height: 20 + 30*float64((5*k+2)%7)/6,
	}
}

// jitter scales v by a seeded factor within ±frac.
func jitter(r *rand.Rand, v, frac float64) float64 { return v * (1 + frac*(2*r.Float64()-1)) }

// latticeScenario draws a lattice of the given shape, its sides perturbed
// by up to 5 %, in a two-layer soil with a reflection coefficient between
// about −0.5 and −0.7.
func latticeScenario(r *rand.Rand, sh shape) server.Scenario {
	width, height := jitter(r, sh.width, 0.05), jitter(r, sh.height, 0.05)
	rect := &server.RectSpec{
		Width: width, Height: height, NX: sh.nx, NY: sh.ny,
		Depth: 0.5 + 0.3*r.Float64(), Radius: 0.006,
	}
	if sh.rods {
		length := 2 + r.Float64()
		for _, c := range [][2]float64{{0, 0}, {width, 0}, {0, height}, {width, height}} {
			rect.Rods = append(rect.Rods, server.RodSpec{X: c[0], Y: c[1], Top: rect.Depth, Length: length, Radius: 0.007})
		}
	}
	return server.Scenario{
		Grid: server.GridSpec{Rect: rect},
		Soil: server.SoilSpec{
			Kind:   "two-layer",
			Gamma1: jitter(r, 0.005, 0.2),
			Gamma2: jitter(r, 0.0175, 0.15),
			H1:     jitter(r, 1.2, 0.2),
		},
	}
}

// threeLayerScenario draws the smallest lattice (2 × 2 lines) in a
// three-layer soil.
func threeLayerScenario(r *rand.Rand) server.Scenario {
	return server.Scenario{
		Grid: server.GridSpec{Rect: &server.RectSpec{
			Width: jitter(r, 15, 0.05), Height: jitter(r, 15, 0.05),
			NX: 2, NY: 2, Depth: 0.5 + 0.3*r.Float64(), Radius: 0.006,
		}},
		Soil: server.SoilSpec{
			Kind:        "multi",
			Gammas:      []float64{jitter(r, 0.005, 0.1), jitter(r, 0.025, 0.1), 0.01},
			Thicknesses: []float64{jitter(r, 1.0, 0.1), jitter(r, 3, 0.1)},
		},
	}
}
