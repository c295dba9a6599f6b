package main

import (
	"reflect"
	"testing"
)

func TestMixIsDeterministic(t *testing.T) {
	a, b := newMix(7, 500), newMix(7, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two mixes from seed 7 differ")
	}
	if c := newMix(8, 500); reflect.DeepEqual(a.requests, c.requests) {
		t.Fatal("seeds 7 and 8 gave the same request stream")
	}
}

func TestMixComposition(t *testing.T) {
	m := newMix(3, 40*mixBlock)
	if len(m.requests) != 40*mixBlock {
		t.Fatalf("got %d requests", len(m.requests))
	}
	fresh, threeLayer := 0, 0
	for blk := 0; blk < 40; blk++ {
		kinds := map[string]int{}
		for _, q := range m.requests[blk*mixBlock : (blk+1)*mixBlock] {
			kinds[q.Kind]++
			if q.GPR < 1_000 || q.GPR > 20_000 {
				t.Errorf("GPR %g out of range", q.GPR)
			}
			if q.Scenario >= workingSet {
				fresh++
				if q.Kind != kindSolve {
					t.Errorf("fresh scenario on %s", q.Kind)
				}
				if m.scenarios[q.Scenario].Soil.Kind == "multi" {
					threeLayer++
				}
			}
		}
		if kinds[kindSolve] != mixSolve || kinds[kindRaster] != mixRaster || kinds[kindSafety] != mixBlock-mixSolve-mixRaster {
			t.Errorf("block %d composition %v", blk, kinds)
		}
	}
	if fresh != 40*mixFresh || threeLayer != fresh/threeLayerEvery {
		t.Errorf("%d fresh requests (%d three-layer), want %d (%d)", fresh, threeLayer, 40*mixFresh, 40*mixFresh/threeLayerEvery)
	}
	if len(m.scenarios) != workingSet+fresh {
		t.Errorf("%d scenarios, want %d", len(m.scenarios), workingSet+fresh)
	}
}

// TestScenarioGeneratorsAreDeterministic covers the other seeded inputs:
// the Balaidos soil order, the interconnect GPR, and the design
// problem.
func TestScenarioGeneratorsAreDeterministic(t *testing.T) {
	for seed := int64(-3); seed < 20; seed++ {
		if !reflect.DeepEqual(balaidosOrder(seed), balaidosOrder(seed)) {
			t.Errorf("seed %d: soil order differs", seed)
		}
		if interconnectGPR(seed) != interconnectGPR(seed) {
			t.Errorf("seed %d: GPR differs", seed)
		}
		s1, o1 := designProblem(seed)
		s2, o2 := designProblem(seed)
		if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(o1, o2) {
			t.Errorf("seed %d: design problem differs", seed)
		}
	}
	s1, _ := designProblem(1)
	s2, _ := designProblem(2)
	if s1.FaultCurrent == s2.FaultCurrent {
		t.Error("seeds 1 and 2 gave the same design problem")
	}
}
