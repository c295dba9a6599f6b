package server

import (
	"strings"
	"testing"

	"earthing/internal/grid"
)

func mustBuild(t *testing.T, sc Scenario) *built {
	t.Helper()
	b, err := sc.build(0)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return b
}

func baseScenario() Scenario {
	return Scenario{
		Grid: GridSpec{Rect: &RectSpec{Width: 20, Height: 20, NX: 4, NY: 4, Depth: 0.8, Radius: 0.006}},
		Soil: SoilSpec{Kind: "two-layer", Gamma1: 0.005, Gamma2: 0.016, H1: 1},
	}
}

// TestKeyStability: the canonical key is a pure function of the
// result-affecting inputs.
func TestKeyStability(t *testing.T) {
	a := mustBuild(t, baseScenario())
	b := mustBuild(t, baseScenario())
	if a.key != b.key {
		t.Fatalf("same scenario keyed differently: %s vs %s", a.key, b.key)
	}
}

// TestKeyPinned pins the key of one scenario. Keys address the durable store
// and the peer tier, so a change to the key derivation (for instance a new
// kernel tag) must show up here as a deliberate edit. The same scenario
// keyed 51f1c5d68b11b805087e8136779a1786 before the kernel tag existed,
// when the reference kernel was the default, and
// b3da8dd03a9fce1f08fc4e353cd97be0 before the factorization tag existed,
// when the column-parallel factor served larger systems; records under
// those keys must never be served again.
func TestKeyPinned(t *testing.T) {
	const want = "b9f690c9897f7193c15ba2e52ca54ae4"
	if got := mustBuild(t, baseScenario()).key; got != want {
		t.Fatalf("key of the base scenario = %s, want %s", got, want)
	}
}

// TestKeyIgnoresExecutionKnobs: GPR, workers and schedule change neither the
// solution nor the key — they must all land on the same cache entry.
func TestKeyIgnoresExecutionKnobs(t *testing.T) {
	base := mustBuild(t, baseScenario())
	for _, mutate := range []func(*Scenario){
		func(s *Scenario) { s.GPR = 10_000 },
		func(s *Scenario) { s.Workers = 7 },
		func(s *Scenario) { s.Schedule = "static,16" },
	} {
		sc := baseScenario()
		mutate(&sc)
		if got := mustBuild(t, sc).key; got != base.key {
			t.Errorf("execution-only knob changed key: %+v", sc)
		}
	}
}

// TestKeySeparatesResultAffectingKnobs: anything that changes the solved
// system must change the key.
func TestKeySeparatesResultAffectingKnobs(t *testing.T) {
	base := mustBuild(t, baseScenario())
	for name, mutate := range map[string]func(*Scenario){
		"soil gamma1":  func(s *Scenario) { s.Soil.Gamma1 = 0.006 },
		"soil kind":    func(s *Scenario) { s.Soil = SoilSpec{Kind: "uniform", Gamma1: 0.005} },
		"layer depth":  func(s *Scenario) { s.Soil.H1 = 2 },
		"grid width":   func(s *Scenario) { s.Grid.Rect.Width = 21 },
		"grid density": func(s *Scenario) { s.Grid.Rect.NX = 5 },
		"maxElemLen":   func(s *Scenario) { s.MaxElemLen = 2 },
		"rodElements":  func(s *Scenario) { s.RodElements = 2 },
		"seriesTol":    func(s *Scenario) { s.SeriesTol = 1e-4 },
	} {
		sc := baseScenario()
		mutate(&sc)
		if got := mustBuild(t, sc).key; got == base.key {
			t.Errorf("%s: result-affecting knob did not change key", name)
		}
	}
}

// TestKeyCanonicalGeometry: a rect spec and the hand-written text grid of the
// same geometry canonicalize to the same key (both pass through grid.Write).
func TestKeyCanonicalGeometry(t *testing.T) {
	rect := Scenario{
		Grid: GridSpec{Rect: &RectSpec{Width: 10, Height: 10, NX: 2, NY: 2, Depth: 0.5, Radius: 0.01}},
		Soil: SoilSpec{Kind: "uniform", Gamma1: 0.01},
	}
	rb := mustBuild(t, rect)
	var sb strings.Builder
	if err := grid.Write(&sb, rb.grid); err != nil {
		t.Fatal(err)
	}
	text := Scenario{
		Grid: GridSpec{Text: sb.String()},
		Soil: SoilSpec{Kind: "uniform", Gamma1: 0.01},
	}
	tb := mustBuild(t, text)
	if rb.key != tb.key {
		t.Errorf("equivalent geometries keyed differently:\nrect %s\ntext %s", rb.key, tb.key)
	}
}

// TestBuildDefaults: the zero knobs resolve to the documented defaults.
func TestBuildDefaults(t *testing.T) {
	b := mustBuild(t, baseScenario())
	if b.gpr != 1 {
		t.Errorf("default GPR = %g, want 1", b.gpr)
	}
	if b.cfg.GPR != 1 {
		t.Errorf("solve config GPR = %g, want unit (responses scale at request time)", b.cfg.GPR)
	}
	if b.cfg.BEM.SeriesTol != 1e-7 {
		t.Errorf("default series tolerance = %g, want 1e-7", b.cfg.BEM.SeriesTol)
	}
}
