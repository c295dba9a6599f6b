package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/fsio"
	"earthing/internal/grid"
	"earthing/internal/linalg"
)

// AssemblyCaseBench records the hot-path benchmark for one Balaidos soil
// case: flat-kernel matrix generation at one and at the configured worker
// width, and the full- and mixed-precision packed Cholesky factorizations.
// Times are minima over Quality.Repeats.
type AssemblyCaseBench struct {
	// Soil is the §5.2 case name (A/B/C).
	Soil string `json:"soil"`
	// Elements and DoF describe the discretization for this case.
	Elements int `json:"elements"`
	DoF      int `json:"dof"`

	// Assembly wall times, single-thread and parallel.
	AssemblyMs    float64 `json:"assembly_ms"`
	AssemblyParMs float64 `json:"assembly_parallel_ms"`

	// Single-thread factorization wall times.
	FactorBlockedMs float64 `json:"factor_blocked_ms"`
	FactorMixedMs   float64 `json:"factor_mixed_ms"`

	// Req is the grid resistance through the full-precision Cholesky (Ω).
	Req float64 `json:"req_ohm"`
	// MaxAbsDiffReqMixed is |ΔReq| of the mixed-precision path against the
	// full-precision factorization (contract: ≤ 1e-10 relative; in Ω).
	MaxAbsDiffReqMixed float64 `json:"max_abs_diff_req_mixed_ohm"`
}

// AssemblyBench is the BENCH_assembly.json record: the hot-path benchmark on
// the Balaidos grid under soil cases C and B. Case C — the paper's central
// two-layer Balaidos analysis, whose rods cross the interface and exercise
// both layer image ladders — is the headline: its 4-image equal-weight
// groups are the workload the flat kernel's fused-logarithm path targets.
// Case B (grid below the interface, single-image groups) has no fusion
// opportunity.
type AssemblyBench struct {
	// Workers is the parallel width of the *_parallel_ms rows.
	Workers int `json:"workers"`

	Cases []AssemblyCaseBench `json:"cases"`
}

// reqOf solves r·σ = ν and reduces to the grid resistance, mirroring the
// engine's results stage, with the factorization configured by opt.
func reqOf(m *grid.Mesh, r *linalg.SymMatrix, opt linalg.FactorOpts) (float64, error) {
	ch, err := linalg.NewCholesky(r, opt)
	if err != nil {
		return 0, err
	}
	sigma, err := ch.Solve(bem.RHS(m))
	if err != nil {
		return 0, err
	}
	return 1 / bem.TotalCurrent(m, sigma), nil
}

// timeAssembly builds a fresh assembler under opt and times Matrix(),
// returning the minimum wall time over repeats and the last matrix.
func timeAssembly(m *grid.Mesh, c SoilCase, opt bem.Options, repeats int) (time.Duration, *linalg.SymMatrix, error) {
	var r *linalg.SymMatrix
	d, err := minDuration(repeats, func() (time.Duration, error) {
		asm, err := bem.New(m, c.Model, opt)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		r, _, err = asm.Matrix()
		return time.Since(t0), err
	})
	return d, r, err
}

// runAssemblyCase measures one soil case at the given single-thread and
// parallel widths.
func runAssemblyCase(c SoilCase, q Quality, workers int) (AssemblyCaseBench, error) {
	mesh, _, err := core.BuildMesh(grid.Balaidos(), c.Model, core.Config{RodElements: c.RodElements})
	if err != nil {
		return AssemblyCaseBench{}, err
	}
	out := AssemblyCaseBench{Soil: c.Name, Elements: len(mesh.Elements)}

	// The single-thread matrix is kept: it feeds the factorization timings
	// and the accuracy checks.
	wall, r, err := timeAssembly(mesh, c, q.bemOptions(1), q.Repeats)
	if err != nil {
		return out, err
	}
	parWall, _, err := timeAssembly(mesh, c, q.bemOptions(workers), q.Repeats)
	if err != nil {
		return out, err
	}
	out.DoF = r.Order()
	out.AssemblyMs = ms(wall)
	out.AssemblyParMs = ms(parWall)

	// Single-thread factorizations. NewCholesky copies the input into the
	// factor, so repeated timing is sound.
	full := linalg.FactorOpts{Workers: 1}
	mixed := linalg.FactorOpts{Workers: 1, Mixed: true}
	factorBlk, err := minDuration(q.Repeats, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := linalg.NewCholesky(r, full)
		return time.Since(t0), err
	})
	if err != nil {
		return out, err
	}
	factorMix, err := minDuration(q.Repeats, func() (time.Duration, error) {
		t0 := time.Now()
		_, err := linalg.NewCholesky(r, mixed)
		return time.Since(t0), err
	})
	if err != nil {
		return out, err
	}
	out.FactorBlockedMs = ms(factorBlk)
	out.FactorMixedMs = ms(factorMix)

	// The mixed-precision accuracy contract against the full-precision
	// factorization.
	if out.Req, err = reqOf(mesh, r, full); err != nil {
		return out, err
	}
	reqMix, err := reqOf(mesh, r, mixed)
	if err != nil {
		return out, err
	}
	out.MaxAbsDiffReqMixed = abs(reqMix - out.Req)
	return out, nil
}

// RunAssemblyBench measures matrix generation and the factorization variants
// on the Balaidos workload, soil cases C (headline) then B. workers ≤ 0 selects
// GOMAXPROCS for the parallel assembly rows (the single-thread rows always
// run at one worker).
func RunAssemblyBench(q Quality, workers int) (AssemblyBench, error) {
	q = q.withDefaults()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := AssemblyBench{Workers: workers}
	models := BalaidosModels()
	for _, c := range []SoilCase{models[2], models[1]} {
		cb, err := runAssemblyCase(c, q, workers)
		if err != nil {
			return out, fmt.Errorf("soil %s: %w", c.Name, err)
		}
		out.Cases = append(out.Cases, cb)
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// AssemblyKernels prints the assembly/solve raw-speed benchmark and, when
// jsonPath is non-empty, writes the AssemblyBench record there as JSON
// (BENCH_assembly.json in the repo convention).
func AssemblyKernels(out io.Writer, q Quality, workers int, jsonPath string) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	ab, err := RunAssemblyBench(q, workers)
	if err != nil {
		return err
	}
	header(w, "Assembly/solve hot path — Balaidos, flat kernel + full/mixed-precision Cholesky")
	for _, cb := range ab.Cases {
		fmt.Fprintf(w, "soil %s: %d elements, %d DoF\n", cb.Soil, cb.Elements, cb.DoF)
		fmt.Fprintf(w, "  assembly: 1 thread %9.1f ms   %2d threads %9.1f ms  (%.2f×)\n",
			cb.AssemblyMs, ab.Workers, cb.AssemblyParMs, cb.AssemblyMs/cb.AssemblyParMs)
		fmt.Fprintf(w, "  factor     1 thread: full %9.2f ms   mixed %6.2f ms\n",
			cb.FactorBlockedMs, cb.FactorMixedMs)
		fmt.Fprintf(w, "  Req %.6f Ω; |ΔReq| mixed %.3g Ω\n", cb.Req, cb.MaxAbsDiffReqMixed)
	}
	if jsonPath == "" {
		return nil
	}
	if err := fsio.WriteFile(jsonPath, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(ab)
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "JSON written to", jsonPath)
	return nil
}
