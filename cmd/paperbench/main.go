// Command paperbench regenerates every table and figure of the paper's
// evaluation on the reproduced system and prints them side by side with the
// published values. See EXPERIMENTS.md for the recorded comparison.
//
// Examples:
//
//	paperbench                  # everything, full fidelity (minutes)
//	paperbench -quick           # everything, reduced series tolerance
//	paperbench -exp table5.1    # a single experiment
//	paperbench -exp fig5.2 -out figures/   # also write CSV + SVG artifacts
//
// Experiments: barbera, table5.1, table6.1, table6.2, table6.3, fig5.1,
// fig5.2, fig5.3, fig5.4, fig6.1, fieldeval, sweep, assembly, hmatrix,
// optimize, ablation-assembly, ablation-tol, ablation-solver,
// ablation-elements, ablation-threelayer, ablation-grading, baseline-fdm,
// all.
//
// The fieldeval experiment benchmarks the batched field-evaluation engine on
// the Figure 5.4 raster; with -json it records the result as
// BENCH_field_eval.json (or the given path). The sweep experiment benchmarks
// the multi-scenario batch engine (3 Balaidos soils × 3 GPR values) against
// a sequential Analyze loop; with -json it records BENCH_sweep.json. The
// assembly experiment benchmarks flat-kernel matrix generation and the
// full- and mixed-precision Cholesky factorizations on Balaidos soils C and
// B; with -json it records BENCH_assembly.json. The hmatrix experiment sweeps the compressed solver
// over a 1k–20k DoF ladder of interconnected grids against the extrapolated
// dense cost; with -json it records BENCH_hmatrix.json. The optimize
// experiment benchmarks the grid-synthesis design loop on a Balaidos-class
// site against naive per-candidate solves; with -json it records
// BENCH_optimize.json.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"earthing/internal/experiments"
	"earthing/internal/fsio"
	"earthing/internal/grid"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

// run parses args and executes the selected experiments, writing tables to
// stdout. Factored out of main so the end-to-end tests can drive the CLI
// in-process against golden transcripts.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "all", "experiment id (see doc comment)")
		quick   = fs.Bool("quick", false, "reduced fidelity (series tol 1e-4)")
		out     = fs.String("out", "", "directory for figure artifacts (CSV/SVG)")
		procs   = fs.String("procs", "1,2,4,8", "worker counts for the parallel tables")
		repeats = fs.Int("repeats", 1, "timing repetitions (paper used min of 4)")
		jsonOut = fs.String("json", "", "benchmark JSON path for -exp fieldeval, sweep, assembly, hmatrix or optimize (e.g. BENCH_optimize.json)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	q := experiments.Default()
	if *quick {
		q = experiments.Quick()
	}
	if *repeats < 1 {
		return fmt.Errorf("-repeats %d must be at least 1", *repeats)
	}
	q.Repeats = *repeats

	workers, err := parseProcs(*procs)
	if err != nil {
		return err
	}
	return runExperiments(stdout, *exp, q, workers, *out, *jsonOut)
}

func parseProcs(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -procs entry %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func runExperiments(w io.Writer, exp string, q experiments.Quality, workers []int, out, jsonOut string) error {
	all := exp == "all"
	ran := false
	do := func(id string, f func() error) error {
		if !all && exp != id {
			return nil
		}
		ran = true
		return f()
	}

	steps := []struct {
		id string
		f  func() error
	}{
		{"fig5.1", func() error { return planFigure(w, out, "fig5.1-barbera.svg", grid.Barbera()) }},
		{"fig5.3", func() error { return planFigure(w, out, "fig5.3-balaidos.svg", grid.Balaidos()) }},
		{"barbera", func() error { return experiments.BarberaSummary(w, q, 0) }},
		{"table5.1", func() error { return experiments.Table51(w, q, 0) }},
		{"fig5.2", func() error { return experiments.Fig52(w, q, 0, out, 0, 0) }},
		{"fig5.4", func() error { return experiments.Fig54(w, q, 0, out, 0, 0) }},
		{"table6.1", func() error { return experiments.Table61(w, q) }},
		{"fig6.1", func() error { return experiments.Fig61(w, q, workers) }},
		{"fieldeval", func() error { return experiments.FieldEval(w, q, 0, 0, 0, jsonOut) }},
		{"sweep", func() error { return experiments.SweepEngine(context.Background(), w, q, 0, jsonOut) }},
		{"assembly", func() error { return experiments.AssemblyKernels(w, q, 0, jsonOut) }},
		{"hmatrix", func() error { return experiments.HMatrixScaling(w, q, 0, jsonOut) }},
		{"optimize", func() error { return experiments.OptimizeLoop(context.Background(), w, q, 0, jsonOut) }},
		{"table6.2", func() error { return experiments.Table62(w, q, workers) }},
		{"table6.3", func() error { return experiments.Table63(w, q, workers) }},
		{"ablation-assembly", func() error { return experiments.AblationAssembly(w, q, workers) }},
		{"ablation-tol", func() error { return experiments.AblationSeriesTol(w, 0) }},
		{"ablation-solver", func() error { return experiments.AblationSolver(w, q) }},
		{"ablation-elements", func() error { return experiments.AblationElements(w) }},
		{"ablation-threelayer", func() error { return experiments.AblationThreeLayer(w) }},
		{"baseline-fdm", func() error { return experiments.BaselineFDM(w) }},
		{"ablation-grading", func() error { return experiments.AblationGrading(w, q) }},
	}
	for _, s := range steps {
		if err := do(s.id, s.f); err != nil {
			return fmt.Errorf("%s: %w", s.id, err)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// planFigure draws a grid plan SVG (Figures 5.1 and 5.3). Without -out it
// just summarises the plan on stdout.
func planFigure(w io.Writer, dir, name string, g *grid.Grid) error {
	//lint:ignore errdrop transcript status line; a failed console write has no recovery path
	fmt.Fprintf(w, "\n== %s: %d conductors (%d rods), bounds %.0f x %.0f m ==\n",
		name, len(g.Conductors), g.NumRods(), g.Bounds().Size().X, g.Bounds().Size().Y)
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return fsio.WriteFile(filepath.Join(dir, name), func(f io.Writer) error {
		return experiments.PlanSVG(f, g)
	})
}
