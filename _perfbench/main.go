// Command perfbench is the earthing repository's benchmark. It runs one
// seeded workload against the library, the groundd server and the layers
// below them, checks the outputs, and prints every metric by name and unit.
//
//	perfbench [-root <repo>] --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out results.jsonl]
//	perfbench [-root <repo>] --workload all --seed <n>
//	perfbench [-root <repo>] compare base.jsonl change.jsonl
//	perfbench refs
//
// The last line of a run's standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of
// BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
// line before it, prefixed "perfbench-record ", is the full record: the
// environment header, every metric of the workload and the checks' notes.
// README.md in this directory documents the workloads, metrics and
// predictions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

const (
	// workers is the parallel width of every workload (the benchmark host
	// has two cores; GOMAXPROCS and nproc are recorded beside it).
	workers = 2
	// seriesTol is the image-series tolerance of every analysis.
	seriesTol = 1e-7
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median.
	setupReps = 5
)

func main() {
	args := os.Args[1:]
	root := ".."
	if len(args) >= 2 && (args[0] == "-root" || args[0] == "--root") {
		root, args = args[1], args[2:]
	}
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			os.Exit(compareMain(root, args[1:]))
		case "refs":
			os.Exit(refsMain())
		}
	}
	os.Exit(runMain(root, args))
}

func runMain(root string, args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "length of the measured phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := fs.String("out", "", "append the full record as one JSON line to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(args, root)
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, workloadNames())
		return 2
	}
	absRoot, err := filepath.Abs(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	in := inputs{seed: *seed, scratch: filepath.Join(absRoot, ".bench_build", "perfbench")}
	if err := os.MkdirAll(in.scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	defer removeFixtures()
	ctx := context.Background()
	var rec *record
	if *traceFlag == 1 {
		rec, err = runTraced(ctx, w, in, *seconds)
	} else {
		rec, err = runTimed(ctx, w, in, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec.Env = environment(absRoot, *seed)
	rec.Seconds = *seconds
	if err := emit(rec, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process (peak memory is a
// per-process figure), one after the other, forwarding their output.
func runAll(args []string, root string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		child := []string{"-root", root}
		for i := 0; i < len(args); i++ {
			a := args[i]
			if a == "--workload" || a == "-workload" {
				i++
				continue
			}
			child = append(child, a)
		}
		child = append(child, "--workload", w.name)
		cmd := exec.Command(self, child...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// record is the full result of one run.
type record struct {
	Env       envHeader         `json:"env"`
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Seconds   int               `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   metrics           `json:"metrics"`
	Tail      *tail             `json:"latency_tail,omitempty"`
	Sources   map[string]string `json:"layer_sources,omitempty"`
	Layer     *layerCheck       `json:"layer_check,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
}

// summaryLine is the last line of a run: the metrics BENCHMARK.json declares
// for the run's mode, and the counts.
type summaryLine struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func emit(rec *record, out string) error {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Printf("metric %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range rec.Notes {
		fmt.Println("note", n)
	}
	full, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench-record %s\n", full)
	if out != "" {
		f, err := os.OpenFile(out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		_, werr := f.Write(append(full, '\n'))
		if err := errors.Join(werr, f.Close()); err != nil {
			return err
		}
	}
	declared := endToEnd
	if rec.Trace {
		declared = perLayer
	}
	line := summaryLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: metrics{}}
	for _, d := range declared {
		m, ok := rec.Metrics[d.name]
		if !ok {
			return fmt.Errorf("workload %s did not report declared metric %s", rec.Workload, d.name)
		}
		line.Metrics[d.name] = m
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}
