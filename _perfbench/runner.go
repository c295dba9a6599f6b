package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// decl is a metric BENCHMARK.json declares: its name and unit. The lists
// mirror BENCHMARK.json (TestDeclaredMetricsMatchBenchmarkJSON pins that).
type decl struct{ name, unit string }

// endToEnd are the metrics every workload reports with tracing off.
var endToEnd = []decl{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics every traced run reports. A workload supplies the
// layers it exercises; the traced run fills the rest from one traced op of
// the workload that owns them (record.Sources names the source).
var perLayer = []decl{
	{"core.preprocess_ms", "ms"},
	{"grid.elements", "count"},
	{"grid.dof", "count"},
	{"bem.setup_ms", "ms"},
	{"bem.matgen_ms.A", "ms"},
	{"bem.matgen_ms.B", "ms"},
	{"bem.matgen_ms.C", "ms"},
	{"bem.matgen_ms.three-layer", "ms"},
	{"bem.pairs_per_s", "1/s"},
	{"bem.pair_near_ns", "ns"},
	{"bem.pair_far_ns", "ns"},
	{"sched.imbalance", "1"},
	{"sched.utilization", "1"},
	{"linalg.solve_ms", "ms"},
	{"linalg.cg_iters", "count"},
	{"hmatrix.build_ms", "ms"},
	{"hmatrix.solve_ms", "ms"},
	{"hmatrix.cg_iters", "count"},
	{"hmatrix.dense_blocks", "count"},
	{"hmatrix.low_rank_blocks", "count"},
	{"hmatrix.avg_rank", "1"},
	{"hmatrix.max_rank", "count"},
	{"hmatrix.compression", "1"},
	{"post.raster_ms", "ms"},
	{"post.points_per_s", "1/s"},
	{"post.voltages_ms", "ms"},
	{"server.lru_hit_ratio", "1"},
	{"server.tier_share.lru", "1"},
	{"server.tier_share.store", "1"},
	{"server.tier_share.solve", "1"},
	{"server.assemble_ms_mean", "ms"},
	{"server.post_ms_mean", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.resp_bytes.raster", "B"},
	{"store.hit_ratio", "1"},
	{"store.rehydrate_ms", "ms"},
	{"designopt.requested", "count"},
	{"designopt.evaluated", "count"},
	{"designopt.cache_hit_ratio", "1"},
	{"designopt.generations", "count"},
	{"designopt.eval_ms", "ms"},
	{"sweep.amortization", "x"},
	{"trace.overhead_ms", "ms"},
	{"trace.layer_sum_gap", "1"},
}

// inputs is what every workload is built from: the seed, and the directory
// inside the source tree where it may write.
type inputs struct {
	seed    int64
	scratch string
}

// bench is one set-up instance of a workload.
type bench interface {
	// op runs one user-visible operation for caller c, checks its output and
	// returns the latency the caller waited.
	op(ctx context.Context, c int) (time.Duration, error)
	// finish runs the checks that need the whole timed phase and adds the
	// workload's own end-to-end metrics to m. It returns how many completed
	// ops failed those checks.
	finish(ctx context.Context, lat []time.Duration, m metrics) (failed int, notes []string, err error)
	close() error
}

// traced is what a workload's traced replay yields.
type traced struct {
	layers    metrics
	check     layerCheck
	attempted int
	failed    int
	notes     []string
}

type workload struct {
	name    string
	clients int
	setup   func(ctx context.Context, in inputs) (bench, error)
	// trace alternates untraced ops with traced replays for budget (at
	// least one pair) and returns the per-layer metrics of the replays.
	trace func(ctx context.Context, in inputs, tr *tracer, budget time.Duration) (traced, error)
}

var workloads = []*workload{
	{name: "paper-balaidos", clients: 1, setup: setupBalaidos, trace: traceBalaidos},
	{name: "interconnect-hmatrix", clients: 1, setup: setupInterconnect, trace: traceInterconnect},
	{name: "design-loop", clients: 1, setup: setupDesign, trace: traceDesign},
	{name: "groundd-mix", clients: 2, setup: setupGroundd, trace: traceGroundd},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runTimed is a run with tracing off: set up setupReps times (setup_s is the
// median), then let the workload's closed-loop callers issue ops until the
// measured phase ends, then check and summarize.
func runTimed(ctx context.Context, w *workload, in inputs, seconds int) (*record, error) {
	var setups []float64
	var b bench
	for i := 0; i < setupReps; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, fmt.Errorf("%s: close after setup: %w", w.name, err)
			}
		}
		start := time.Now()
		nb, err := w.setup(ctx, in)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		b = nb
	}

	var (
		mu        sync.Mutex
		lats      []time.Duration
		attempted int
		failed    int
		errs      []string
		wg        sync.WaitGroup
	)
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if w.clients == 1 {
					// Start every op of a single caller from the same heap
					// state, so the collector's pacing does not carry one
					// op's history into the next.
					runtime.GC()
				}
				lat, err := b.op(ctx, c)
				mu.Lock()
				attempted++
				if err != nil {
					failed++
					if len(errs) < 5 {
						errs = append(errs, err.Error())
					}
				} else {
					lats = append(lats, lat)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	// The checks after the timed phase allocate too; they are not the
	// workload's memory.
	rss := peakRSSMiB()

	rec := &record{Workload: w.name, Metrics: metrics{}}
	late, notes, err := b.finish(ctx, lats, rec.Metrics)
	cerr := b.close()
	if err != nil {
		return nil, fmt.Errorf("%s: finish: %w", w.name, err)
	}
	if cerr != nil {
		return nil, fmt.Errorf("%s: close: %w", w.name, cerr)
	}
	failed += late
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", e)
	}

	rec.Attempted, rec.Failed = attempted, failed
	rec.Correct = failed == 0 && len(lats) > 0
	rec.Notes = append(rec.Notes, notes...)
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	latMs := msAll(lats)
	t := tailOf(latMs)
	rec.Tail = &t
	m := rec.Metrics
	m.set("setup_s", median(setups), "s")
	ops := 0.0 // every op failed: still report, with correct false
	if sum > 0 {
		ops = float64(w.clients) * float64(len(lats)) / sum.Seconds()
	}
	m.set("ops_per_s", ops, "op/s")
	m.set("latency_p50_ms", median(latMs), "ms")
	m.set("latency_tail_ms", t.Value, "ms")
	m.set("failed_ratio", float64(failed)/float64(max(attempted, 1)), "1")
	m.set("peak_rss_mb", rss, "MiB")
	rec.Notes = append(rec.Notes, fmt.Sprintf("latency_tail_ms is p%.1f of %d ops (%d beyond)", t.Percentile, t.Samples, t.Beyond))
	return rec, nil
}

// runTraced is the separate traced run: the named workload's replay runs for
// the measured phase, then one traced op of every other workload supplies
// the per-layer metrics of layers the named workload does not touch. Spans
// are written to <scratch>/spans at the end.
func runTraced(ctx context.Context, w *workload, in inputs, seconds int) (*record, error) {
	tr := newTracer()
	rec := &record{Workload: w.name, Trace: true, Metrics: metrics{}, Sources: map[string]string{}}
	order := []*workload{w}
	for _, o := range workloads {
		if o != w {
			order = append(order, o)
		}
	}
	for i, o := range order {
		budget := time.Duration(0)
		if i == 0 {
			budget = time.Duration(seconds) * time.Second
		}
		t, err := o.trace(ctx, in, tr, budget)
		if err != nil {
			return nil, fmt.Errorf("%s: traced replay: %w", o.name, err)
		}
		for k, v := range t.layers {
			if _, ok := rec.Metrics[k]; !ok {
				rec.Metrics[k] = v
				rec.Sources[k] = o.name
			}
		}
		rec.Attempted += t.attempted
		rec.Failed += t.failed
		for _, n := range t.notes {
			rec.Notes = append(rec.Notes, o.name+": "+n)
		}
		if i == 0 {
			c := t.check
			rec.Layer = &c
			rec.Metrics.set("trace.overhead_ms", c.overheadMs(), "ms")
			rec.Metrics.set("trace.layer_sum_gap", c.gap(), "1")
			rec.Sources["trace.overhead_ms"], rec.Sources["trace.layer_sum_gap"] = w.name, w.name
			rec.Notes = append(rec.Notes, fmt.Sprintf(
				"layer self times sum to %.1f ms against %.1f ms untraced (gap %.3f, margin %.2f); traced op %.1f ms",
				median(c.LayerSumMs), median(c.UntracedMs), c.gap(), layerSumMargin, median(c.TracedMs)))
			if !c.ok() {
				rec.Failed++
				rec.Notes = append(rec.Notes, "layer-sum check failed")
			}
		}
	}
	for _, d := range perLayer {
		if _, ok := rec.Metrics[d.name]; !ok {
			return nil, fmt.Errorf("traced run produced no %s", d.name)
		}
	}
	rec.Correct = rec.Failed == 0 && rec.Attempted > 0
	path := filepath.Join(in.scratch, "spans", fmt.Sprintf("%s-seed%d.json", w.name, in.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rec.Notes = append(rec.Notes, "spans written to "+path)
	return rec, nil
}

// pairLoop alternates an untraced op with a traced replay until budget has
// passed, at least once, and collects the layer check. Each step returns
// its op time; traced steps also return their root span id.
func pairLoop(budget time.Duration, tr *tracer, untraced func() (time.Duration, error), replay func() (time.Duration, int64, error)) (layerCheck, int, error) {
	var c layerCheck
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < budget {
		u, err := untraced()
		if err != nil {
			return c, n, err
		}
		t, root, err := replay()
		if err != nil {
			return c, n, err
		}
		c.UntracedMs = append(c.UntracedMs, ms(u))
		c.TracedMs = append(c.TracedMs, ms(t))
		c.LayerSumMs = append(c.LayerSumMs, ms(layerSum(tr.snapshot(), root)))
		n++
	}
	return c, n, nil
}
