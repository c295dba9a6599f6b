package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the compare mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of the compare mode.
const (
	improved    = "improved"
	worse       = "worse"
	withinBound = "within bound"
	unresolved  = "unresolved"
)

// minPairs is the fewest alternating base/change pairs a verdict rests on.
const minPairs = 10

// comparison is the verdict on one metric of one workload.
type comparison struct {
	Verdict      string
	Pairs        int
	Wins, Losses int
	BaseMedian   float64
	ChangeMedian float64
	BaseIQR      float64
}

// compareRuns applies the rule: a change improved a metric when it wins at
// least nine tenths of the pairs (ties count for neither side) and the
// medians differ by more than the base's interquartile range. It is worse
// when its median is worse by more than bound (a share of the base median)
// and that difference is resolved — the base spread is within the bound, or
// the change loses nine tenths of the pairs by more than the base's IQR. A
// base spread wider than the bound leaves the metric unresolved, unless
// every change run beats every base run. Otherwise it is within bound.
// base[i] and change[i] form pair i.
func compareRuns(base, change []float64, lowerIsBetter bool, bound float64) comparison {
	n := min(len(base), len(change))
	base, change = base[:n], change[:n]
	c := comparison{Pairs: n, BaseMedian: median(base), ChangeMedian: median(change)}
	q1, q3 := quartiles(base)
	c.BaseIQR = q3 - q1
	if n < minPairs {
		c.Verdict = unresolved
		return c
	}
	better := func(a, b float64) bool { // a reads better than b
		if lowerIsBetter {
			return a < b
		}
		return a > b
	}
	for i := range base {
		switch {
		case better(change[i], base[i]):
			c.Wins++
		case better(base[i], change[i]):
			c.Losses++
		}
	}
	gain := c.ChangeMedian - c.BaseMedian
	if lowerIsBetter {
		gain = -gain
	}
	spread := c.BaseIQR / math.Abs(c.BaseMedian)
	allBetter := true
	for _, x := range change {
		for _, y := range base {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case 10*c.Wins >= 9*n && gain > c.BaseIQR:
		c.Verdict = improved
	case -gain > bound*math.Abs(c.BaseMedian) && (spread <= bound || (10*c.Losses >= 9*n && -gain > c.BaseIQR)):
		c.Verdict = worse
	case spread > bound && !allBetter:
		c.Verdict = unresolved
	default:
		c.Verdict = withinBound
	}
	return c
}

// readRecords reads the timed (untraced) records of a JSON-lines result set
// in file order, grouped by workload. Lines that are not records are
// skipped, so the raw standard output of runs can be used as well.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) > len(recordPrefix) && string(line[:len(recordPrefix)]) == recordPrefix {
			line = line[len(recordPrefix):]
		}
		var r record
		if json.Unmarshal(line, &r) != nil || r.Workload == "" || r.Trace {
			continue
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

const recordPrefix = "perfbench-record "

// compareMain prints, per workload and per end-to-end metric, the verdict
// on a change's result set against a base result set, with the bounds of
// the tree's BENCHMARK.json. Both sets should come from alternating runs
// (base, change, base, change, ...) of the same seeds.
func compareMain(root string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare base.jsonl change.jsonl")
		return 2
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	base, err := readRecords(args[0])
	if err == nil {
		var change map[string][]record
		change, err = readRecords(args[1])
		if err == nil {
			printComparison(bf, base, change)
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 2
}

func printComparison(bf benchmarkFile, base, change map[string][]record) {
	var names []string
	for w := range base {
		if _, ok := change[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	for _, w := range names {
		fmt.Printf("%s (%d base runs, %d change runs)\n", w, len(base[w]), len(change[w]))
		for _, d := range bf.EndToEnd {
			col := func(rs []record) []float64 {
				var xs []float64
				for _, r := range rs {
					if m, ok := r.Metrics[d.Name]; ok {
						xs = append(xs, m.Value)
					}
				}
				return xs
			}
			c := compareRuns(col(base[w]), col(change[w]), d.Better == "lower", d.Bound)
			ratio := math.NaN()
			if c.BaseMedian != 0 {
				ratio = c.ChangeMedian / c.BaseMedian
			}
			fmt.Printf("  %-16s %-12s change/base %.4f (base median %.6g %s, IQR %.3g; change median %.6g %s; %d pairs, change better in %d, worse in %d; bound %.0f%% of base)\n",
				d.Name, c.Verdict, ratio, c.BaseMedian, d.Unit, c.BaseIQR, c.ChangeMedian, d.Unit,
				c.Pairs, c.Wins, c.Losses, 100*d.Bound)
		}
	}
}

// refsMain recomputes the interconnect-hmatrix dense reference and compares
// it with the constant the workload checks against.
func refsMain() int {
	req, err := denseInterconnectReq(context.Background(), interconnectGrid)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rel := math.Abs(req-interconnectRef) / interconnectRef
	fmt.Printf("grid %d: dense Req %.17g, constant %.17g, relative difference %.3g\n", interconnectGrid, req, interconnectRef, rel)
	if rel > 1e-9 {
		return 1
	}
	return 0
}
