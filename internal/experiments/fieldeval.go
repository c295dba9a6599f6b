package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"earthing/internal/bem"
	"earthing/internal/fsio"
	"earthing/internal/geom"
)

// FieldEvalBench records the batched field-evaluation benchmark on the
// Figure 5.4 Balaidos raster (soil model B): the FieldEvaluator on surface
// points, single thread and parallel. All ns/point figures are minima over
// Quality.Repeats.
type FieldEvalBench struct {
	// Model names the soil case ("B" — the two-layer Balaidos model).
	Model string `json:"model"`
	// NX, NY, Points describe the raster (Points = NX·NY).
	NX     int `json:"nx"`
	NY     int `json:"ny"`
	Points int `json:"points"`
	// Elements is the BEM element count of the discretized grid.
	Elements int `json:"elements"`

	// BatchNsPerPoint is the single-thread per-point cost of the evaluator.
	BatchNsPerPoint float64 `json:"batch_ns_per_point"`

	// Workers is the parallel width of the parallel batch run.
	Workers int `json:"workers"`
	// ParallelNsPerPoint is the wall per-point cost of the parallel batch.
	ParallelNsPerPoint float64 `json:"parallel_ns_per_point"`
	// PointsPerSec is the parallel batch throughput.
	PointsPerSec float64 `json:"points_per_sec"`
	// PredictedSpeedup is the load-balance-limited Σbusy/max(busy) of the
	// parallel run (the paper's predicted-speed-up column).
	PredictedSpeedup float64 `json:"predicted_speedup"`
	// MeasuredSpeedup = BatchNsPerPoint / ParallelNsPerPoint.
	MeasuredSpeedup float64 `json:"measured_speedup"`
}

// RunFieldEval measures the field-evaluation engine on the Figure 5.4 raster
// geometry: nx×ny surface points over the Balaidos bounds plus the figure's
// 20 m margin (defaults 56×44), soil model B, scale GPR/10⁴ like the paper's
// contour labels. workers ≤ 0 selects GOMAXPROCS for the parallel run.
func RunFieldEval(q Quality, workers, nx, ny int) (FieldEvalBench, error) {
	q = q.withDefaults()
	if nx <= 0 {
		nx = 56
	}
	if ny <= 0 {
		ny = 44
	}
	c := BalaidosModels()[1] // model B: the two-layer case of Figure 5.4
	res, err := AnalyzeBalaidos(c, q, workers)
	if err != nil {
		return FieldEvalBench{}, err
	}
	a := res.Assembler()
	sigma := res.Sigma
	scale := res.GPR / 10_000

	const margin = 20.0 // the Figure 5.2/5.4 raster margin
	b := res.Mesh.Bounds()
	x0, y0 := b.Min.X-margin, b.Min.Y-margin
	x1, y1 := b.Max.X+margin, b.Max.Y+margin
	pts := make([]geom.Vec3, nx*ny)
	for j := 0; j < ny; j++ {
		y := y0 + float64(j)*(y1-y0)/float64(ny-1)
		for i := 0; i < nx; i++ {
			pts[j*nx+i] = geom.V(x0+float64(i)*(x1-x0)/float64(nx-1), y, 0)
		}
	}

	out := FieldEvalBench{
		Model: c.Name, NX: nx, NY: ny, Points: len(pts),
		Elements: len(res.Mesh.Elements),
	}

	fe := a.Evaluator()
	batch := make([]float64, len(pts))
	fe.PotentialAt(pts[0], sigma) // build the plan outside the timings
	serialWall, err := minDuration(q.Repeats, func() (time.Duration, error) {
		st := fe.PotentialBatch(pts, sigma, scale, batch, bem.BatchOptions{Workers: 1})
		return st.Wall, nil
	})
	if err != nil {
		return out, err
	}

	var parStats bem.BatchStats
	parWall, err := minDuration(q.Repeats, func() (time.Duration, error) {
		st := fe.PotentialBatch(pts, sigma, scale, batch, bem.BatchOptions{Workers: workers})
		parStats = st
		return st.Wall, nil
	})
	if err != nil {
		return out, err
	}

	n := float64(len(pts))
	out.BatchNsPerPoint = float64(serialWall.Nanoseconds()) / n
	out.Workers = parStats.Sched.Workers
	out.ParallelNsPerPoint = float64(parWall.Nanoseconds()) / n
	out.PointsPerSec = n / parWall.Seconds()
	out.PredictedSpeedup = parStats.PredictedSpeedup()
	out.MeasuredSpeedup = out.BatchNsPerPoint / out.ParallelNsPerPoint
	return out, nil
}

// FieldEval prints the field-evaluation benchmark and, when jsonPath is
// non-empty, writes the FieldEvalBench record there as JSON
// (BENCH_field_eval.json in the repo convention).
func FieldEval(out io.Writer, q Quality, workers, nx, ny int, jsonPath string) (err error) {
	w, flush := buffered(out)
	defer flush(&err)

	fb, err := RunFieldEval(q, workers, nx, ny)
	if err != nil {
		return err
	}
	header(w, "Field evaluation — Fig 5.4 Balaidos raster, batched engine")
	fmt.Fprintf(w, "model %s, %d×%d = %d points, %d elements\n",
		fb.Model, fb.NX, fb.NY, fb.Points, fb.Elements)
	fmt.Fprintf(w, "batch engine (1 thread): %10.0f ns/point\n", fb.BatchNsPerPoint)
	fmt.Fprintf(w, "batch engine (%d workers): %8.0f ns/point   (%.0f points/s, measured %.2f×, predicted %.2f×)\n",
		fb.Workers, fb.ParallelNsPerPoint, fb.PointsPerSec, fb.MeasuredSpeedup, fb.PredictedSpeedup)
	if jsonPath == "" {
		return nil
	}
	if err := fsio.WriteFile(jsonPath, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(fb)
	}); err != nil {
		return err
	}
	fmt.Fprintln(w, "JSON written to", jsonPath)
	return nil
}
