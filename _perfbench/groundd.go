package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"earthing"
	"earthing/internal/bem"
	"earthing/internal/core"
	"earthing/internal/server"
	"earthing/internal/store"
)

const (
	// streamLen is the number of requests generated per run; a run that
	// outlasts it wraps around.
	streamLen = 20_000
	// checkFresh caps how many fresh scenarios per soil kind a run re-solves
	// directly to check the server's answers (every working-set answer is
	// checked).
	checkFresh = 6
	// checkRasters and checkSafety cap the post-processing answers checked.
	checkRasters = 4
	checkSafety  = 2
)

// safetyCriteria are the IEEE Std 80 inputs of every /v1/safety request.
var safetyCriteria = server.CriteriaSpec{FaultDurationS: 0.5, SoilRho: 200, SurfaceRho: 3_000, SurfaceThicknessM: 0.1}

// grounddFixture is built once per process: the seeded stream, a durable
// store pre-filled with the solved working set, and direct analyses of the
// working set that the checks compare the server against.
type grounddFixture struct {
	mix      *mix
	storeDir string
	prefill  time.Duration
	direct   map[int]*earthing.Result
}

var (
	fixtureMu sync.Mutex
	fixtures  = map[int64]*grounddFixture{}
)

func fixtureFor(ctx context.Context, in inputs) (*grounddFixture, error) {
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if f, ok := fixtures[in.seed]; ok {
		return f, nil
	}
	tmp := filepath.Join(in.scratch, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, "groundd-store-")
	if err != nil {
		return nil, err
	}
	f := &grounddFixture{mix: newMix(in.seed, streamLen), storeDir: dir, direct: map[int]*earthing.Result{}}
	start := time.Now()
	srv, err := startServer(dir)
	if err != nil {
		return nil, err
	}
	for i := 0; i < workingSet; i++ {
		if _, err := srv.do(ctx, mixRequest{Kind: kindSolve, Scenario: i, GPR: 1}, f.mix); err != nil {
			srv.close()
			return nil, fmt.Errorf("pre-filling scenario %d: %w", i, err)
		}
	}
	if err := srv.close(); err != nil {
		return nil, err
	}
	f.prefill = time.Since(start)
	for i := 0; i < workingSet; i++ {
		res, err := directAnalyze(ctx, f.mix.scenarios[i])
		if err != nil {
			return nil, err
		}
		f.direct[i] = res
	}
	fixtures[in.seed] = f
	return f, nil
}

// removeFixtures deletes the fixtures' store directories.
func removeFixtures() {
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	for seed, f := range fixtures {
		os.RemoveAll(f.storeDir)
		delete(fixtures, seed)
	}
}

// scenarioGrid materializes a scenario's rect grid as the server does.
func scenarioGrid(sc server.Scenario) *earthing.Grid {
	r := sc.Grid.Rect
	g := earthing.RectGridGraded(r.X0, r.Y0, r.Width, r.Height, r.NX, r.NY, r.Depth, r.Radius, r.Beta)
	for _, rod := range r.Rods {
		g.AddRod(rod.X, rod.Y, rod.Top, rod.Length, rod.Radius)
	}
	return g
}

// scenarioConfig is the engine configuration groundd solves a scenario with
// (unit GPR, Cholesky, the default series tolerance, two workers).
func scenarioConfig(sc server.Scenario) earthing.Config {
	return earthing.Config{
		GPR:         1,
		MaxElemLen:  sc.MaxElemLen,
		RodElements: sc.RodElements,
		Solver:      earthing.Cholesky,
		BEM:         earthing.BEMOptions{Workers: workers, SeriesTol: seriesTol},
	}
}

// directAnalyze solves a scenario in-process, without the server.
func directAnalyze(ctx context.Context, sc server.Scenario) (*earthing.Result, error) {
	model, err := sc.Soil.Build()
	if err != nil {
		return nil, err
	}
	return earthing.Analyze(ctx, scenarioGrid(sc), model, scenarioConfig(sc))
}

// liveServer is an in-process groundd behind a loopback listener.
type liveServer struct {
	srv    *server.Server
	http   *http.Server
	served chan error
	url    string
	client *http.Client
}

func startServer(storeDir string) (*liveServer, error) {
	st, err := store.Open(storeDir, store.Options{})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{CacheEntries: lruEntries, Workers: workers, Store: st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{
		srv:    srv,
		http:   &http.Server{Handler: srv},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2}},
	}
	go func() { ls.served <- ls.http.Serve(ln) }()
	return ls, nil
}

func (ls *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.http.Shutdown(ctx)
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	ls.client.CloseIdleConnections()
	return errors.Join(err, ls.srv.Close())
}

// reply is one answered request.
type reply struct {
	req   mixRequest
	tier  string
	lat   time.Duration
	bytes int
	solve server.SolveResponse
	// V is the raster or the safety response's step/touch/mesh voltages.
	v []float64
}

// do sends one request of the stream and decodes the answer.
func (ls *liveServer) do(ctx context.Context, q mixRequest, m *mix) (reply, error) {
	sc := m.scenarios[q.Scenario]
	sc.GPR = q.GPR
	var body any
	switch q.Kind {
	case kindSolve:
		body = server.SolveRequest{Scenario: sc}
	case kindRaster:
		body = server.RasterRequest{Scenario: sc, NX: rasterN, NY: rasterN, Margin: rasterMargin}
	default:
		body = server.SafetyRequest{Scenario: sc, Criteria: safetyCriteria}
	}
	enc, err := json.Marshal(body)
	if err != nil {
		return reply{}, err
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ls.url+"/v1/"+q.Kind, bytes.NewReader(enc))
	if err != nil {
		return reply{}, err
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("/v1/%s: status %d: %s", q.Kind, resp.StatusCode, bytes.TrimSpace(data))
	}
	rep := reply{req: q, tier: resp.Header.Get("X-Groundd-Cache-Tier"), lat: lat, bytes: len(data)}
	switch q.Kind {
	case kindSolve:
		err = json.Unmarshal(data, &rep.solve)
	case kindRaster:
		var rr server.RasterResponse
		err = json.Unmarshal(data, &rr)
		rep.v = rr.V
	default:
		var sr server.SafetyResponse
		err = json.Unmarshal(data, &sr)
		rep.v = []float64{sr.StepV, sr.TouchV, sr.MeshV}
	}
	if err != nil {
		return reply{}, fmt.Errorf("/v1/%s: decoding answer: %w", q.Kind, err)
	}
	return rep, nil
}

func (ls *liveServer) stats(ctx context.Context) (server.Snapshot, error) {
	var s server.Snapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ls.url+"/v1/stats", nil)
	if err != nil {
		return s, err
	}
	resp, err := ls.client.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

type grounddBench struct {
	fx      *grounddFixture
	ls      *liveServer
	next    atomic.Int64
	mu      sync.Mutex
	replies []reply
}

// setupGroundd opens the pre-filled store, starts the server and its
// listener, and warms up with one /v1/solve per working-set scenario, each
// answered from the store, then one raster and one safety request on the
// most popular scenario.
func setupGroundd(ctx context.Context, in inputs) (bench, error) {
	fx, err := fixtureFor(ctx, in)
	if err != nil {
		return nil, err
	}
	ls, err := startServer(fx.storeDir)
	if err != nil {
		return nil, err
	}
	var warm []mixRequest
	for i := 0; i < workingSet; i++ {
		warm = append(warm, mixRequest{Kind: kindSolve, Scenario: i, GPR: 1})
	}
	warm = append(warm, mixRequest{Kind: kindRaster, GPR: 1}, mixRequest{Kind: kindSafety, GPR: 1})
	for _, q := range warm {
		if _, err := ls.do(ctx, q, fx.mix); err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up request: %w", err), ls.close())
		}
	}
	return &grounddBench{fx: fx, ls: ls}, nil
}

func (b *grounddBench) request(ctx context.Context) (reply, error) {
	i := int(b.next.Add(1)-1) % len(b.fx.mix.requests)
	return b.ls.do(ctx, b.fx.mix.requests[i], b.fx.mix)
}

// op is one HTTP request of the stream.
func (b *grounddBench) op(ctx context.Context, _ int) (time.Duration, error) {
	rep, err := b.request(ctx)
	if err != nil {
		return 0, err
	}
	b.mu.Lock()
	b.replies = append(b.replies, rep)
	b.mu.Unlock()
	return rep.lat, nil
}

// percentile is the nearest-rank percentile p of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// checker compares server answers with direct in-process analyses. Fresh
// scenarios never repeat, so their direct results are not kept.
type checker struct {
	fx       *grounddFixture
	fresh    map[string]int // fresh scenarios checked, by soil kind
	ulpDiffs int
}

// result returns the direct analysis a reply is checked against, or false
// when the reply's fresh scenario is past the per-kind check cap.
func (c *checker) result(ctx context.Context, sc int) (*earthing.Result, bool, error) {
	if r, ok := c.fx.direct[sc]; ok {
		return r, true, nil
	}
	kind := c.fx.mix.scenarios[sc].Soil.Kind
	if c.fresh[kind] >= checkFresh {
		return nil, false, nil
	}
	c.fresh[kind]++
	r, err := directAnalyze(ctx, c.fx.mix.scenarios[sc])
	return r, err == nil, err
}

// check verifies one reply; it returns false for a wrong answer.
func (c *checker) check(ctx context.Context, rep reply, post bool) (bool, error) {
	res, ok, err := c.result(ctx, rep.req.Scenario)
	if err != nil || !ok {
		return true, err
	}
	scaled, err := res.WithGPR(rep.req.GPR)
	if err != nil {
		return false, err
	}
	switch rep.req.Kind {
	case kindSolve:
		if math.Float64bits(rep.solve.ReqOhms) != math.Float64bits(res.Req) {
			return false, nil
		}
		got, want := rep.solve.CurrentAmps, scaled.Current
		switch {
		case got == want:
		case math.Nextafter(want, got) == got:
			c.ulpDiffs++
		default:
			return false, nil
		}
	case kindRaster:
		if !post {
			return true, nil
		}
		r, err := earthing.SurfacePotential(ctx, scaled, earthing.SurfaceOptions{NX: rasterN, NY: rasterN, Margin: rasterMargin, Workers: workers})
		if err != nil {
			return false, err
		}
		return bitsEqual(r.V, rep.v), nil
	default:
		if !post {
			return true, nil
		}
		v, err := earthing.ComputeVoltages(ctx, scaled, 0, earthing.SurfaceOptions{Workers: workers})
		if err != nil {
			return false, err
		}
		return bitsEqual([]float64{v.MaxStep, v.MaxTouch, v.MaxMesh}, rep.v), nil
	}
	return true, nil
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// finish checks the answers and reports the per-tier and per-endpoint
// latencies. Every /v1/solve answer on a working-set scenario, the first
// checkFresh fresh ones of each soil kind, the first checkRasters rasters
// and the first checkSafety safety answers are compared with direct
// analyses at the request's GPR.
func (b *grounddBench) finish(ctx context.Context, _ []time.Duration, m metrics) (int, []string, error) {
	b.mu.Lock()
	replies := append([]reply(nil), b.replies...)
	b.mu.Unlock()

	// The tier latencies are of /v1/solve answers alone: a raster or safety
	// answer served from the LRU still does its post-processing, which
	// raster_p50_ms and safety_p50_ms cover.
	byTier := map[string][]float64{}
	byKind := map[string][]float64{}
	for _, r := range replies {
		if r.req.Kind == kindSolve {
			byTier[r.tier] = append(byTier[r.tier], ms(r.lat))
		}
		byKind[r.req.Kind] = append(byKind[r.req.Kind], ms(r.lat))
	}
	set := func(name string, xs []float64, p float64) {
		if len(xs) > 0 {
			m.set(name, percentile(xs, p), "ms")
		}
	}
	set("hit_p99_ms", byTier["lru"], 99)
	set("store_p50_ms", byTier["store"], 50)
	set("cold_p50_ms", byTier["solve"], 50)
	set("raster_p50_ms", byKind[kindRaster], 50)
	set("safety_p50_ms", byKind[kindSafety], 50)
	m.set("prefill_s", b.fx.prefill.Seconds(), "s")

	c := &checker{fx: b.fx, fresh: map[string]int{}}
	failed, rasters, safety := 0, 0, 0
	for _, r := range replies {
		post := false
		switch r.req.Kind {
		case kindRaster:
			post = rasters < checkRasters
			rasters++
		case kindSafety:
			post = safety < checkSafety
			safety++
		}
		ok, err := c.check(ctx, r, post)
		if err != nil {
			return 0, nil, err
		}
		if !ok {
			failed++
		}
	}
	m.set("current_ulp_diffs", float64(c.ulpDiffs), "count")
	notes := []string{
		fmt.Sprintf("%d requests, %d raster and %d safety among them; /v1/solve served by tier: %d lru, %d store, %d solve",
			len(replies), len(byKind[kindRaster]), len(byKind[kindSafety]),
			len(byTier["lru"]), len(byTier["store"]), len(byTier["solve"])),
		fmt.Sprintf("%d /v1/solve answers give currentAmps one ulp away from a direct Analyze at the same GPR (groundd computes gpr/Req, the engine gpr·I₁); counted in current_ulp_diffs, not as failures", c.ulpDiffs),
	}
	return failed, notes, nil
}

func (b *grounddBench) close() error { return b.ls.close() }

// traceGroundd alternates blocks of untraced requests with traced ones (one
// client span per request, tagged with endpoint and tier, around the HTTP
// round trip), takes /v1/stats deltas over the phase, then calls the post,
// store and bem layers directly on sampled scenarios to separate HTTP and
// JSON overhead from the work the layers do.
func traceGroundd(ctx context.Context, in inputs, tr *tracer, budget time.Duration) (_ traced, err error) {
	const minBlocks = 2
	bb, err := setupGroundd(ctx, in)
	if err != nil {
		return traced{}, err
	}
	b := bb.(*grounddBench)
	defer func() {
		if cerr := b.close(); err == nil {
			err = cerr
		}
	}()
	before, err := b.ls.stats(ctx)
	if err != nil {
		return traced{}, err
	}
	// Untraced and traced requests alternate by whole blocks of the stream,
	// so both sides see the same endpoint and fresh-scenario mix.
	var reps []reply
	var check layerCheck
	n := 0
	start := time.Now()
	for n < minBlocks*mixBlock || time.Since(start) < budget {
		for i := 0; i < mixBlock; i++ {
			us := time.Now()
			u, err := b.request(ctx)
			if err != nil {
				return traced{}, err
			}
			check.UntracedMs = append(check.UntracedMs, ms(time.Since(us)))
			reps = append(reps, u)
		}
		for i := 0; i < mixBlock; i++ {
			root := tr.begin("groundd-mix.request", 0, 0)
			var rep reply
			// The round trip is the request's only layer span, so its
			// duration is the op's layer sum.
			d, err := tr.layer(root, "server.http", func() (err error) {
				rep, err = b.request(ctx)
				return err
			})
			if err != nil {
				return traced{}, err
			}
			root.tag("endpoint", "/v1/"+rep.req.Kind)
			root.tag("tier", rep.tier)
			check.TracedMs = append(check.TracedMs, ms(root.end()))
			check.LayerSumMs = append(check.LayerSumMs, ms(d))
			reps = append(reps, rep)
		}
		n += mixBlock
	}
	after, err := b.ls.stats(ctx)
	if err != nil {
		return traced{}, err
	}

	m := metrics{}
	tiers := map[string]int{}
	var rasterBytes, rasters int
	for _, r := range reps {
		tiers[r.tier]++
		if r.req.Kind == kindRaster {
			rasterBytes += r.bytes
			rasters++
		}
	}
	total := float64(len(reps))
	for _, t := range []string{"lru", "store", "solve"} {
		m.set("server.tier_share."+t, float64(tiers[t])/total, "1")
	}
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	m.set("server.lru_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "1")
	m.set("store.hit_ratio", float64(after.StoreHits-before.StoreHits)/float64(max(misses, 1)), "1")
	m.set("server.assemble_ms_mean", float64(after.AssembleNanos-before.AssembleNanos)/1e6/
		float64(max(after.Assemblies-before.Assemblies, 1)), "ms")
	posts := after.RasterRequests - before.RasterRequests + after.SafetyRequests - before.SafetyRequests
	m.set("server.post_ms_mean", float64(after.PostNanos-before.PostNanos)/1e6/float64(max(posts, 1)), "ms")
	m.set("server.resp_bytes.raster", float64(rasterBytes)/float64(max(rasters, 1)), "B")

	// Direct layer calls on a seeded sample of hits: the difference between a
	// hit's latency and the same work done in-process is the server's HTTP,
	// JSON and admission overhead.
	var overhead, rasterMs, voltMs []float64
	for _, r := range reps {
		res, ok := b.fx.direct[r.req.Scenario]
		if r.tier != "lru" || !ok || len(overhead) >= 12 {
			continue
		}
		scaled, err := res.WithGPR(r.req.GPR)
		if err != nil {
			return traced{}, err
		}
		root := tr.begin("groundd-mix.direct", 0, 0)
		root.tag("endpoint", "/v1/"+r.req.Kind)
		var d time.Duration
		switch r.req.Kind {
		case kindRaster:
			d, err = tr.layer(root, "post.SurfacePotential", func() error {
				_, err := earthing.SurfacePotential(ctx, scaled, earthing.SurfaceOptions{NX: rasterN, NY: rasterN, Margin: rasterMargin, Workers: workers})
				return err
			})
			rasterMs = append(rasterMs, ms(d))
		case kindSafety:
			d, err = tr.layer(root, "post.ComputeVoltages", func() error {
				_, err := earthing.ComputeVoltages(ctx, scaled, 0, earthing.SurfaceOptions{Workers: workers})
				return err
			})
			voltMs = append(voltMs, ms(d))
		default:
			d, err = tr.layer(root, "core.Result.WithGPR", func() error {
				_, err := res.WithGPR(r.req.GPR)
				return err
			})
		}
		root.end()
		if err != nil {
			return traced{}, err
		}
		overhead = append(overhead, ms(r.lat)-ms(d))
	}
	sample := b.fx.direct[0]
	if len(rasterMs) == 0 {
		d, err := tr.layer(nil, "post.SurfacePotential", func() error {
			_, err := earthing.SurfacePotential(ctx, sample, earthing.SurfaceOptions{NX: rasterN, NY: rasterN, Margin: rasterMargin, Workers: workers})
			return err
		})
		if err != nil {
			return traced{}, err
		}
		rasterMs = append(rasterMs, ms(d))
	}
	if len(voltMs) == 0 {
		d, err := tr.layer(nil, "post.ComputeVoltages", func() error {
			_, err := earthing.ComputeVoltages(ctx, sample, 0, earthing.SurfaceOptions{Workers: workers})
			return err
		})
		if err != nil {
			return traced{}, err
		}
		voltMs = append(voltMs, ms(d))
	}
	m.set("server.overhead_ms", median(overhead), "ms")
	m.set("post.raster_ms", median(rasterMs), "ms")
	m.set("post.points_per_s", rasterN*rasterN/(median(rasterMs)/1e3), "1/s")
	m.set("post.voltages_ms", median(voltMs), "ms")

	sc0 := b.fx.mix.scenarios[0]
	model0, err := sc0.Soil.Build()
	if err != nil {
		return traced{}, err
	}
	reh, err := tr.layer(nil, "store.Rehydrate", func() error {
		_, err := earthing.Rehydrate(scenarioGrid(sc0), model0, sample.Sigma, scenarioConfig(sc0))
		return err
	})
	if err != nil {
		return traced{}, err
	}
	m.set("store.rehydrate_ms", ms(reh), "ms")

	// The first three-layer scenario of the stream, assembled directly.
	for _, sc := range b.fx.mix.scenarios {
		if sc.Soil.Kind != "multi" {
			continue
		}
		model, err := sc.Soil.Build()
		if err != nil {
			return traced{}, err
		}
		cfg := scenarioConfig(sc)
		mesh, _, err := core.BuildMesh(scenarioGrid(sc), model, cfg)
		if err != nil {
			return traced{}, err
		}
		asm, err := bem.New(mesh, model, cfg.BEM)
		if err != nil {
			return traced{}, err
		}
		d, err := tr.layer(nil, "bem.MatrixCtx.three-layer", func() error {
			_, _, err := asm.MatrixCtx(ctx)
			return err
		})
		if err != nil {
			return traced{}, err
		}
		m.set("bem.matgen_ms.three-layer", ms(d), "ms")
		break
	}
	notes := []string{fmt.Sprintf("%d traced and %d untraced requests; %d rejected (429/504) during the traced phase",
		n, n, after.RejectedQueueFull-before.RejectedQueueFull+after.DeadlineExceeded-before.DeadlineExceeded)}
	return traced{layers: m, check: check, attempted: 2 * n, notes: notes}, nil
}
