// Command hcperf is the repository's benchmark. It runs one workload in a
// single process against the characterization service, served in-process on
// a loopback listener, and prints every metric by name with its unit, then
// one JSON result line:
//
//	hcperf --workload warm_json --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 makes a separate
// traced run that reports the per-layer breakdown. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// procStart approximates process start: package initialization runs first.
var procStart = time.Now()

// setupRuns is how many times a measured run builds its workload; setup_s is
// the median, and the last build is the one measured. A single set-up
// (about a second) moves too much from run to run to hold a bound.
const setupRuns = 5

// minOps is the fewest operations an end-to-end window may end with: the
// p90 needs ten samples beyond it. A window runs past --seconds until it has
// them, but never past maxWindowFactor times --seconds.
const (
	minOps          = 100
	minTracedOps    = 20
	maxWindowFactor = 3
)

// failedLatency is the latency a failed operation counts with: it misses
// any latency limit.
const failedLatency = time.Duration(1<<63 - 1)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sh       shapes
	spanDir  string // where a traced run writes its spans
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hcperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: warm_json or cold_bin")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	fs.IntVar(&o.seconds, "seconds", 15, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "hcperf: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o.trace, o.sh, o.spanDir = trace == 1, fullShapes, ".bench_build/hcperf-spans"
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxClients))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var res *result
	var err error
	if o.trace {
		res, err = tracedRun(ctx, o, stdout)
	} else {
		res, err = measuredRun(ctx, o, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "hcperf:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "hcperf:", err)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// print writes each metric on its own line, then the JSON result line last.
func (r *result) print(w io.Writer) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-34s %14.6f %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// header prints the run's identity: what ran, where and how.
func header(w io.Writer, o options) {
	fmt.Fprintf(w, "hcperf workload=%s seed=%d seconds=%d trace=%t gomaxprocs=%d go=%s clients=%d loop=closed\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.Version(), maxClients)
	fmt.Fprintf(w, "checks: |Δ| <= %g on MPH/TDH/TMA against recomputation, MPH/TDH/TMA in [0,1]\n", profileTol)
}

// window is what one timed window measured.
type window struct {
	lats              []time.Duration // one per operation; failed ones as failedLatency
	attempted, failed int
	firstErr          error
	wall, cpu         time.Duration // reference pauses left out
	ref               time.Duration // mean reference kernel time over the window
	allocBytes        uint64
	gcCycles          uint32
	gcPause           time.Duration
	records           []*opRecord // traced windows only
}

// runWindow drives w's callers in a closed loop for d (and until at least
// atLeast operations have completed), measuring the process's CPU time,
// allocation and GC activity over exactly that interval.
func runWindow(ctx context.Context, w workload, d time.Duration, atLeast int, traced bool) (*window, error) {
	type caller struct {
		lats              []time.Duration
		attempted, failed int
		firstErr          error
		records           []*opRecord
	}
	callers := make([]caller, maxClients)
	var done atomic.Int64
	var wg sync.WaitGroup
	park, ref := newPauser(maxClients), newHostRef()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline, hardStop := start.Add(d), start.Add(maxWindowFactor*d)
	for c := range callers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer park.leave()
			cl := &callers[c]
			for ctx.Err() == nil {
				park.checkpoint()
				now := time.Now()
				if now.After(hardStop) || (now.After(deadline) && done.Load() >= int64(atLeast)) {
					return
				}
				var rec *opRecord
				if traced {
					rec = &opRecord{start: now}
				}
				lat, err := w.op(ctx, c, rec)
				if err != nil && ctx.Err() != nil {
					return // canceled, not failed
				}
				done.Add(1)
				cl.attempted++
				if err != nil {
					cl.failed++
					if cl.firstErr == nil {
						cl.firstErr = err
					}
					lat = failedLatency
				}
				cl.lats = append(cl.lats, lat)
				if rec != nil {
					rec.lat, rec.failed = lat, err != nil
					cl.records = append(cl.records, rec)
				}
			}
		}(c)
	}
	// Reference pauses until the callers are done; their wall and CPU time
	// is left out of the window's.
	callersDone := make(chan struct{})
	go func() { wg.Wait(); close(callersDone) }()
	tick := time.NewTicker(refEvery)
	var gapWall, gapCPU time.Duration
	var gapErr error
pauses:
	for {
		select {
		case <-callersDone:
			break pauses
		case <-tick.C:
			park.pause()
			t0 := time.Now()
			c0, err0 := cpuTime()
			ref.sample()
			c1, err1 := cpuTime()
			gapWall += time.Since(t0)
			gapCPU += c1 - c0
			if gapErr == nil {
				gapErr = errors.Join(err0, err1)
			}
			park.release()
		}
	}
	tick.Stop()
	wall := time.Since(start) - gapWall
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	if gapErr != nil {
		return nil, gapErr
	}
	runtime.ReadMemStats(&m1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	win := &window{
		wall: wall, cpu: cpu1 - cpu0 - gapCPU, ref: ref.mean(),
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:   m1.NumGC - m0.NumGC,
		gcPause:    time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}
	for _, cl := range callers {
		win.lats = append(win.lats, cl.lats...)
		win.attempted += cl.attempted
		win.failed += cl.failed
		win.records = append(win.records, cl.records...)
		if win.firstErr == nil {
			win.firstErr = cl.firstErr
		}
	}
	if win.attempted == 0 {
		return nil, errors.New("the window completed no operation")
	}
	return win, nil
}

// perOp divides a window total by its operation count.
func (w *window) perOp(total float64) float64 { return total / float64(w.attempted) }

// atRef scales a time measured in the window to the reference host speed;
// a rate scales by the inverse.
func (w *window) atRef(t float64) float64 { return atRef(t, w.ref) }

// build constructs the workload setupRuns times and returns the last build
// with the median set-up time, at the reference host speed and as measured.
// The first build is timed from process start. Before each later one the
// previous build is closed and its memory handed back to the OS, so every
// build pays for heap growth and first-touch page faults again and only one
// is ever live. After each build the reference kernel runs refBurst times,
// and the build's time is scaled by their mean.
func build(ctx context.Context, o options) (w workload, setup, measured float64, err error) {
	var times, raw []float64
	for k := 0; k < setupRuns; k++ {
		start := procStart
		if w != nil {
			w.close()
			w = nil
			debug.FreeOSMemory()
			start = time.Now()
		}
		if w, err = newWorkload(ctx, o.workload, o.sh, o.seed); err != nil {
			return nil, 0, 0, fmt.Errorf("setting up %s: %w", o.workload, err)
		}
		t := time.Since(start).Seconds()
		// The build's garbage is collected first, so that no GC cycle
		// runs beside the kernel; the window collects it anyway.
		runtime.GC()
		ref := newHostRef()
		for i := 0; i < refBurst; i++ {
			ref.sample()
		}
		times = append(times, atRef(t, ref.mean()))
		raw = append(raw, t)
	}
	return w, median(times), median(raw), nil
}

// measuredRun is the untraced run: the eight end-to-end metrics.
func measuredRun(ctx context.Context, o options, out io.Writer) (*result, error) {
	w, setup, setupMeasured, err := build(ctx, o)
	if err != nil {
		return nil, err
	}
	defer w.close()
	header(out, o)
	win, err := runWindow(ctx, w, time.Duration(o.seconds)*time.Second, minOps, false)
	if err != nil {
		return nil, err
	}
	wrong, err := w.verify(ctx)
	if err != nil {
		return nil, fmt.Errorf("verifying: %w", err)
	}
	rss, err := peakRSSBytes()
	if err != nil {
		return nil, err
	}
	res := &result{attempted: win.attempted, failed: win.failed + wrong}
	res.correct = res.failed == 0
	mean, err := meanMs(win.lats)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(win.lats, 0.9)
	if err != nil {
		return nil, err
	}
	p50, err := percentile(win.lats, 0.5)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "ops=%d latency_samples=%d window_s=%.3f failed=%d (window %d, after-window checks %d) error_rate=%g p50_ms=%.6f (unbounded, see README)\n",
		win.attempted, len(win.lats), win.wall.Seconds(), res.failed, win.failed, wrong,
		ratio(float64(res.failed), float64(res.attempted)), p50)
	if win.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", win.firstErr)
	}
	throughput, cpu := float64(win.attempted)/win.wall.Seconds(), win.perOp(ms(win.cpu))
	fmt.Fprintf(out, "measured at the host's speed, unbounded: latency_mean_ms=%.6f latency_p90_ms=%.6f throughput_ops=%.6f cpu_ms_per_op=%.6f setup_s=%.6f ref_kernel_ms=%.6f (%g at the reference speed)\n",
		mean, p90, throughput, cpu, setupMeasured, ms(win.ref), ms(refNominal))
	res.add("latency_mean_ref_ms", win.atRef(mean), "ms")
	res.add("latency_p90_ref_ms", win.atRef(p90), "ms")
	res.add("throughput_ref_ops", throughput/win.atRef(1), "1/s")
	res.add("success_ratio", 1-ratio(float64(res.failed), float64(res.attempted)), "ratio")
	res.add("cpu_ref_ms_per_op", win.atRef(cpu), "ms")
	res.add("alloc_mb_per_op", win.perOp(float64(win.allocBytes)/(1<<20)), "MB")
	res.add("peak_rss_mb", rss/(1<<20), "MB")
	res.add("setup_s", setup, "s")
	return res, nil
}

// settle waits until the server has recorded every request sent to it, so
// that a /metrics snapshot covers exactly the operations so far: the server
// records a request's stages only after its handler returns, which can be
// after the client has read the whole reply.
func settle(ctx context.Context, h *harness) (promSnapshot, error) {
	const series = `hcserved_request_seconds_count{endpoint="characterize"}`
	want := float64(h.posts.Load())
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := h.scrape(ctx)
		if err != nil {
			return nil, err
		}
		if snap[series] >= want {
			return snap, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server recorded %g of %g operations on %s", snap[series], want, series)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tracedRun is the per-layer run: a single set-up timed from process start,
// an untraced and a traced window of half the run each (their p50 difference
// is the tracing overhead), /metrics deltas over the traced window, and a
// replay of the workload's inputs through each layer's public function.
func tracedRun(ctx context.Context, o options, out io.Writer) (*result, error) {
	w, err := newWorkload(ctx, o.workload, o.sh, o.seed)
	if err != nil {
		return nil, fmt.Errorf("setting up %s: %w", o.workload, err)
	}
	defer w.close()
	firstSetup := time.Since(procStart).Seconds()
	header(out, o)
	half := time.Duration(o.seconds) * time.Second / 2
	plain, err := runWindow(ctx, w, half, minTracedOps, false)
	if err != nil {
		return nil, err
	}
	h := w.harness()
	snap0, err := settle(ctx, h)
	if err != nil {
		return nil, err
	}
	traced, err := runWindow(ctx, w, half, minTracedOps, true)
	if err != nil {
		return nil, err
	}
	snap1, err := settle(ctx, h)
	if err != nil {
		return nil, err
	}
	rec := &recorder{t0: procStart}
	rec.addOps(1, traced.records)
	samples, err := replayLayers(ctx, rec, len(traced.records)+1, w, replayPlans[o.workload], o.sh, o.seed)
	if err != nil {
		return nil, err
	}
	wrong, err := w.verify(ctx)
	if err != nil {
		return nil, fmt.Errorf("verifying: %w", err)
	}
	path, err := rec.write(o.spanDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	if err != nil {
		return nil, err
	}
	res := &result{attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed + wrong}
	res.correct = res.failed == 0
	fmt.Fprintf(out, "ops=%d (untraced %d, traced %d) failed=%d spans=%d written to %s\n",
		res.attempted, plain.attempted, traced.attempted, res.failed, len(rec.spans), path)
	samples["setup.first_s"] = []float64{firstSetup}
	if err := layerMetrics(res, out, o.workload, plain, traced, snap0, snap1, samples); err != nil {
		return nil, err
	}
	return res, nil
}

// perLayer lists every per-layer metric in report order, with its unit.
var perLayer = []struct{ name, unit string }{
	{"server.decode_json_us", "us"},
	{"server.stage_decode_ms", "ms"},
	{"wire.decode_matrix_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.stage_cache_lookup_ms", "ms"},
	{"server.stage_queue_wait_ms", "ms"},
	{"server.stage_compute_ms", "ms"},
	{"server.encode_json_us", "us"},
	{"http.write_ms", "ms"},
	{"http.ttfb_ms", "ms"},
	{"http.read_ms", "ms"},
	{"server.residual_ms", "ms"},
	{"sinkhorn.standardize_ms", "ms"},
	{"sinkhorn.rounds", "count"},
	{"sinkhorn.pass_tiled_ms", "ms"},
	{"sinkhorn.pass_untiled_ms", "ms"},
	{"matrix.gram_ms", "ms"},
	{"linalg.singular_values_ms", "ms"},
	{"linalg.sv_w1_ms", "ms"},
	{"linalg.sv_w2_ms", "ms"},
	{"core.sum_measures_ms", "ms"},
	{"core.characterize_ms", "ms"},
	{"core.mutable_set_cell_ms", "ms"},
	{"core.mutable_add_task_ms", "ms"},
	{"core.mutable_drop_task_ms", "ms"},
	{"core.mutable_add_machine_ms", "ms"},
	{"core.mutable_drop_machine_ms", "ms"},
	{"core.mutable_set_weights_ms", "ms"},
	{"core.mutable_incremental_ratio", "ratio"},
	{"core.cold_characterize_ms", "ms"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	{"client.latency_p50_ms", "ms"},
	{"host.ref_kernel_ms", "ms"},
	{"trace.latency_p50_ms", "ms"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.unattributed_share", "ratio"},
	{"setup.first_s", "s"},
}

// offPath lists, per workload, the per-layer metrics that read 0 because the
// workload's requests never reach that layer: a cache hit is answered
// before admission and compute, and every cold_bin environment is distinct.
// The report names them.
var offPath = map[string][]string{
	"warm_json": {"server.stage_queue_wait_ms", "server.stage_compute_ms"},
	"cold_bin":  {"server.cache_hit_ratio"},
}

// layerMetrics derives the per-layer metrics of a traced run.
func layerMetrics(res *result, out io.Writer, workload string, plain, traced *window, snap0, snap1 promSnapshot,
	samples map[string][]float64) error {
	v := map[string]float64{}
	for name, xs := range samples {
		v[name] = median(xs)
	}
	// Server stages: means over the traced window from the
	// hcserved_stage_seconds _sum/_count deltas.
	var serverStages float64
	for _, st := range []string{"decode", "cache_lookup", "queue_wait", "compute"} {
		mean := stageMeanMs(snap0, snap1, st)
		v["server.stage_"+st+"_ms"] = mean
		serverStages += mean
	}
	hits := delta(snap0, snap1, "hcserved_cache_hits_total")
	lookups := hits + delta(snap0, snap1, "hcserved_cache_misses_total") + delta(snap0, snap1, "hcserved_coalesced_total")
	v["server.cache_hit_ratio"] = ratio(hits, lookups)

	// Client side of the traced window.
	var write, ttfb, read []float64
	var latSum float64
	var ok int
	for _, r := range traced.records {
		if r.failed {
			continue
		}
		ok++
		latSum += ms(r.lat)
		write = append(write, ms(r.phases.write))
		ttfb = append(ttfb, ms(r.phases.ttfb))
		read = append(read, ms(r.phases.read))
	}
	v["http.write_ms"], v["http.ttfb_ms"], v["http.read_ms"] = median(write), median(ttfb), median(read)
	meanLat := ratio(latSum, float64(ok))

	// What the layer metrics leave unattributed: the client's mean latency
	// less the mean of the server stages.
	v["server.residual_ms"] = meanLat - serverStages
	v["trace.unattributed_share"] = ratio(meanLat-serverStages, meanLat)

	v["runtime.gc_cycles_per_op"] = plain.perOp(float64(plain.gcCycles))
	v["runtime.gc_pause_ms_per_op"] = plain.perOp(ms(plain.gcPause))
	p50plain, err := percentile(plain.lats, 0.5)
	if err != nil {
		return err
	}
	p50traced, err := percentile(traced.lats, 0.5)
	if err != nil {
		return err
	}
	v["client.latency_p50_ms"] = p50plain
	v["host.ref_kernel_ms"] = ms(plain.ref)
	v["trace.latency_p50_ms"] = p50traced
	v["trace.overhead_p50_ms"] = p50traced - p50plain

	var missing []string
	for _, m := range perLayer {
		x, ok := v[m.name]
		if !ok {
			missing = append(missing, m.name)
			continue
		}
		res.add(m.name, x, m.unit)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("traced run produced no value for %v", missing)
	}
	if off := offPath[workload]; len(off) > 0 {
		fmt.Fprintf(out, "off this workload's path, reported as 0: %v\n", off)
	}
	return nil
}
