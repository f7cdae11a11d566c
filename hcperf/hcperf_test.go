package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(n-i) * time.Millisecond // descending: percentile must sort
		}
		return s
	}
	if _, err := percentile(samples(99), 0.9); err == nil {
		t.Fatal("p90 of 99 samples was reported; it leaves 9 beyond it and must be refused")
	}
	got, err := percentile(samples(100), 0.9)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if got != 90 {
		t.Fatalf("p90 of 1..100 ms = %g, want the nearest-rank 90", got)
	}
	if got, err := percentile(samples(1), 0.5); err != nil || got != 1 {
		t.Fatalf("p50 of one sample = %g, %v; want 1, nil", got, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("p50 of no samples was reported")
	}
}

func TestMeanLeavesOutFailedOperations(t *testing.T) {
	got, err := meanMs([]time.Duration{time.Millisecond, failedLatency, 3 * time.Millisecond})
	if err != nil || got != 2 {
		t.Fatalf("mean of 1 ms, a failure and 3 ms = %g, %v; want 2, nil", got, err)
	}
	if _, err := meanMs([]time.Duration{failedLatency}); err == nil {
		t.Fatal("mean of failed operations only was reported")
	}
	if _, err := meanMs(nil); err == nil {
		t.Fatal("mean of no samples was reported")
	}
}

func TestAtRefScalesByTheKernelTime(t *testing.T) {
	if got := atRef(3, 2*refNominal); got != 1.5 {
		t.Fatalf("3 ms measured while the kernel took twice its reference time = %g at the reference speed, want 1.5", got)
	}
	if got := atRef(3, refNominal/2); got != 6 {
		t.Fatalf("3 ms measured while the kernel took half its reference time = %g at the reference speed, want 6", got)
	}
}

func TestMedianAndRatio(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median of 3 values = %g, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median of 4 values = %g, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("median of nothing = %g, want 0", m)
	}
	if r := ratio(3, 0); r != 0 {
		t.Fatalf("ratio over an empty base = %g, want 0", r)
	}
	if r := ratio(1, 4); r != 0.25 {
		t.Fatalf("ratio(1, 4) = %g", r)
	}
}

func TestPromDeltas(t *testing.T) {
	before, err := parseProm(strings.NewReader(`# HELP x y
# TYPE hcserved_cache_hits_total counter
hcserved_cache_hits_total 10
hcserved_stage_seconds_sum{stage="decode"} 0.5
hcserved_stage_seconds_count{stage="decode"} 100
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(`hcserved_cache_hits_total 30
hcserved_cache_misses_total 5
hcserved_stage_seconds_sum{stage="decode"} 0.6
hcserved_stage_seconds_count{stage="decode"} 150
`))
	if err != nil {
		t.Fatal(err)
	}
	if d := delta(before, after, "hcserved_cache_hits_total"); d != 20 {
		t.Fatalf("hits delta = %g, want 20", d)
	}
	if d := delta(before, after, "hcserved_cache_misses_total"); d != 5 {
		t.Fatalf("a series new in the second snapshot must count from 0; delta = %g", d)
	}
	if m := stageMeanMs(before, after, "decode"); m < 1.999 || m > 2.001 {
		t.Fatalf("decode mean = %g ms, want 2 (0.1 s over 50 requests)", m)
	}
	if m := stageMeanMs(before, after, "compute"); m != 0 {
		t.Fatalf("a stage that never ran has mean %g, want 0", m)
	}
	if _, err := parseProm(strings.NewReader("no_value_here\n")); err == nil {
		t.Fatal("a line without a value parsed")
	}
}

// tinyShapes keeps every workload to milliseconds per operation.
var tinyShapes = shapes{
	warmT: 8, warmM: 6, warmEnvs: 4,
	coldT: 16, coldM: 12, coldPool: 2, coldWarmOps: 2, coldChecks: 4,
	fleetT: 64, fleetM: 16,
}

// waitGoroutines waits until no more than n goroutines run. Connection
// goroutines of a closed client or server exit asynchronously once their
// socket is closed, so the count is polled with a deadline.
func waitGoroutines(n int) int {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestTeardownLeavesNothing runs every workload through set-up, a timed
// window and its checks, closes it, and asserts that no listener stays
// bound and no goroutine it started is left.
func TestTeardownLeavesNothing(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx := context.Background()
			w, err := newWorkload(ctx, name, tinyShapes, 7)
			if err != nil {
				t.Fatal(err)
			}
			addr := ""
			if h := w.harness(); h != nil {
				addr = strings.TrimPrefix(h.base, "http://")
			}
			win, err := runWindow(ctx, w, 200*time.Millisecond, 10, false)
			if err != nil {
				w.close()
				t.Fatal(err)
			}
			wrong, err := w.verify(ctx)
			w.close()
			if err != nil {
				t.Fatal(err)
			}
			if win.failed != 0 || wrong != 0 {
				t.Fatalf("%d of %d operations failed, %d after-window checks failed; first failure: %v",
					win.failed, win.attempted, wrong, win.firstErr)
			}
			if addr != "" {
				if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
					c.Close()
					t.Fatalf("listener %s still accepts connections after close", addr)
				}
			}
			if n := waitGoroutines(base); n > base {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines left after close, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// TestCanceledRunTearsDown cancels runs mid-window, as SIGINT/SIGTERM do,
// and asserts that they return the cancellation and leave no goroutine.
func TestCanceledRunTearsDown(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(300*time.Millisecond, cancel)
			o := options{workload: name, seed: 5, seconds: 30, sh: tinyShapes}
			start := time.Now()
			if _, err := measuredRun(ctx, o, io.Discard); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled run returned %v, want context.Canceled", err)
			}
			if d := time.Since(start); d > 10*time.Second {
				t.Fatalf("canceled run took %v to return", d)
			}
			if n := waitGoroutines(base); n > base {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines left after a canceled run, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			o := options{workload: name, seed: 3, seconds: 1, trace: true, sh: tinyShapes, spanDir: t.TempDir()}
			res, err := tracedRun(context.Background(), o, &out)
			if err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !res.correct {
				t.Fatalf("traced run failed %d of %d operations", res.failed, res.attempted)
			}
			have := map[string]bool{}
			off := map[string]bool{}
			for _, m := range offPath[name] {
				off[m] = true
			}
			for _, m := range res.metrics {
				have[m.name] = true
				if (m.value == 0) != off[m.name] {
					t.Errorf("per-layer metric %s reads %g; offPath lists it: %t", m.name, m.value, off[m.name])
				}
			}
			for _, m := range perLayer {
				if !have[m.name] {
					t.Errorf("per-layer metric %s missing", m.name)
				}
			}
		})
	}
}

func TestBadArgumentsExitNonzeroWithoutResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no_such_workload", "--seconds", "1"},
		{"--workload", "warm_json", "--seconds", "0"},
		{"--workload", "warm_json", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("run(%v) printed a result line:\n%s", args, out.String())
		}
	}
}

func TestPauserParksEveryCaller(t *testing.T) {
	p := newPauser(2)
	var ops [2]atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := range ops {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer p.leave()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p.checkpoint()
				ops[c].Add(1)
			}
		}(c)
	}
	for round := 0; round < 20; round++ {
		p.pause()
		before := [2]int64{ops[0].Load(), ops[1].Load()}
		time.Sleep(time.Millisecond)
		if after := [2]int64{ops[0].Load(), ops[1].Load()}; after != before {
			t.Fatalf("round %d: callers ran while paused: %v then %v", round, before, after)
		}
		p.release()
	}
	close(stop)
	// A pause wanted while the callers leave must still settle.
	p.pause()
	p.release()
	wg.Wait()
}
