package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanLifecycle(t *testing.T) {
	tr := New("req-1", "characterize")
	if tr.ID() != "req-1" || tr.Name() != "characterize" {
		t.Fatalf("trace identity lost: id=%q name=%q", tr.ID(), tr.Name())
	}

	sp := tr.StartSpan("standardize")
	time.Sleep(time.Millisecond)
	sp.End()
	sp = tr.StartSpan("eigensolve")
	sp.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "standardize" || spans[1].Name != "eigensolve" {
		t.Errorf("span names wrong: %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Dur < time.Millisecond {
		t.Errorf("standardize span duration %v, want >= 1ms", spans[0].Dur)
	}
	if spans[1].Start < spans[0].Start+spans[0].Dur {
		t.Errorf("second span starts at %v, before first ended at %v",
			spans[1].Start, spans[0].Start+spans[0].Dur)
	}
	for _, s := range spans {
		if s.Start < 0 || s.Dur < 0 {
			t.Errorf("span %q has negative timing: start %v dur %v", s.Name, s.Start, s.Dur)
		}
	}
	if tr.Elapsed() < spans[1].Start+spans[1].Dur {
		t.Errorf("trace elapsed %v shorter than its last span end", tr.Elapsed())
	}

	sum := tr.Summary()
	if !strings.Contains(sum, "standardize=") || !strings.Contains(sum, "eigensolve=") {
		t.Errorf("summary missing stages: %q", sum)
	}
}

func TestSpansSnapshotIsACopy(t *testing.T) {
	tr := New("id", "n")
	tr.StartSpan("a").End()
	snap := tr.Spans()
	snap[0].Name = "mutated"
	if tr.Spans()[0].Name != "a" {
		t.Error("Spans() exposed internal storage")
	}
}

func TestDrainEmptiesTrace(t *testing.T) {
	tr := New("id", "n")
	tr.StartSpan("a").End()
	tr.StartSpan("b").End()
	got := tr.Drain()
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("Drain() = %+v, want spans a, b", got)
	}
	if n := len(tr.Spans()); n != 0 {
		t.Errorf("trace holds %d spans after Drain, want 0", n)
	}
	tr.StartSpan("c").End()
	if again := tr.Drain(); len(again) != 1 || again[0].Name != "c" || got[0].Name != "a" {
		t.Errorf("second Drain() = %+v (first now %+v), want only c and the first untouched", again, got)
	}
}

// TestNilTraceNoOp pins the disabled fast path: every operation on a nil
// trace (the FromContext result for an untraced context) must be safe and
// allocation-free.
func TestNilTraceNoOp(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Name() != "" || tr.Elapsed() != 0 || tr.Spans() != nil || tr.Drain() != nil || tr.Summary() != "" {
		t.Error("nil trace accessors must return zero values")
	}
	sp := tr.StartSpan("anything")
	sp.End() // must not panic

	if got := FromContext(context.Background()); got != nil {
		t.Errorf("FromContext on a plain context = %v, want nil", got)
	}
	if got := FromContext(nil); got != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Errorf("FromContext(nil) = %v, want nil", got)
	}
	if ctx := context.Background(); NewContext(ctx, nil) != ctx {
		t.Error("NewContext with a nil trace must return ctx unchanged")
	}

	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		s := StartSpan(ctx, "stage")
		s.End()
	})
	if allocs != 0 {
		t.Errorf("disabled StartSpan/End allocates %.1f objects per op, want 0", allocs)
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := New("id-7", "batch")
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace lost in context round trip")
	}
	sp := StartSpan(ctx, "compute")
	sp.End()
	if spans := tr.Spans(); len(spans) != 1 || spans[0].Name != "compute" {
		t.Errorf("context-started span not recorded: %+v", spans)
	}
}

// TestConcurrentSpansDoNotInterleave drives many goroutines recording spans
// on one trace (run with -race in the verify path). Each goroutine's spans
// must come out intact — name preserved, non-negative start and duration,
// nothing lost or torn by a concurrent append.
func TestConcurrentSpansDoNotInterleave(t *testing.T) {
	const (
		goroutines = 16
		perG       = 50
	)
	tr := New("race", "concurrent")
	names := [goroutines]string{}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		names[g] = string(rune('a' + g))
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sp := tr.StartSpan(name)
				sp.End()
			}
		}(names[g])
	}
	wg.Wait()

	spans := tr.Spans()
	if len(spans) != goroutines*perG {
		t.Fatalf("got %d spans, want %d", len(spans), goroutines*perG)
	}
	counts := map[string]int{}
	for _, s := range spans {
		counts[s.Name]++
		if s.Start < 0 || s.Dur < 0 {
			t.Fatalf("span %q has negative timing: start %v dur %v", s.Name, s.Start, s.Dur)
		}
		if s.Start+s.Dur > tr.Elapsed() {
			t.Fatalf("span %q ends after the trace's own elapsed time", s.Name)
		}
	}
	for _, name := range names {
		if counts[name] != perG {
			t.Errorf("goroutine %q recorded %d spans, want %d", name, counts[name], perG)
		}
	}
}
