// Package obs is the zero-dependency tracing layer of the repository: a
// Trace collects named, monotonically timed Spans for one unit of work (an
// HTTP request, a benchmark iteration, an experiment sweep), and the compute
// pipeline emits per-stage spans — standardize, gram, eigensolve, measures —
// whenever a Trace rides in on the context.
//
// The design center is the disabled path. Every hot kernel in this
// repository is called far more often without tracing than with it, so the
// absence of a trace must cost nothing measurable: FromContext on a plain
// context returns a nil *Trace, every method on a nil *Trace is a no-op, and
// Span is a small value type that never reaches the heap. The measured
// overhead of the disabled path on the cold 60×40 characterize benchmark is
// the regression budget documented in DESIGN.md §11 (≤ 2% ns/op).
//
// Timings are monotonic: a Trace anchors one time.Time at creation and every
// span start/duration is a time.Since against that anchor, so wall-clock
// adjustments cannot produce negative or skewed stage durations.
//
// A Trace is safe for concurrent use — parallel trials append spans from
// many goroutines — but an individual Span is owned by the goroutine that
// started it.
package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// SpanRecord is one completed stage timing: the span name, its start offset
// from the trace anchor, and its duration. Records appear in completion
// (End) order.
type SpanRecord struct {
	Name  string
	Start time.Duration
	Dur   time.Duration
}

// Trace is a collection of stage timings for one unit of work. The zero
// value is not useful; build one with New. A nil *Trace is the disabled
// tracer: StartSpan and every other method no-op on it.
type Trace struct {
	id    string
	name  string
	start time.Time

	mu    sync.Mutex
	spans []SpanRecord
}

// New builds an enabled trace with the given id (e.g. a request id) and a
// human-readable name (e.g. the endpoint). The span slice is pre-grown so
// the common request shape appends without reallocating.
func New(id, name string) *Trace {
	return &Trace{
		id:    id,
		name:  name,
		start: time.Now(),
		spans: make([]SpanRecord, 0, 16),
	}
}

// ID returns the trace id ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Name returns the trace name ("" on a nil trace).
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Elapsed returns the monotonic time since the trace was created (0 on a nil
// trace).
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.start)
}

// Span is an in-flight stage timing handle. It is a value type: starting a
// span on a nil (disabled) trace allocates nothing and End on the zero Span
// is a no-op, which is what makes `defer sp.End()` free on the disabled
// path.
type Span struct {
	tr    *Trace
	name  string
	start time.Duration
}

// StartSpan opens a named span on the trace. On a nil trace it returns the
// zero Span, whose End is a no-op.
func (t *Trace) StartSpan(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{tr: t, name: name, start: time.Since(t.start)}
}

// End closes the span, recording its duration on the owning trace. End on
// the zero Span (disabled path) does nothing. Calling End twice records the
// span twice; don't.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	end := time.Since(s.tr.start)
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, SpanRecord{Name: s.name, Start: s.start, Dur: end - s.start})
	s.tr.mu.Unlock()
}

// Spans returns a snapshot copy of the completed span records (nil on a nil
// trace). The copy is owned by the caller; concurrent spans may still be
// appending to the trace.
func (t *Trace) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord(nil), t.spans...)
}

// Drain returns the completed span records and removes them from the trace
// (nil on a nil trace). A long-lived unit of work — a stream session —
// drains after each step so its trace stays bounded.
func (t *Trace) Drain() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]SpanRecord(nil), t.spans...)
	t.spans = t.spans[:0]
	return out
}

// Summary renders the completed spans as a compact one-line log field,
// "name=1.234ms name=0.017ms", in completion order ("" on a nil trace).
func (t *Trace) Summary() string {
	if t == nil {
		return ""
	}
	spans := t.Spans()
	var b strings.Builder
	for i, sp := range spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.3fms", sp.Name, float64(sp.Dur.Microseconds())/1000)
	}
	return b.String()
}

// ctxKey is the private context key for trace propagation.
type ctxKey struct{}

// NewContext returns ctx carrying the trace. Attaching a nil trace returns
// ctx unchanged, so callers can propagate "maybe tracing" without branching.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext extracts the trace from ctx, or nil when the context carries
// none — the disabled fast path. Loops should hoist this call and reuse the
// returned *Trace rather than re-walking the context per iteration.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// StartSpan opens a named span on the context's trace; with no trace in ctx
// it returns the zero (no-op) Span.
func StartSpan(ctx context.Context, name string) Span {
	return FromContext(ctx).StartSpan(name)
}
