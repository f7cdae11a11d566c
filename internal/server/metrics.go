package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// This file is a minimal, dependency-free metrics registry that renders the
// Prometheus text exposition format (version 0.0.4). The serving tier needs
// counters (requests, cache hits), gauges (queue depth, in-flight work) and
// latency histograms; pulling in a client library for that would be the only
// external dependency of the whole repository, so the three metric kinds are
// hand-rolled on sync/atomic instead. Only what /metrics needs is
// implemented: no label validation, no exemplars, no push.

// counter is a monotonically increasing uint64.
type counter struct {
	v atomic.Uint64
}

func (c *counter) Inc()          { c.v.Add(1) }
func (c *counter) Add(n uint64)  { c.v.Add(n) }
func (c *counter) Value() uint64 { return c.v.Load() }

// gaugeFunc reads its value at scrape time — used for queue depth and cache
// size, which already live in their own structures.
type gaugeFunc func() float64

// histogram is a fixed-bucket cumulative histogram. Buckets hold the count
// of observations <= the matching upper bound; sum carries float64 bits.
type histogram struct {
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits, CAS-updated
}

// defLatencyBounds covers 100µs..10s — characterization latencies span
// microseconds (cache hit) to seconds (large cold matrices under load).
var defLatencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds))}
}

// Observe records one value (in the unit of the bounds — seconds here).
func (h *histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.total.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// metric is one named family with optional pre-rendered labels per child.
type metric struct {
	name, help, kind string
	mu               sync.Mutex
	counters         map[string]*counter   // label string -> child
	hists            map[string]*histogram // label string -> child
	gauge            gaugeFunc             // a scrape-time gauge or counter
}

// Metrics is the registry behind GET /metrics. All methods are safe for
// concurrent use; families render sorted by name, children by label string,
// so scrapes are deterministic.
type Metrics struct {
	mu       sync.Mutex
	families map[string]*metric
	order    []string
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{families: make(map[string]*metric)}
}

func (m *Metrics) family(name, help, kind string) *metric {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.families[name]
	if !ok {
		f = &metric{
			name: name, help: help, kind: kind,
			counters: make(map[string]*counter),
			hists:    make(map[string]*histogram),
		}
		m.families[name] = f
		m.order = append(m.order, name)
		sort.Strings(m.order)
	}
	return f
}

// Counter returns (creating on first use) the counter child of the named
// family with the given label string, e.g. `endpoint="characterize"`.
// An empty labels string yields an unlabeled series.
func (m *Metrics) Counter(name, help, labels string) *counter {
	f := m.family(name, help, "counter")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.counters[labels]
	if !ok {
		c = &counter{}
		f.counters[labels] = c
	}
	return c
}

// Histogram returns (creating on first use) the histogram child of the named
// family, using the default latency buckets.
func (m *Metrics) Histogram(name, help, labels string) *histogram {
	f := m.family(name, help, "histogram")
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.hists[labels]
	if !ok {
		h = newHistogram(defLatencyBounds)
		f.hists[labels] = h
	}
	return h
}

// Gauge registers a scrape-time gauge for the named family.
func (m *Metrics) Gauge(name, help string, fn gaugeFunc) {
	f := m.family(name, help, "gauge")
	f.mu.Lock()
	f.gauge = fn
	f.mu.Unlock()
}

// CounterFunc registers a scrape-time counter for the named family — used
// for tallies another package keeps, such as the eigensolver's Jacobi
// fallbacks. fn must never decrease.
func (m *Metrics) CounterFunc(name, help string, fn gaugeFunc) {
	f := m.family(name, help, "counter")
	f.mu.Lock()
	f.gauge = fn
	f.mu.Unlock()
}

// WriteTo renders the registry in the Prometheus text format.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	m.mu.Lock()
	order := append([]string(nil), m.order...)
	m.mu.Unlock()
	var n int64
	pr := func(format string, args ...any) error {
		k, err := fmt.Fprintf(w, format, args...)
		n += int64(k)
		return err
	}
	for _, name := range order {
		m.mu.Lock()
		f := m.families[name]
		m.mu.Unlock()
		if err := pr("# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind); err != nil {
			return n, err
		}
		f.mu.Lock()
		if f.gauge != nil {
			if err := pr("%s %s\n", f.name, formatFloat(f.gauge())); err != nil {
				f.mu.Unlock()
				return n, err
			}
		}
		switch f.kind {
		case "counter":
			for _, labels := range sortedKeys(f.counters) {
				if err := pr("%s%s %d\n", f.name, renderLabels(labels), f.counters[labels].Value()); err != nil {
					f.mu.Unlock()
					return n, err
				}
			}
		case "histogram":
			for _, labels := range sortedKeys(f.hists) {
				h := f.hists[labels]
				cum := uint64(0)
				for i, b := range h.bounds {
					cum += h.counts[i].Load()
					if err := pr("%s_bucket%s %d\n", f.name, renderLabels(joinLabels(labels, `le="`+formatFloat(b)+`"`)), cum); err != nil {
						f.mu.Unlock()
						return n, err
					}
				}
				total := h.total.Load()
				if err := pr("%s_bucket%s %d\n", f.name, renderLabels(joinLabels(labels, `le="+Inf"`)), total); err != nil {
					f.mu.Unlock()
					return n, err
				}
				if err := pr("%s_sum%s %s\n", f.name, renderLabels(labels), formatFloat(math.Float64frombits(h.sum.Load()))); err != nil {
					f.mu.Unlock()
					return n, err
				}
				if err := pr("%s_count%s %d\n", f.name, renderLabels(labels), total); err != nil {
					f.mu.Unlock()
					return n, err
				}
			}
		}
		f.mu.Unlock()
	}
	return n, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func renderLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
