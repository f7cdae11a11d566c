package server

import (
	"strings"
	"sync"
	"testing"
)

func TestMetricsRendering(t *testing.T) {
	m := NewMetrics()
	m.Counter("reqs_total", "Requests.", `endpoint="a"`).Add(3)
	m.Counter("reqs_total", "Requests.", `endpoint="b"`).Inc()
	m.Gauge("depth", "Queue depth.", func() float64 { return 7 })
	m.Histogram("lat_seconds", "Latency.", "").Observe(0.003)
	m.Histogram("lat_seconds", "Latency.", "").Observe(42) // beyond last bound

	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP reqs_total Requests.",
		"# TYPE reqs_total counter",
		`reqs_total{endpoint="a"} 3`,
		`reqs_total{endpoint="b"} 1`,
		"# TYPE depth gauge",
		"depth 7",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.005"} 1`,
		`lat_seconds_bucket{le="+Inf"} 2`,
		"lat_seconds_count 2",
		"lat_seconds_sum 42.003",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}

	// Deterministic scrape: two renders must be byte-identical.
	var sb2 strings.Builder
	if _, err := m.WriteTo(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Error("two scrapes of an unchanged registry differ")
	}
}

func TestMetricsCounterFunc(t *testing.T) {
	m := NewMetrics()
	n := 2.0
	m.CounterFunc("fallbacks_total", "Fallbacks.", func() float64 { return n })
	n = 5
	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if want := "# HELP fallbacks_total Fallbacks.\n# TYPE fallbacks_total counter\nfallbacks_total 5\n"; sb.String() != want {
		t.Errorf("rendered %q, want %q", sb.String(), want)
	}
}

func TestMetricsHistogramCumulative(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 100} {
		h.Observe(v)
	}
	// Cumulative counts: <=1: 1, <=2: 3, <=4: 4, +Inf: 5.
	cum := uint64(0)
	wants := []uint64{1, 3, 4}
	for i := range h.bounds {
		cum += h.counts[i].Load()
		if cum != wants[i] {
			t.Errorf("bucket le=%g cumulative = %d, want %d", h.bounds[i], cum, wants[i])
		}
	}
	if h.total.Load() != 5 {
		t.Errorf("count = %d, want 5", h.total.Load())
	}
}

// TestMetricsConcurrent exercises registration, observation and scraping in
// parallel; with -race this is the registry's data-race gate.
func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Counter("c_total", "c", "").Inc()
				m.Histogram("h_seconds", "h", "").Observe(float64(i) / 1000)
				if i%100 == 0 {
					var sb strings.Builder
					if _, err := m.WriteTo(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := m.Counter("c_total", "c", "").Value(); got != 8*500 {
		t.Errorf("counter = %d, want %d", got, 8*500)
	}
}
