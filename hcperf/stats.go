package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTailSamples is how many samples must lie beyond a reported percentile:
// a p90 needs at least 100 samples, a p99 at least 1000.
const minTailSamples = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples in
// milliseconds. It refuses, rather than reports, a quantile with fewer than
// minTailSamples samples beyond it. samples is sorted in place.
func percentile(samples []time.Duration, q float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", q*100)
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTailSamples && q > 0.5 {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d",
			q*100, n, beyond, minTailSamples)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return ms(samples[rank-1]), nil
}

// meanMs returns the mean of samples in milliseconds, leaving out failed
// operations (recorded as failedLatency), which success_ratio counts. It
// refuses a mean of no successful operation.
func meanMs(samples []time.Duration) (float64, error) {
	var sum time.Duration
	n := 0
	for _, s := range samples {
		if s == failedLatency {
			continue
		}
		sum += s
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("mean latency of no successful operation")
	}
	return ms(sum) / float64(n), nil
}

// median returns the middle value of xs (the mean of the middle two for an
// even count); xs is sorted in place. It returns 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0: an empty denominator means the
// layer saw no work, which the report states next to the value.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime returns the process's user+system CPU time (getrusage).
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSBytes reads the process's peak resident set (VmHWM).
func peakRSSBytes() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line[len("VmHWM:"):])
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb * 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// promSnapshot holds the numeric samples of one Prometheus text exposition,
// keyed by the full series name including its label set, e.g.
// `hcserved_stage_seconds_sum{stage="decode"}`.
type promSnapshot map[string]float64

// parseProm reads a Prometheus text exposition. Comment lines are skipped;
// any other line must be "series value".
func parseProm(r io.Reader) (promSnapshot, error) {
	snap := promSnapshot{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics value in %q: %w", line, err)
		}
		snap[line[:i]] = v
	}
	return snap, sc.Err()
}

// delta returns after[series] - before[series]; a series absent from a
// snapshot counts as 0, since counters and histograms appear on first use.
func delta(before, after promSnapshot, series string) float64 {
	return after[series] - before[series]
}

// stageMeanMs returns the mean duration in milliseconds of one stage over the
// requests observed between two snapshots, from the hcserved_stage_seconds
// _sum and _count deltas (0 when the stage did not run).
func stageMeanMs(before, after promSnapshot, stage string) float64 {
	labels := `{stage="` + stage + `"}`
	sum := delta(before, after, "hcserved_stage_seconds_sum"+labels)
	n := delta(before, after, "hcserved_stage_seconds_count"+labels)
	return ratio(sum*1e3, n)
}
