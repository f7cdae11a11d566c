package main

import (
	"crypto/sha256"
	"strconv"
	"sync"
	"time"
)

// The host the benchmark is sized for runs the same code at speeds up to
// about 1.8x apart, in phases of seconds to tens of minutes (README.md,
// Noise). Every time a run measures is therefore reported twice: as
// measured, and adjusted to a reference host speed. The adjustment times a
// fixed reference kernel, which is the benchmark's own code and shares none
// of the program's, at regular pauses in the window and after each set-up,
// and scales each time by refNominal ÷ the mean kernel time. A change to the
// program moves the adjusted figures as much as the measured ones; a change
// of host speed moves the kernel's time with the program's and cancels.

// refEvery is the interval between reference pauses in a window; refBurst
// is how many reference samples follow each set-up.
const (
	refEvery = 500 * time.Millisecond
	refBurst = 20
)

// refNominal is the reference kernel's time at the reference host speed:
// its mean time on the 2-vCPU Xeon VM the benchmark is sized for, in a fast
// phase, with both cores running it at once. It fixes the scale of the
// adjusted figures only, and never changes.
const refNominal = 1500 * time.Microsecond

// refState is one caller's reference kernel: number formatting and
// parsing and hashing, as on the JSON path, and a dense floating-point
// product, as in the compute path. Each caller owns a refState so that
// concurrent calls share no memory.
type refState struct {
	text []byte
	a, b []float64
	c    []float64
	sink float64
}

// refDim is the edge of the kernel's matrices; refReps repeats the kernel
// body to about 2 ms.
const (
	refDim  = 48
	refReps = 4
)

func newRefState(seed int64) *refState {
	s := &refState{a: make([]float64, refDim*refDim), b: make([]float64, refDim*refDim), c: make([]float64, refDim*refDim)}
	x := uint64(seed)*0x9e3779b97f4a7c15 | 1
	for i := range s.a {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s.a[i] = float64(x%10007) / 97
		s.b[len(s.b)-1-i] = float64(x%8191) / 89
	}
	return s
}

func (s *refState) run() time.Duration {
	start := time.Now()
	for r := 0; r < refReps; r++ {
		s.once()
	}
	return time.Since(start)
}

func (s *refState) once() {
	s.text = s.text[:0]
	for _, v := range s.a[:1024] {
		s.text = strconv.AppendFloat(s.text, v, 'g', -1, 64)
		s.text = append(s.text, ',')
	}
	var sum float64
	for i, j := 0, 0; j < len(s.text); j++ {
		if s.text[j] == ',' {
			v, _ := strconv.ParseFloat(string(s.text[i:j]), 64)
			sum += v
			i = j + 1
		}
	}
	h := sha256.Sum256(s.text)
	for i := 0; i < refDim; i++ {
		for j := 0; j < refDim; j++ {
			var d float64
			for k := 0; k < refDim; k++ {
				d += s.a[i*refDim+k] * s.b[k*refDim+j]
			}
			s.c[i*refDim+j] = d
		}
	}
	s.sink += sum + float64(h[0]) + s.c[refDim+1]
}

// hostRef runs the reference kernel on every caller's core at once, so the
// host is loaded as in the window, and collects the kernel times.
type hostRef struct {
	states []*refState
	times  []time.Duration
}

func newHostRef() *hostRef {
	r := &hostRef{}
	for c := 0; c < maxClients; c++ {
		r.states = append(r.states, newRefState(int64(c+1)))
	}
	return r
}

// sample runs one kernel call per caller concurrently. The callers must be
// parked: nothing else of the benchmark runs meanwhile.
func (r *hostRef) sample() {
	var wg sync.WaitGroup
	out := make([]time.Duration, len(r.states))
	for c, s := range r.states {
		wg.Add(1)
		go func(c int, s *refState) {
			defer wg.Done()
			out[c] = s.run()
		}(c, s)
	}
	wg.Wait()
	r.times = append(r.times, out...)
}

// atRef scales a time t, measured while the reference kernel took k on
// average, to the reference host speed.
func atRef(t float64, k time.Duration) float64 { return t * float64(refNominal) / float64(k) }

// mean returns the mean kernel time, or refNominal before any sample.
func (r *hostRef) mean() time.Duration {
	if len(r.times) == 0 {
		return refNominal
	}
	var sum time.Duration
	for _, t := range r.times {
		sum += t
	}
	return sum / time.Duration(len(r.times))
}

// pauser parks the closed-loop callers between operations while a reference
// pause runs, so that no request is in flight during it.
type pauser struct {
	mu      sync.Mutex
	want    bool
	running int // callers still in their loop
	parked  int
	settled chan struct{} // closed once every running caller has parked
	closed  bool
	resume  chan struct{}
}

func newPauser(callers int) *pauser { return &pauser{running: callers} }

// checkpoint is called by a caller between operations; it parks the caller
// while a pause is wanted.
func (p *pauser) checkpoint() {
	p.mu.Lock()
	if !p.want {
		p.mu.Unlock()
		return
	}
	p.parked++
	p.settle()
	resume := p.resume
	p.mu.Unlock()
	<-resume
}

// leave is called by a caller that ends its loop.
func (p *pauser) leave() {
	p.mu.Lock()
	p.running--
	if p.want {
		p.settle()
	}
	p.mu.Unlock()
}

func (p *pauser) settle() {
	if !p.closed && p.parked >= p.running {
		p.closed = true
		close(p.settled)
	}
}

// pause waits until every running caller has parked.
func (p *pauser) pause() {
	p.mu.Lock()
	p.want, p.parked, p.closed = true, 0, false
	p.settled, p.resume = make(chan struct{}), make(chan struct{})
	p.settle()
	settled := p.settled
	p.mu.Unlock()
	<-settled
}

// release lets the parked callers go on.
func (p *pauser) release() {
	p.mu.Lock()
	p.want = false
	close(p.resume)
	p.mu.Unlock()
}
