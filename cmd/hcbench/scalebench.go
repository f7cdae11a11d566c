package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/etcmat"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/sinkhorn"
)

// The -scalebench mode measures the fleet-scale numeric core at environment
// sizes far past the kernel suite's 60×40 shapes: the blocked Gram kernels
// (serial and parallel), the values-only spectral pipeline, the tiled
// Sinkhorn balance passes and an end-to-end characterization. The report is
// machine-readable ("kind": "scale") and diffs through -benchdiff: records
// at the gate size (1000) fail the diff on an ns/op regression past the
// threshold, larger sizes are informational — a 4k or 10k run takes minutes
// per data point, so its run-to-run noise is low, but its absolute cost
// makes re-measuring on every change impractical; the gated 1k row is the
// regression canary.

// scaleGateSize is the matrix edge whose records gate -benchdiff.
const scaleGateSize = 1000

// scaleSpectralMax bounds the sizes that run the O(n³) spectral pipeline and
// the end-to-end characterization. Past it (the 10k row) only the O(n²)-per-
// pass kernels — Gram formation is measured once, tiled balance passes, and
// nothing cubic — keep the sweep inside a practical wall-clock budget; the
// report notes the omission instead of silently capping coverage.
const scaleSpectralMax = 4096

type scaleResult struct {
	Name string `json:"name"`
	Size int    `json:"size"`
	// NsPerOp is wall-clock per operation; the scale sweep gates only on
	// time — allocation counts at these sizes are a property of the pooling
	// layer, measured by the kernel suite.
	NsPerOp float64 `json:"ns_per_op"`
	// Gated marks the records -benchdiff fails on regression; the rest are
	// informational context.
	Gated bool   `json:"gated"`
	Note  string `json:"note,omitempty"`
}

type scaleReport struct {
	Kind       string        `json:"kind"` // "scale"; benchdiff sniffs this
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	GoVersion  string        `json:"go_version"`
	Workers    int           `json:"workers"` // budget of the parallel records
	Results    []scaleResult `json:"results"`
}

// parseSizes parses the -sizes list ("1000,4000,10000").
func parseSizes(csv string) ([]int, error) {
	var sizes []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad size %q (want integers >= 2)", f)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no sizes given")
	}
	return sizes, nil
}

// runScaleBench runs the sweep and writes the scale report to path.
func runScaleBench(path, sizesCSV string) error {
	sizes, err := parseSizes(sizesCSV)
	if err != nil {
		return err
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	// The parallel records run at GOMAXPROCS workers. On a single-CPU host
	// that budget degenerates to the serial path, which would silently
	// measure the same code twice — run two workers instead and say so: the
	// number then measures the decomposition's fan-out overhead (results are
	// bit-identical at every worker count, so that overhead is the only
	// difference).
	workers := runtime.GOMAXPROCS(0)
	parNote := ""
	if workers < 2 {
		workers = 2
		parNote = "GOMAXPROCS=1: 2-worker run measures fan-out overhead, not speedup"
	}

	rep := scaleReport{
		Kind:       "scale",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Workers:    workers,
	}
	add := func(name string, n int, r testing.BenchmarkResult, note string) {
		rep.Results = append(rep.Results, scaleResult{
			Name:    fmt.Sprintf("%s/%d", name, n),
			Size:    n,
			NsPerOp: float64(r.NsPerOp()),
			Gated:   n == scaleGateSize,
			Note:    note,
		})
		fmt.Fprintf(os.Stderr, "hcbench: scale: %s/%d  %.3fs/op\n", name, n, float64(r.NsPerOp())/1e9)
	}

	for _, n := range sizes {
		a := benchMatrix(n, n, int64(n))
		g := matrix.New(n, n)

		add("Scale/gram/serial", n, testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matrix.GramInto(g.Reset(n, n), a)
			}
		}), "")
		add("Scale/gram/parallel", n, testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matrix.GramIntoPar(g.Reset(n, n), a, workers)
			}
		}), parNote)

		// One fused balance pass, row-streaming vs cache-oblivious tiled. The
		// unit factors keep the matrix bit-stable across iterations.
		w := a.Clone()
		ones := make([]float64, n)
		for i := range ones {
			ones[i] = 1
		}
		sums := make([]float64, n)
		add("Scale/sinkhorn/pass/row", n, testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.ScaleColsRowSums(ones, sums)
			}
		}), "")
		add("Scale/sinkhorn/pass/tiled", n, testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkhorn.ScaleColsRowSumsTiled(w, ones, sums)
			}
		}), "")

		if n <= scaleSpectralMax {
			ws := linalg.NewWorkspace()
			var buf []float64
			add("Scale/spectral/serial", n, testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					buf = linalg.AppendSingularValues(buf[:0], a, ws)
				}
			}), "")
			add("Scale/spectral/parallel", n, testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					buf = linalg.SingularValuesPar(a, ws, workers)
				}
			}), parNote)

			// End-to-end characterization, environment build included, with
			// the serving tier's buffer recycling so iterations reuse pooled
			// storage the way steady-state requests do.
			ctx := parallel.WithWorkers(context.Background(), workers)
			add("Scale/characterize", n, testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					env, err := etcmat.NewFromECS(a)
					if err != nil {
						b.Fatal(err)
					}
					p := core.CharacterizeCtx(ctx, env)
					if p.TMAErr != nil {
						b.Fatal(p.TMAErr)
					}
					env.ReleaseBuffers()
				}
			}), parNote)
		} else {
			rep.Results = append(rep.Results, scaleResult{
				Name: fmt.Sprintf("Scale/spectral/skipped/%d", n),
				Size: n,
				Note: fmt.Sprintf("O(n³) spectral and characterize stages not measured past %d", scaleSpectralMax),
			})
		}
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
