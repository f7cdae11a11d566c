package main

import (
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
	"repro/internal/sinkhorn"
)

// The -scalebench mode measures the fleet-scale numeric core at environment
// sizes far past the kernel suite's 60×40 shapes: the blocked Gram kernel,
// the values-only spectral pipeline, the tiled
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
	Results    []scaleResult `json:"results"`
}

// parseSizes parses the -sizes list ("1000,4000,10000"): each entry is a
// square edge n or a rows×columns shape RxC ("8192x256").
func parseSizes(csv string) ([][2]int, error) {
	var sizes [][2]int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		rs, cs, rect := strings.Cut(f, "x")
		r, err := strconv.Atoi(rs)
		c := r
		if err == nil && rect {
			c, err = strconv.Atoi(cs)
		}
		if err != nil || r < 2 || c < 2 {
			return nil, fmt.Errorf("bad size %q (want integers >= 2, as N or RxC)", f)
		}
		sizes = append(sizes, [2]int{r, c})
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

	rep := scaleReport{
		Kind:       "scale",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	for _, shape := range sizes {
		// A square size keeps its plain edge in record names; a rectangular
		// one is named RxC and never gates.
		t, m := shape[0], shape[1]
		n, label := t, strconv.Itoa(t)
		if t != m {
			n, label = max(t, m), fmt.Sprintf("%dx%d", t, m)
		}
		add := func(name string, r testing.BenchmarkResult, note string) {
			rep.Results = append(rep.Results, scaleResult{
				Name:    name + "/" + label,
				Size:    n,
				NsPerOp: float64(r.NsPerOp()),
				Gated:   t == m && n == scaleGateSize,
				Note:    note,
			})
			fmt.Fprintf(os.Stderr, "hcbench: scale: %s/%s  %.3fs/op\n", name, label, float64(r.NsPerOp())/1e9)
		}
		a := benchMatrix(t, m, int64(n))
		k := min(t, m)
		g := matrix.New(k, k)

		add("Scale/gram/serial", testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matrix.GramInto(g.Reset(k, k), a)
			}
		}), "")

		// The two fused balance passes, whole-row vs cache-oblivious tiled:
		// "pass" scales columns and sums rows, "rowpass" scales rows and
		// sums columns. The unit factors keep the matrix bit-stable across
		// iterations.
		w := a.Clone()
		rowOnes, colOnes := make([]float64, t), make([]float64, m)
		for i := range rowOnes {
			rowOnes[i] = 1
		}
		for j := range colOnes {
			colOnes[j] = 1
		}
		rowSums, colSums := make([]float64, t), make([]float64, m)
		add("Scale/sinkhorn/pass/row", testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.ScaleColsRowSums(colOnes, rowSums)
			}
		}), "")
		add("Scale/sinkhorn/pass/tiled", testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkhorn.ScaleColsRowSumsTiled(w, colOnes, rowSums)
			}
		}), "")
		add("Scale/sinkhorn/rowpass/row", testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w.ScaleRowsColSums(rowOnes, colSums)
			}
		}), "")
		add("Scale/sinkhorn/rowpass/tiled", testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkhorn.ScaleRowsColSumsTiled(w, rowOnes, colSums)
			}
		}), "")

		if n <= scaleSpectralMax {
			ws := linalg.NewWorkspace()
			var buf []float64
			add("Scale/spectral/serial", testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					buf = linalg.AppendSingularValues(buf[:0], a, ws)
				}
			}), "")

			// End-to-end characterization, environment build included, with
			// the serving tier's buffer recycling so iterations reuse pooled
			// storage the way steady-state requests do.
			add("Scale/characterize", testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					env, err := etcmat.NewFromECS(a)
					if err != nil {
						b.Fatal(err)
					}
					p := core.Characterize(env)
					if p.TMAErr != nil {
						b.Fatal(p.TMAErr)
					}
					env.ReleaseBuffers()
				}
			}), "")
		} else {
			rep.Results = append(rep.Results, scaleResult{
				Name: "Scale/spectral/skipped/" + label,
				Size: n,
				Note: fmt.Sprintf("O(n³) spectral and characterize stages not measured past %d", scaleSpectralMax),
			})
		}
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
