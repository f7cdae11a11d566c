// Command hcbench regenerates every figure and worked example of the
// reproduced paper, plus the extension studies. With no arguments it runs
// the full suite; otherwise it runs the experiments named on the command
// line (FIG1..FIG8, EQ10, EX1..EX13).
//
// Usage:
//
//	hcbench [-list] [-md] [-parallel N] [experiment ...]
//	hcbench -bench BENCH_spectral.json
//
// Experiments run on the bounded worker pool of internal/parallel; -parallel
// sets the worker count (0 selects GOMAXPROCS, 1 forces the sequential
// path). Seeded sweeps produce identical tables at every worker count.
//
// The -cpuprofile, -memprofile and -trace flags capture the run with the
// standard Go profilers (go tool pprof / go tool trace); they compose with
// every mode, so a hot experiment or the -bench suite can be profiled
// directly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/etcmat"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/linalg"
	"repro/internal/matrix"
	"repro/internal/profiling"
	"repro/internal/sinkhorn"
)

func main() {
	os.Exit(run())
}

// run holds the real main so profiling stops (and any other defers) execute
// before the process exits; os.Exit in main would skip them. code is a named
// return so the profiling defer can escalate a clean exit to a failure when
// the profile write itself fails.
func run() (code int) {
	list := flag.Bool("list", false, "list available experiments and exit")
	md := flag.Bool("md", false, "render tables as GitHub-flavored markdown")
	workers := flag.Int("parallel", 0, "experiment engine worker count (0 = GOMAXPROCS, 1 = sequential)")
	bench := flag.String("bench", "", "run the kernel/engine benchmarks and write JSON results to this file (\"-\" for stdout)")
	benchdiff := flag.Bool("benchdiff", false, "compare two benchmark JSON files (OLD NEW) and fail on regressions past -threshold")
	threshold := flag.Float64("threshold", 0.20, "benchdiff: fractional ns/op or allocs/op regression that fails the comparison")
	gateP99 := flag.Bool("gatep99", false, "benchdiff: additionally gate the serving report's warm p99 (opt-in; tails are noisy)")
	p99Threshold := flag.Float64("p99threshold", 3.0, "benchdiff: fractional warm-p99 regression that fails when -gatep99 is set")
	wirebench := flag.String("wirebench", "", "run the request-decode micro-benchmarks (stdlib JSON vs streaming vs binary) and merge a decode_bench section into this serving report file (\"-\" for stdout)")
	scalebench := flag.String("scalebench", "", "run the fleet-scale sweep (Gram, spectral, tiled balance, characterize) and write a scale report to this file (\"-\" for stdout)")
	scaleSizes := flag.String("sizes", "1000,4000,10000", "scalebench: comma-separated matrix edges to sweep")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: hcbench [-list] [-md] [-parallel N] [experiment ...]\n")
		fmt.Fprintf(os.Stderr, "       hcbench -bench FILE\n")
		fmt.Fprintf(os.Stderr, "       hcbench -benchdiff [-threshold F] [-gatep99 [-p99threshold F]] OLD.json NEW.json\n")
		fmt.Fprintf(os.Stderr, "       hcbench -wirebench BENCH_serve.json\n")
		fmt.Fprintf(os.Stderr, "       hcbench -scalebench BENCH_scale.json [-sizes 1000,4000,10000]\n\n")
		fmt.Fprintf(os.Stderr, "Regenerates the paper's figures and the extension studies.\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	stopProfiling, err := profiling.Start(profiling.Config{
		CPUProfile: *cpuprofile,
		MemProfile: *memprofile,
		Trace:      *traceFile,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hcbench: profiling: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProfiling(); err != nil {
			fmt.Fprintf(os.Stderr, "hcbench: profiling: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *benchdiff {
		if flag.NArg() != 2 {
			fmt.Fprintf(os.Stderr, "hcbench: -benchdiff needs exactly two files, got %d\n", flag.NArg())
			return 2
		}
		p99 := 0.0
		if *gateP99 {
			p99 = *p99Threshold
		}
		ok, err := runBenchDiff(os.Stdout, flag.Arg(0), flag.Arg(1), *threshold, p99)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hcbench: benchdiff: %v\n", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}

	if *wirebench != "" {
		if err := runWireBench(*wirebench); err != nil {
			fmt.Fprintf(os.Stderr, "hcbench: wirebench: %v\n", err)
			return 1
		}
		return 0
	}

	if *scalebench != "" {
		if err := runScaleBench(*scalebench, *scaleSizes); err != nil {
			fmt.Fprintf(os.Stderr, "hcbench: scalebench: %v\n", err)
			return 1
		}
		return 0
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Desc)
		}
		return 0
	}
	if *bench != "" {
		if err := runBenchmarks(*bench); err != nil {
			fmt.Fprintf(os.Stderr, "hcbench: bench: %v\n", err)
			return 1
		}
		return 0
	}

	selected := experiments.All()
	if args := flag.Args(); len(args) > 0 {
		selected = selected[:0]
		for _, id := range args {
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "hcbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	failed := false
	for _, r := range experiments.RunAll(context.Background(), selected, *workers) {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "hcbench: %s: %v\n", r.ID, r.Err)
			failed = true
			continue
		}
		for _, tb := range r.Tables {
			render := tb.Render
			if *md {
				render = tb.RenderMarkdown
			}
			if err := render(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "hcbench: %s: render: %v\n", r.ID, err)
				failed = true
			}
		}
	}
	if failed {
		return 1
	}
	return 0
}

// benchResult is one machine-readable benchmark record. Each record carries
// the parallelism environment it was measured under, so records from reports
// taken on different machines (or GOMAXPROCS settings) stay interpretable
// when diffed side by side.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	// SpeedupVsSequential is set for parallel-engine entries: the sequential
	// wall-clock of the same workload divided by this entry's. Omitted when
	// GOMAXPROCS is 1 — the "parallel" run degenerates to the sequential path
	// and the ratio would only measure scheduling noise (Note says so).
	SpeedupVsSequential float64 `json:"speedup_vs_sequential,omitempty"`
	Note                string  `json:"note,omitempty"`
}

type benchReport struct {
	GoMaxProcs int           `json:"gomaxprocs"`
	NumCPU     int           `json:"num_cpu"`
	GoVersion  string        `json:"go_version"`
	Results    []benchResult `json:"results"`
}

// benchMatrix builds a reproducible strictly-positive t x m matrix.
func benchMatrix(t, m int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	a := matrix.New(t, m)
	for i := 0; i < t; i++ {
		for j := 0; j < m; j++ {
			a.Set(i, j, 0.1+rng.Float64()*10)
		}
	}
	return a
}

func record(name string, r testing.BenchmarkResult) benchResult {
	return benchResult{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
	}
}

// benchSamples is how many testing.Benchmark runs each report entry takes.
// The entry records the run with the median ns/op. The runs go round-robin
// over all entries, so one entry's samples are spread over the whole
// report rather than caught together in one slow stretch of a shared host.
const benchSamples = 5

// kernelBench is one entry of the benchmark report.
type kernelBench struct {
	name string
	fn   func(b *testing.B)
}

// runBenchmarks measures the numerical kernels and the experiment engine and
// writes the results as JSON. The engine is timed at one worker and at
// GOMAXPROCS workers over the same experiment subset, so the report carries
// an honest speedup number for the machine it ran on.
func runBenchmarks(path string) error {
	// Open the output first: the benchmarks take minutes, and a bad path
	// should fail before them, not after.
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	report := benchReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}

	var benches []kernelBench
	svdIn := benchMatrix(60, 40, 1)
	benches = append(benches, kernelBench{"SVDJacobi/60x40", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.SVDJacobi(svdIn)
		}
	}})
	benches = append(benches, kernelBench{"SingularValues/spectral/60x40", func(b *testing.B) {
		b.ReportAllocs()
		ws := linalg.NewWorkspace()
		var buf []float64
		for i := 0; i < b.N; i++ {
			buf = linalg.AppendSingularValues(buf[:0], svdIn, ws)
		}
	}})
	// The cold_bin serving shape: the O(k³) Gram and Householder kernels
	// dominate here, where at 60×40 the QL sweep still weighs in.
	bigIn := benchMatrix(512, 256, 5)
	benches = append(benches, kernelBench{"SingularValues/spectral/512x256", func(b *testing.B) {
		b.ReportAllocs()
		ws := linalg.NewWorkspace()
		var buf []float64
		for i := 0; i < b.N; i++ {
			buf = linalg.AppendSingularValues(buf[:0], bigIn, ws)
		}
	}})
	symIn := benchMatrix(48, 48, 2)
	sym := matrix.New(48, 48)
	for i := 0; i < 48; i++ {
		for j := 0; j < 48; j++ {
			sym.Set(i, j, (symIn.At(i, j)+symIn.At(j, i))/2)
		}
	}
	benches = append(benches, kernelBench{"SymEigJacobi/48x48", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linalg.SymEigJacobi(sym)
		}
	}})
	benches = append(benches, kernelBench{"SinkhornStandardize/60x40", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sinkhorn.Standardize(svdIn); err != nil {
				b.Fatal(err)
			}
		}
	}})
	benches = append(benches, kernelBench{"TMA/cold/16x8", func(b *testing.B) {
		b.ReportAllocs()
		tmaIn := benchMatrix(16, 8, 3)
		for i := 0; i < b.N; i++ {
			env, err := etcmat.NewFromECS(tmaIn)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.TMA(env); err != nil {
				b.Fatal(err)
			}
		}
	}})
	// Cold TMA at the SVD benchmark shape: the production path (Gram +
	// tridiagonal QL inside the Env memo) against the same measure computed
	// through the full Jacobi SVD, which is what the seed paid per evaluation.
	benches = append(benches, kernelBench{"TMA/cold/60x40", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			env, err := etcmat.NewFromECS(svdIn)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.TMA(env); err != nil {
				b.Fatal(err)
			}
		}
	}})
	benches = append(benches, kernelBench{"TMA/cold/60x40/jacobi-path", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sinkhorn.Standardize(svdIn)
			if err != nil {
				b.Fatal(err)
			}
			sv := linalg.SVDJacobi(res.Scaled).S
			sum := 0.0
			for _, s := range sv[1:] {
				sum += s
			}
			_ = sum / float64(len(sv)-1)
		}
	}})
	benches = append(benches, kernelBench{"TMA/memoized/16x8", func(b *testing.B) {
		b.ReportAllocs()
		env, err := etcmat.NewFromECS(benchMatrix(16, 8, 3))
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := core.TMA(env); err != nil {
				b.Fatal(err)
			}
		}
	}})
	benches = append(benches, kernelBench{"Generate/targeted/10x5", func(b *testing.B) {
		b.ReportAllocs()
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < b.N; i++ {
			if _, err := gen.Targeted(gen.Target{Tasks: 10, Machines: 5, MPH: 0.6, TDH: 0.8, TMA: 0.3}, rng); err != nil {
				b.Fatal(err)
			}
		}
	}})

	// Engine: the trial-sweep experiments, sequential vs full-width.
	suite := enginePool()
	engineBench := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range experiments.RunAll(context.Background(), suite, workers) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		}
	}
	benches = append(benches,
		kernelBench{"ExperimentEngine/sequential", engineBench(1)},
		kernelBench{"ExperimentEngine/parallel", engineBench(0)})

	samples := make([][]testing.BenchmarkResult, len(benches))
	for round := 0; round < benchSamples; round++ {
		for i, kb := range benches {
			samples[i] = append(samples[i], testing.Benchmark(kb.fn))
		}
	}
	medians := make([]testing.BenchmarkResult, len(benches))
	for i, runs := range samples {
		sort.Slice(runs, func(a, b int) bool { return runs[a].NsPerOp() < runs[b].NsPerOp() })
		medians[i] = runs[benchSamples/2]
		report.Results = append(report.Results, record(benches[i].name, medians[i]))
	}
	seq, par := medians[len(benches)-2], medians[len(benches)-1]
	parRec := &report.Results[len(benches)-1]
	switch {
	case runtime.GOMAXPROCS(0) == 1:
		parRec.Note = "speedup_vs_sequential omitted: GOMAXPROCS=1, parallel run degenerates to the sequential path"
	case par.NsPerOp() > 0:
		parRec.SpeedupVsSequential = float64(seq.NsPerOp()) / float64(par.NsPerOp())
	}

	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// enginePool picks the Monte Carlo sweep experiments — the ones whose trials
// actually fan out — for the engine benchmark.
func enginePool() []experiments.Experiment {
	var suite []experiments.Experiment
	for _, id := range []string{"EX1", "EX3", "EX6", "EX13"} {
		e, ok := experiments.ByID(id)
		if !ok {
			panic("hcbench: missing experiment " + id)
		}
		suite = append(suite, e)
	}
	return suite
}
