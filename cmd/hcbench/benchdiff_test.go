package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name string, results []benchResult) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(benchReport{GoMaxProcs: 4, NumCPU: 4, Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBenchDiffPassesWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", []benchResult{
		{Name: "K1", NsPerOp: 1000, AllocsPerOp: 10},
		{Name: "K2", NsPerOp: 500, AllocsPerOp: 0},
	})
	newP := writeReport(t, dir, "new.json", []benchResult{
		{Name: "K1", NsPerOp: 1150, AllocsPerOp: 11}, // +15%, +10%
		{Name: "K2", NsPerOp: 400, AllocsPerOp: 0},
	})
	var buf strings.Builder
	ok, err := runBenchDiff(&buf, oldP, newP, 0.20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("within-threshold diff failed:\n%s", buf.String())
	}
}

func TestBenchDiffFailsOnNsRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", []benchResult{{Name: "K1", NsPerOp: 1000, AllocsPerOp: 10}})
	newP := writeReport(t, dir, "new.json", []benchResult{{Name: "K1", NsPerOp: 1300, AllocsPerOp: 10}})
	var buf strings.Builder
	ok, err := runBenchDiff(&buf, oldP, newP, 0.20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("+30%% ns/op passed:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "FAIL") {
		t.Errorf("output does not flag the failure:\n%s", buf.String())
	}
}

func TestBenchDiffFailsOnAllocRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", []benchResult{{Name: "K1", NsPerOp: 1000, AllocsPerOp: 10}})
	newP := writeReport(t, dir, "new.json", []benchResult{{Name: "K1", NsPerOp: 1000, AllocsPerOp: 13}})
	var buf strings.Builder
	ok, err := runBenchDiff(&buf, oldP, newP, 0.20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("+30%% allocs/op passed:\n%s", buf.String())
	}
}

func TestBenchDiffZeroAllocBaseline(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", []benchResult{{Name: "K1", NsPerOp: 100, AllocsPerOp: 0}})
	newP := writeReport(t, dir, "new.json", []benchResult{{Name: "K1", NsPerOp: 100, AllocsPerOp: 2}})
	var buf strings.Builder
	ok, err := runBenchDiff(&buf, oldP, newP, 0.20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("new allocations on a zero-alloc kernel passed")
	}
}

func TestBenchDiffAddedAndRemovedKernels(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", []benchResult{{Name: "Gone", NsPerOp: 100}})
	newP := writeReport(t, dir, "new.json", []benchResult{{Name: "Added", NsPerOp: 100}})
	var buf strings.Builder
	ok, err := runBenchDiff(&buf, oldP, newP, 0.20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("pure addition/removal failed:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "Added") || !strings.Contains(buf.String(), "Gone") {
		t.Errorf("additions/removals not listed:\n%s", buf.String())
	}
}

func writeServeReport(t *testing.T, dir, name, payload string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestServeDiffGatesWarmP50(t *testing.T) {
	dir := t.TempDir()
	oldP := writeServeReport(t, dir, "old.json",
		`{"phases":[{"name":"cold","p50_ms":30},{"name":"warm","p50_ms":10},{"name":"zipf","p50_ms":20}]}`)

	// Warm within threshold passes even with cold far worse: cold latency is
	// pipeline compute, which the kernel diff gates.
	okP := writeServeReport(t, dir, "ok.json",
		`{"phases":[{"name":"cold","p50_ms":60},{"name":"warm","p50_ms":11},{"name":"zipf","p50_ms":40}],
		  "zipf":{"distinct_requested":29,"characterizations":29,"unique_computes_only":true}}`)
	var buf strings.Builder
	ok, err := runBenchDiff(&buf, oldP, okP, 0.20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("within-threshold warm p50 failed:\n%s", buf.String())
	}

	// Warm past threshold fails.
	badP := writeServeReport(t, dir, "bad.json",
		`{"phases":[{"name":"warm","p50_ms":13}]}`)
	buf.Reset()
	ok, err = runBenchDiff(&buf, oldP, badP, 0.20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("+30%% warm p50 passed:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "FAIL") {
		t.Errorf("output does not flag the failure:\n%s", buf.String())
	}
}

func TestServeDiffP99Gate(t *testing.T) {
	dir := t.TempDir()
	oldP := writeServeReport(t, dir, "old.json",
		`{"phases":[{"name":"warm","p50_ms":10,"p99_ms":50}]}`)
	// p99 5x worse, p50 fine.
	newP := writeServeReport(t, dir, "new.json",
		`{"phases":[{"name":"warm","p50_ms":10,"p99_ms":250}]}`)

	// Off by default: the tail blowup is printed, not gated.
	var buf strings.Builder
	ok, err := runBenchDiff(&buf, oldP, newP, 0.20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("p99 regression failed the diff with the gate off:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "p99") {
		t.Errorf("p99 columns missing from the context output:\n%s", buf.String())
	}

	// Gated at the default threshold (3.0 = +300%): +400% fails.
	buf.Reset()
	ok, err = runBenchDiff(&buf, oldP, newP, 0.20, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("+400%% warm p99 passed with -gatep99:\n%s", buf.String())
	}

	// A tail within the generous threshold passes even when gated.
	mildP := writeServeReport(t, dir, "mild.json",
		`{"phases":[{"name":"warm","p50_ms":10,"p99_ms":120}]}`)
	buf.Reset()
	ok, err = runBenchDiff(&buf, oldP, mildP, 0.20, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("+140%% warm p99 failed the generous gate:\n%s", buf.String())
	}
}

func TestServeDiffGatesCoalescingInvariant(t *testing.T) {
	dir := t.TempDir()
	oldP := writeServeReport(t, dir, "old.json",
		`{"phases":[{"name":"warm","p50_ms":10}]}`)
	newP := writeServeReport(t, dir, "new.json",
		`{"phases":[{"name":"warm","p50_ms":10}],
		  "zipf":{"distinct_requested":29,"characterizations":35,"unique_computes_only":false}}`)
	var buf strings.Builder
	ok, err := runBenchDiff(&buf, oldP, newP, 0.20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("broken coalescing invariant passed:\n%s", buf.String())
	}
}

func TestServeDiffGatesStreamSpeedup(t *testing.T) {
	dir := t.TempDir()
	oldP := writeServeReport(t, dir, "old.json",
		`{"phases":[{"name":"warm","p50_ms":10}]}`)

	// A healthy stream section passes.
	okP := writeServeReport(t, dir, "ok.json",
		`{"phases":[{"name":"warm","p50_ms":10}],
		  "stream":{"mutations":500,"incremental_total":480,"p50_speedup":4.2,"accounting_balanced":true}}`)
	var buf strings.Builder
	ok, err := runBenchDiff(&buf, oldP, okP, 0.20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("4.2x stream speedup failed:\n%s", buf.String())
	}

	// Speedup below the 2x gate fails.
	slowP := writeServeReport(t, dir, "slow.json",
		`{"phases":[{"name":"warm","p50_ms":10}],
		  "stream":{"mutations":500,"incremental_total":480,"p50_speedup":1.4,"accounting_balanced":true}}`)
	buf.Reset()
	ok, err = runBenchDiff(&buf, oldP, slowP, 0.20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("1.4x stream speedup passed the 2x gate:\n%s", buf.String())
	}

	// Unbalanced accounting fails regardless of speedup.
	unbalP := writeServeReport(t, dir, "unbal.json",
		`{"phases":[{"name":"warm","p50_ms":10}],
		  "stream":{"mutations":500,"incremental_total":480,"p50_speedup":5.0,"accounting_balanced":false}}`)
	buf.Reset()
	ok, err = runBenchDiff(&buf, oldP, unbalP, 0.20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("unbalanced stream accounting passed:\n%s", buf.String())
	}
}

func writeScaleReport(t *testing.T, dir, name string, results []scaleResult) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(scaleReport{Kind: "scale", GoMaxProcs: 1, NumCPU: 1, Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestScaleDiffGatesOnlyGatedRecords(t *testing.T) {
	dir := t.TempDir()
	oldP := writeScaleReport(t, dir, "old.json", []scaleResult{
		{Name: "Scale/gram/serial/1000", Size: 1000, NsPerOp: 1e8, Gated: true},
		{Name: "Scale/gram/serial/4000", Size: 4000, NsPerOp: 1e10},
		{Name: "Scale/spectral/skipped/10000", Size: 10000}, // marker, no timing
	})

	// A big regression on an informational (4k) record passes; the marker
	// record with no timing on either side is ignored.
	okP := writeScaleReport(t, dir, "ok.json", []scaleResult{
		{Name: "Scale/gram/serial/1000", Size: 1000, NsPerOp: 1.1e8, Gated: true},
		{Name: "Scale/gram/serial/4000", Size: 4000, NsPerOp: 3e10},
		{Name: "Scale/spectral/skipped/10000", Size: 10000},
	})
	var buf strings.Builder
	ok, err := runBenchDiff(&buf, oldP, okP, 0.20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("informational 4k regression failed the diff:\n%s", buf.String())
	}

	// The same regression on the gated 1k record fails.
	badP := writeScaleReport(t, dir, "bad.json", []scaleResult{
		{Name: "Scale/gram/serial/1000", Size: 1000, NsPerOp: 3e8, Gated: true},
		{Name: "Scale/gram/serial/4000", Size: 4000, NsPerOp: 1e10},
	})
	buf.Reset()
	ok, err = runBenchDiff(&buf, oldP, badP, 0.20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("gated 1k regression passed:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "FAIL") {
		t.Errorf("output does not flag the failure:\n%s", buf.String())
	}
}

func TestScaleDiffGatingNeedsBothSides(t *testing.T) {
	// A record promoted to gated only in NEW must not fail the diff: gating
	// takes effect once the committed baseline carries the flag too.
	dir := t.TempDir()
	oldP := writeScaleReport(t, dir, "old.json", []scaleResult{
		{Name: "Scale/gram/serial/1000", Size: 1000, NsPerOp: 1e8},
	})
	newP := writeScaleReport(t, dir, "new.json", []scaleResult{
		{Name: "Scale/gram/serial/1000", Size: 1000, NsPerOp: 5e8, Gated: true},
	})
	var buf strings.Builder
	ok, err := runBenchDiff(&buf, oldP, newP, 0.20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("newly gated record failed against an ungated baseline:\n%s", buf.String())
	}
}

func TestBenchDiffRejectsMixedReportKinds(t *testing.T) {
	dir := t.TempDir()
	kernel := writeReport(t, dir, "kernel.json", []benchResult{{Name: "K1", NsPerOp: 100}})
	serve := writeServeReport(t, dir, "serve.json", `{"phases":[{"name":"warm","p50_ms":10}]}`)
	var buf strings.Builder
	if _, err := runBenchDiff(&buf, kernel, serve, 0.20, 0); err == nil {
		t.Error("kernel-vs-serving comparison accepted")
	}
	scale := writeScaleReport(t, dir, "scale.json", []scaleResult{{Name: "S", Size: 1000, NsPerOp: 1}})
	if _, err := runBenchDiff(&buf, scale, kernel, 0.20, 0); err == nil {
		t.Error("scale-vs-kernel comparison accepted")
	}
}

func TestBenchDiffMissingFile(t *testing.T) {
	var buf strings.Builder
	if _, err := runBenchDiff(&buf, "/nonexistent/a.json", "/nonexistent/b.json", 0.2, 0); err == nil {
		t.Error("missing input accepted")
	}
}
