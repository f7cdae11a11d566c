package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// bigEnvBody builds a deterministic t×m ECS request body large enough that
// the compute stage dominates the request, so the stage-sum assertions are
// not at the mercy of scheduler noise.
func bigEnvBody(t_, m int) string {
	rows := make([][]float64, t_)
	for i := range rows {
		rows[i] = make([]float64, m)
		for j := range rows[i] {
			rows[i][j] = 1 + float64((i*31+j*17)%97)/10
		}
	}
	b, err := json.Marshal(map[string]any{"ecs": rows})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// topLevelStages are the disjoint request stages; they must cover nearly the
// whole request wall time. The pipeline spans ("standardize", "gram", ...)
// nest inside "compute" and are deliberately not in this set.
var topLevelStages = map[string]bool{
	"decode": true, "cache_lookup": true, "queue_wait": true, "compute": true, "encode": true,
}

func TestTraceTimingsEcho(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := bigEnvBody(100, 60)

	resp, out := post(t, ts, "/v1/characterize?trace=1", "application/json", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("missing X-Request-ID header")
	}
	p := decodeProfile(t, out)
	if p.Version != APIVersion {
		t.Errorf("api_version = %q, want %q", p.Version, APIVersion)
	}
	if p.Timings == nil || len(p.Timings.Stages) == 0 {
		t.Fatalf("traced response has no timings: %s", out)
	}
	if p.Timings.RequestID != resp.Header.Get("X-Request-ID") {
		t.Errorf("timings request id %q != header %q",
			p.Timings.RequestID, resp.Header.Get("X-Request-ID"))
	}
	if p.Timings.TotalMs <= 0 {
		t.Errorf("totalMs = %g, want > 0", p.Timings.TotalMs)
	}
	// The cold path must expose the compute pipeline's nested spans too.
	names := map[string]bool{}
	sum := 0.0
	for _, st := range p.Timings.Stages {
		names[st.Stage] = true
		if st.Ms < 0 || st.StartMs < 0 {
			t.Errorf("stage %s has negative timing: start=%g ms=%g", st.Stage, st.StartMs, st.Ms)
		}
		if topLevelStages[st.Stage] {
			sum += st.Ms
		}
	}
	for _, want := range []string{"decode", "cache_lookup", "queue_wait", "compute", "encode", "standardize", "gram", "eigensolve", "measures"} {
		if !names[want] {
			t.Errorf("traced cold characterize missing stage %q (got %v)", want, names)
		}
	}
	// Acceptance bound: the disjoint top-level stages account for the request
	// wall time within 10%.
	if gap := (p.Timings.TotalMs - sum) / p.Timings.TotalMs; gap > 0.10 || sum > p.Timings.TotalMs*1.001 {
		t.Errorf("top-level stages sum to %.3fms of %.3fms total (gap %.1f%%)",
			sum, p.Timings.TotalMs, gap*100)
	}

	// Without ?trace=1 the response must not carry timings (but still the
	// version and request ID).
	resp2, out2 := post(t, ts, "/v1/characterize", "application/json", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, out2)
	}
	if strings.Contains(out2, `"timings"`) {
		t.Errorf("untraced response leaked timings: %s", out2)
	}
	if resp2.Header.Get("X-Request-ID") == "" {
		t.Error("untraced response missing X-Request-ID header")
	}
	if resp2.Header.Get("X-Request-ID") == resp.Header.Get("X-Request-ID") {
		t.Error("request IDs must be unique per request")
	}
}

func TestTraceStagesMatchMetricsLabels(t *testing.T) {
	_, ts := testServer(t, Config{})

	resp, out := post(t, ts, "/v1/characterize?trace=1", "application/json", bigEnvBody(40, 25))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	p := decodeProfile(t, out)
	if p.Timings == nil {
		t.Fatal("no timings in traced response")
	}
	_, metrics := get(t, ts, "/metrics")
	for _, st := range p.Timings.Stages {
		series := fmt.Sprintf(`hcserved_stage_seconds_count{stage=%q}`, st.Stage)
		if !strings.Contains(metrics, series) {
			t.Errorf("stage %q from timings has no %s series in /metrics", st.Stage, series)
		}
	}
}

func TestBatchTimings(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := `{"envs":[` + bigEnvBody(30, 20) + `,` + bigEnvBody(25, 15) + `]}`
	resp, out := post(t, ts, "/v1/characterize/batch?trace=1", "application/json", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var br struct {
		Version string      `json:"api_version"`
		Timings *TimingsDTO `json:"timings"`
	}
	if err := json.Unmarshal([]byte(out), &br); err != nil {
		t.Fatal(err)
	}
	if br.Version != APIVersion {
		t.Errorf("api_version = %q, want %q", br.Version, APIVersion)
	}
	if br.Timings == nil || len(br.Timings.Stages) == 0 {
		t.Fatal("batch traced response has no timings")
	}
	// The batch fan-out must surface per-item "task" spans.
	tasks := 0
	for _, st := range br.Timings.Stages {
		if st.Stage == "task" {
			tasks++
		}
	}
	if tasks != 2 {
		t.Errorf("batch of 2 recorded %d task spans", tasks)
	}
}

func TestErrorEnvelopeVersion(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, out := post(t, ts, "/v1/characterize", "application/json", `{"bogus":`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	if !strings.Contains(out, `"api_version":"`+APIVersion+`"`) {
		t.Errorf("error envelope missing api_version: %s", out)
	}
}

func TestPprofGatedByConfig(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, _ := get(t, ts, "/debug/pprof/")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof disabled: GET /debug/pprof/ = %d, want 404", resp.StatusCode)
	}

	_, tsOn := testServer(t, Config{EnablePprof: true})
	resp, body := get(t, tsOn, "/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof enabled: GET /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index looks wrong: %.120s", body)
	}
	resp, _ = get(t, tsOn, "/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof enabled: GET /debug/pprof/cmdline = %d, want 200", resp.StatusCode)
	}
}
