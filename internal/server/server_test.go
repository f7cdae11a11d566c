package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/linalg"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Logger = quietLogger()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path, contentType, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func decodeProfile(t *testing.T, body string) ProfileDTO {
	t.Helper()
	var p ProfileDTO
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("decoding profile %q: %v", body, err)
	}
	return p
}

const envBody = `{"etc":[[10,"inf",7],[4,2,9],[5,6,1]]}`

func TestCharacterizeEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})

	resp, body := post(t, ts, "/v1/characterize", "application/json", envBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	p := decodeProfile(t, body)
	if p.Tasks != 3 || p.Machines != 3 {
		t.Errorf("shape %dx%d, want 3x3", p.Tasks, p.Machines)
	}
	if p.MPH <= 0 || p.MPH > 1 || p.TDH <= 0 || p.TDH > 1 {
		t.Errorf("measures out of range: MPH=%g TDH=%g", p.MPH, p.TDH)
	}
	if p.TMA == nil {
		t.Errorf("TMA missing: %s", body)
	}
	if p.Cached {
		t.Error("first request reported cached")
	}

	// Identical body → cache hit.
	resp2, body2 := post(t, ts, "/v1/characterize", "application/json", envBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	p2 := decodeProfile(t, body2)
	if !p2.Cached {
		t.Error("identical request missed the cache")
	}
	if p2.MPH != p.MPH || p2.TDH != p.TDH || *p2.TMA != *p.TMA {
		t.Error("cached profile differs from computed profile")
	}
}

func TestCharacterizeCSV(t *testing.T) {
	_, ts := testServer(t, Config{})
	csv := "task,m1,m2\ngcc,10,20\nmcf,30,inf\n"
	resp, body := post(t, ts, "/v1/characterize", "text/csv", csv)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	p := decodeProfile(t, body)
	if p.Tasks != 2 || p.Machines != 2 {
		t.Errorf("shape %dx%d, want 2x2", p.Tasks, p.Machines)
	}
}

func TestCharacterizeMalformed(t *testing.T) {
	_, ts := testServer(t, Config{})
	for name, tc := range map[string]struct{ ct, body string }{
		"not json":        {"application/json", "{"},
		"trailing bytes":  {"application/json", envBody + "{}"},
		"no matrix":       {"application/json", `{"taskNames":["a"]}`},
		"both forms":      {"application/json", `{"etc":[[1,2],[2,1]],"ecs":[[1,2],[2,1]]}`},
		"negative ecs":    {"application/json", `{"ecs":[[1,-1],[1,1]]}`},
		"zero etc":        {"application/json", `{"etc":[[0,1],[1,1]]}`},
		"all-inf row":     {"application/json", `{"etc":[["inf","inf"],[1,2]]}`},
		"bad csv":         {"text/csv", "not,a\nvalid"},
		"bad weights":     {"application/json", `{"etc":[[1,2],[2,1]],"taskWeights":[-1,1]}`},
		"nan-like string": {"application/json", `{"etc":[["nan",2],[2,1]]}`},
	} {
		t.Run(name, func(t *testing.T) {
			resp, body := post(t, ts, "/v1/characterize", tc.ct, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			var env apiError
			if err := json.Unmarshal([]byte(body), &env); err != nil {
				t.Fatalf("error envelope is not JSON: %s", body)
			}
			if env.Error.Code != "invalid_request" || env.Error.Message == "" {
				t.Errorf("envelope = %+v", env.Error)
			}
		})
	}
}

// TestJSONNestingDepthLimit pins the JSON scanner to encoding/json's nesting
// limit, the body object counting as depth 1: an unknown key nested exactly
// to depth 10,000 is accepted and one level deeper is rejected, as json.Valid
// decides, in the one-shot, batch and stream-open decoders alike. The
// one-shot body goes through the handler to pin the invalid_request code.
func TestJSONNestingDepthLimit(t *testing.T) {
	_, ts := testServer(t, Config{})
	const env = `"etc":[[1,2],[3,4]]`
	// nested returns an array nested so that its innermost level sits at the
	// given depth when the array itself sits at depth at.
	nested := func(depth, at int) string {
		n := depth - at + 1
		return strings.Repeat("[", n) + strings.Repeat("]", n)
	}
	batch := func(body string) error {
		p := acquirePayload()
		defer releasePayload(p)
		return scanJSONBatch([]byte(body), p, func(error) {})
	}
	open := func(body string) error {
		_, _, err := decodeStreamOpen([]byte(body))
		return err
	}
	for _, depth := range []int{maxNestingDepth, maxNestingDepth + 1} {
		want := depth <= maxNestingDepth
		oneShot := `{` + env + `,"x":` + nested(depth, 2) + `}`
		if json.Valid([]byte(oneShot)) != want {
			t.Fatalf("depth %d: json.Valid = %v, want %v", depth, !want, want)
		}
		resp, body := post(t, ts, "/v1/characterize", "application/json", oneShot)
		if want && resp.StatusCode != http.StatusOK {
			t.Errorf("depth %d: status %d, want 200: %.200s", depth, resp.StatusCode, body)
		}
		if !want {
			var e apiError
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal([]byte(body), &e) != nil || e.Error.Code != "invalid_request" {
				t.Errorf("depth %d: status %d body %.200s, want 400 invalid_request", depth, resp.StatusCode, body)
			}
		}
		for name, tc := range map[string]struct {
			body   string
			decode func(string) error
		}{
			"batch top-level key": {`{"x":` + nested(depth, 2) + `,"envs":[{` + env + `}]}`, batch},
			"batch env key":       {`{"envs":[{` + env + `,"x":` + nested(depth, 4) + `}]}`, batch},
			"open top-level key":  {`{"op":"open","x":` + nested(depth, 2) + `,"env":{` + env + `}}`, open},
			"open env key":        {`{"op":"open","env":{` + env + `,"x":` + nested(depth, 3) + `}}`, open},
		} {
			if json.Valid([]byte(tc.body)) != want {
				t.Fatalf("%s depth %d: json.Valid = %v, want %v", name, depth, !want, want)
			}
			if err := tc.decode(tc.body); (err == nil) != want {
				t.Errorf("%s depth %d: decode error %v, want accepted = %v", name, depth, err, want)
			}
		}
	}
}

// TestBodyLimit pins the oversized-body contract: exceeding MaxBodyBytes is
// its own condition — 413 with the stable code body_too_large — on every
// body-decoding endpoint, distinct from the 400 invalid_request class.
func TestBodyLimit(t *testing.T) {
	_, ts := testServer(t, Config{MaxBodyBytes: 128})
	big := `{"etc":[[` + strings.Repeat("1,", 200) + `1]]}`
	for _, tc := range []struct {
		name, path, ct, body string
	}{
		{"characterize json", "/v1/characterize", "application/json", big},
		{"characterize binary", "/v1/characterize", "application/x-hc-matrix", string(make([]byte, 256))},
		{"characterize csv", "/v1/characterize", "text/csv", "t," + strings.Repeat("m,", 200) + "m\n"},
		{"batch", "/v1/characterize/batch", "application/json", `{"envs":[` + big + `]}`},
		{"whatif", "/v1/whatif", "application/json", big},
		{"generate", "/v1/generate", "application/json", `{"kind":"range","note":"` + strings.Repeat("x", 200) + `"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts, tc.path, tc.ct, tc.body)
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d, want 413: %s", resp.StatusCode, body)
			}
			var env apiError
			if err := json.Unmarshal([]byte(body), &env); err != nil {
				t.Fatalf("error envelope is not JSON: %s", body)
			}
			if env.Error.Code != "body_too_large" {
				t.Errorf("code = %q, want body_too_large", env.Error.Code)
			}
			if !strings.Contains(env.Error.Message, "bytes") {
				t.Errorf("limit error does not mention the byte cap: %s", body)
			}
		})
	}
	// Exactly at the cap is fine (128-byte cap, body well under it).
	resp, body := post(t, ts, "/v1/characterize", "application/json", `{"etc":[[1,2],[3,4]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("under-cap body: status %d: %s", resp.StatusCode, body)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := `{"envs":[
		{"etc":[[10,20],[30,15]]},
		{"ecs":[[1,-1],[1,1]]},
		{"etc":[[10,20],[30,15]]},
		{"csv":"task,m1,m2\na,1,2\nb,3,4\n"}
	]}`
	resp, body := post(t, ts, "/v1/characterize/batch", "application/json", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out batchResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Profiles) != 4 {
		t.Fatalf("%d items, want 4", len(out.Profiles))
	}
	if out.Profiles[0].Profile == nil || out.Profiles[0].Error != nil {
		t.Errorf("item 0 = %+v, want a profile", out.Profiles[0])
	}
	if out.Profiles[1].Profile != nil || out.Profiles[1].Error == nil || out.Profiles[1].Error.Code != codeInvalidRequest {
		t.Errorf("item 1 = %+v, want an invalid_request error", out.Profiles[1])
	}
	if out.Profiles[3].Profile == nil {
		t.Errorf("item 3 (csv) = %+v, want a profile", out.Profiles[3])
	}

	// Replaying the batch must serve every valid item from the cache.
	resp, body = post(t, ts, "/v1/characterize/batch", "application/json", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	for i, item := range out.Profiles {
		if i == 1 {
			continue // the invalid item stays invalid
		}
		if item.Profile == nil || !item.Profile.Cached {
			t.Errorf("replayed item %d missed the cache: %+v", i, item)
		}
	}

	t.Run("empty batch", func(t *testing.T) {
		resp, body := post(t, ts, "/v1/characterize/batch", "application/json", `{"envs":[]}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
		}
	})
	t.Run("oversized batch", func(t *testing.T) {
		_, ts := testServer(t, Config{MaxBatchEnvs: 2})
		resp, body := post(t, ts, "/v1/characterize/batch", "application/json",
			`{"envs":[{"etc":[[1,2],[2,1]]},{"etc":[[1,2],[2,1]]},{"etc":[[1,2],[2,1]]}]}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
		}
	})
}

// The batch body's "envs" key matches case-insensitively, as encoding/json
// (and the scanner's env fields) match field names.
func TestBatchEnvsKeyCaseInsensitive(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := post(t, ts, "/v1/characterize/batch", "application/json", `{"ENVS":[{"etc":[[1,2],[3,4]]}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out batchResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Profiles) != 1 || out.Profiles[0].Profile == nil {
		t.Fatalf("got %+v, want 1 profile", out.Profiles)
	}
}

func TestGenerateEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	for name, body := range map[string]string{
		"range":    `{"kind":"range","tasks":6,"machines":4,"seed":1,"rTask":50,"rMach":10}`,
		"cvb":      `{"kind":"cvb","tasks":6,"machines":4,"seed":2,"vTask":0.4,"vMach":0.3,"muTask":30}`,
		"targeted": `{"kind":"targeted","tasks":8,"machines":5,"seed":3,"mph":0.7,"tdh":0.8,"tma":0.2}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, out := post(t, ts, "/v1/generate", "application/json", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, out)
			}
			var g generateResponse
			if err := json.Unmarshal([]byte(out), &g); err != nil {
				t.Fatal(err)
			}
			if g.Env == nil || len(g.Env.ETC) == 0 {
				t.Fatalf("no environment in response: %s", out)
			}
			if g.Profile == nil {
				t.Fatalf("no profile in response: %s", out)
			}
			if name == "targeted" {
				if g.Mix == nil {
					t.Error("targeted response missing mix")
				}
				if g.Profile.TMA == nil || *g.Profile.TMA < 0.1 || *g.Profile.TMA > 0.3 {
					t.Errorf("achieved TMA %v, requested 0.2", g.Profile.TMA)
				}
			}
		})
	}

	t.Run("deterministic for a fixed seed", func(t *testing.T) {
		body := `{"kind":"range","tasks":4,"machines":3,"seed":9,"rTask":20,"rMach":5}`
		_, a := post(t, ts, "/v1/generate", "application/json", body)
		_, b := post(t, ts, "/v1/generate", "application/json", body)
		var ga, gb generateResponse
		if err := json.Unmarshal([]byte(a), &ga); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(b), &gb); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(ga.Env.ETC) != fmt.Sprint(gb.Env.ETC) {
			t.Error("same seed produced different environments")
		}
		// The second call must also have hit the profile cache.
		if !gb.Profile.Cached {
			t.Error("repeated generation missed the profile cache")
		}
	})

	for name, body := range map[string]string{
		"unknown kind":   `{"kind":"zipf","tasks":4,"machines":3}`,
		"bad dimensions": `{"kind":"range","tasks":0,"machines":3,"rTask":10,"rMach":10}`,
		"bad ranges":     `{"kind":"range","tasks":4,"machines":3,"rTask":0.5,"rMach":10}`,
		"tma range":      `{"kind":"targeted","tasks":4,"machines":3,"mph":0.9,"tdh":0.9,"tma":1.5}`,
	} {
		t.Run("rejects "+name, func(t *testing.T) {
			resp, out := post(t, ts, "/v1/generate", "application/json", body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, out)
			}
		})
	}
}

func TestWhatifEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := post(t, ts, "/v1/whatif", "application/json", `{"etc":[[10,20,5],[30,15,8],[7,9,11]]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out whatifResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Baseline == nil {
		t.Fatal("missing baseline")
	}
	if len(out.Deltas) != 6 { // 3 machines + 3 task types
		t.Fatalf("%d deltas, want 6", len(out.Deltas))
	}
	kinds := map[string]int{}
	for _, d := range out.Deltas {
		kinds[d.Kind]++
		if d.Error == "" && d.DMPH == nil {
			t.Errorf("delta %s/%s has neither value nor error", d.Kind, d.Name)
		}
	}
	if kinds["machine"] != 3 || kinds["task"] != 3 {
		t.Errorf("delta kinds = %v", kinds)
	}

	t.Run("malformed", func(t *testing.T) {
		resp, _ := post(t, ts, "/v1/whatif", "application/json", `{"etc":[[1]]`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
	})
}

func TestOverloadSheds429(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: -1}) // no waiting room
	// Occupy the single compute slot directly; the next request must be
	// shed immediately.
	release, err := s.adm.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	resp, body := post(t, ts, "/v1/characterize", "application/json", envBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var env apiError
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error.Code != "overloaded" {
		t.Errorf("envelope = %s", body)
	}

	// A cache hit must still be served while the pool is saturated: warm the
	// cache first (release the slot for one request), then saturate again.
	release()
	if resp, _ := post(t, ts, "/v1/characterize", "application/json", envBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming request failed: %d", resp.StatusCode)
	}
	release2, err := s.adm.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release2()
	resp3, body3 := post(t, ts, "/v1/characterize", "application/json", envBody)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("cache hit shed during overload: %d %s", resp3.StatusCode, body3)
	}
	if !decodeProfile(t, body3).Cached {
		t.Error("expected a cached profile during overload")
	}
}

func TestQueuedRequestTimesOut(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 8, RequestTimeout: 30 * time.Millisecond})
	release, err := s.adm.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	resp, body := post(t, ts, "/v1/characterize", "application/json", envBody)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	var env apiError
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error.Code != "timeout" {
		t.Errorf("envelope = %s", body)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var h map[string]any
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" {
		t.Errorf("status = %v", h["status"])
	}
	for _, key := range []string{"uptimeSeconds", "inflight", "queued", "cacheEntries", "workers", "goVersion"} {
		if _, ok := h[key]; !ok {
			t.Errorf("healthz missing %q: %s", key, body)
		}
	}
}

// The eigensolver's Jacobi fallbacks are a process-wide tally kept in
// linalg; /metrics exports it as a counter read at scrape time.
func TestMetricsEigensolverFallbacks(t *testing.T) {
	_, ts := testServer(t, Config{})
	_, body := get(t, ts, "/metrics")
	for _, want := range []string{
		"# TYPE hcserved_eigensolver_fallbacks_total counter",
		fmt.Sprintf("hcserved_eigensolver_fallbacks_total %d\n", linalg.EigensolverFallbacks()),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	// Generate traffic: one miss, one hit, one 400.
	post(t, ts, "/v1/characterize", "application/json", envBody)
	post(t, ts, "/v1/characterize", "application/json", envBody)
	post(t, ts, "/v1/characterize", "application/json", "{")

	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	for _, want := range []string{
		"hcserved_cache_hits_total 1",
		"hcserved_cache_misses_total 1",
		"hcserved_characterizations_total 1",
		`hcserved_requests_total{endpoint="characterize",code="200"} 2`,
		`hcserved_requests_total{endpoint="characterize",code="400"} 1`,
		"hcserved_request_seconds_bucket",
		"hcserved_queue_depth 0",
		"hcserved_inflight 0",
		"hcserved_cache_entries 1",
		"hcserved_uptime_seconds",
		"hcserved_rejected_total 0",
		"hcserved_panics_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestPanicRecovery(t *testing.T) {
	s := New(Config{Logger: quietLogger()})
	s.mux.Handle("GET /boom", s.withRecovery(s.withObservability("boom",
		http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("kaboom") }))))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := get(t, ts, "/boom")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, body)
	}
	var env apiError
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error.Code != "internal" {
		t.Errorf("envelope = %s", body)
	}
	if s.panics.Value() != 1 {
		t.Errorf("panic counter = %d", s.panics.Value())
	}
}

func TestMethodAndPathErrors(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, _ := get(t, ts, "/v1/characterize")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on a POST route: %d, want 405", resp.StatusCode)
	}
	resp2, _ := get(t, ts, "/nope")
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: %d, want 404", resp2.StatusCode)
	}
}

// TestServerConcurrentMixedLoad hammers the full stack — cache hits, cold
// misses, batches, scrapes — from many goroutines over a tiny cache and
// queue, so admission, eviction and metrics interleave; with -race this is
// the serving tier's end-to-end data-race gate.
func TestServerConcurrentMixedLoad(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 4, QueueDepth: 4, CacheSize: 4})
	client := ts.Client()
	bodies := make([]string, 12)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"etc":[[%d,20,5],[30,15,8],[7,9,%d]]}`, i+10, i+11)
	}
	var wg sync.WaitGroup
	var served, shed, failed int64
	var mu sync.Mutex
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				var resp *http.Response
				var err error
				switch i % 5 {
				case 4:
					resp, err = client.Get(ts.URL + "/metrics")
				case 3:
					resp, err = client.Post(ts.URL+"/v1/characterize/batch", "application/json",
						strings.NewReader(`{"envs":[`+bodies[(i+w)%len(bodies)]+`,`+bodies[(i+w+1)%len(bodies)]+`]}`))
				default:
					resp, err = client.Post(ts.URL+"/v1/characterize", "application/json",
						strings.NewReader(bodies[(i*w)%len(bodies)]))
				}
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mu.Lock()
				switch {
				case resp.StatusCode == http.StatusOK:
					served++
				case resp.StatusCode == http.StatusTooManyRequests:
					shed++
				default:
					failed++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if failed > 0 {
		t.Errorf("%d requests failed with unexpected statuses", failed)
	}
	if served == 0 {
		t.Error("no request succeeded under concurrent load")
	}
	t.Logf("served=%d shed=%d", served, shed)
}

// TestRunGracefulDrain runs the real listener, cancels the run context while
// a request is in flight, and requires both a clean drain (Run returns nil)
// and a completed response.
func TestRunGracefulDrain(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0", Workers: 2, Logger: quietLogger()})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	var addr string
	for i := 0; i < 200; i++ {
		if addr = s.BoundAddr(); addr != "" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("listener never came up")
	}
	base := "http://" + addr

	// A moderately expensive request (leave-one-out on 12x6 = 18 full
	// characterizations) so the drain window is non-trivial.
	body := `{"kind":"range","tasks":12,"machines":6,"seed":5,"rTask":100,"rMach":10}`
	resp, err := http.Post(base+"/v1/generate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var g generateResponse
	if err := json.NewDecoder(resp.Body).Decode(&g); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	envJSON, err := json.Marshal(g.Env)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		status int
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/whatif", "application/json", strings.NewReader(string(envJSON)))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- result{status: resp.StatusCode}
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the handler
	cancel()

	r := <-inflight
	if r.err != nil {
		t.Errorf("in-flight request dropped during drain: %v", r.err)
	} else if r.status != http.StatusOK {
		t.Errorf("in-flight request status %d during drain", r.status)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Run returned %v, want nil after a clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	// The listener must actually be closed.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting connections after shutdown")
	}
}
