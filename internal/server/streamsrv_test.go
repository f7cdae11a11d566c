package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/etcmat"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/sinkhorn"
	"repro/internal/wire"
)

// streamTestEnv is the deterministic 3x3 environment every stream test
// opens with.
func streamTestEnv() *EnvDTO {
	return &EnvDTO{ETC: [][]ETCValue{
		{10, 20, 40},
		{15, 12, 30},
		{25, 50, 9},
	}}
}

func TestStreamSessionJSON(t *testing.T) {
	s, ts := testServer(t, Config{})
	c, open, err := OpenStreamSession(context.Background(), nil, ts.URL, streamTestEnv(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if open.Seq != 0 || open.Profile == nil || open.Incremental != nil {
		t.Fatalf("open line: seq=%d profile=%v incremental=%v", open.Seq, open.Profile, open.Incremental)
	}
	if open.Profile.Tasks != 3 || open.Profile.Machines != 3 {
		t.Fatalf("open profile dims %dx%d, want 3x3", open.Profile.Tasks, open.Profile.Machines)
	}
	if open.Version != APIVersion {
		t.Fatalf("open api_version = %q, want %q", open.Version, APIVersion)
	}

	steps := []struct {
		do    func() (*StreamUpdate, error)
		tasks int
		machs int
	}{
		{func() (*StreamUpdate, error) { return c.AddTask("", []float64{0.1, 0.05, 0.2}) }, 4, 3},
		{func() (*StreamUpdate, error) { return c.AddMachine("gpu1", []float64{1, 2, 3, 4}) }, 4, 4},
		{func() (*StreamUpdate, error) { return c.SetCell(0, 0, 0.5) }, 4, 4},
		{func() (*StreamUpdate, error) { return c.DropTask(1) }, 3, 4},
		{func() (*StreamUpdate, error) { return c.SetWeights([]float64{1, 2, 3}, []float64{1, 1, 2, 2}) }, 3, 4},
	}
	for i, st := range steps {
		u, err := st.do()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if u.Error != nil {
			t.Fatalf("step %d: in-stream error %s: %s", i, u.Error.Code, u.Error.Message)
		}
		if u.Seq != i+1 {
			t.Errorf("step %d: seq = %d, want %d", i, u.Seq, i+1)
		}
		if u.Profile == nil || u.Incremental == nil {
			t.Fatalf("step %d: missing profile or incremental flag: %+v", i, u)
		}
		if u.Profile.Tasks != st.tasks || u.Profile.Machines != st.machs {
			t.Errorf("step %d: dims %dx%d, want %dx%d", i, u.Profile.Tasks, u.Profile.Machines, st.tasks, st.machs)
		}
		if u.Profile.Cached {
			t.Errorf("step %d: stream profile claims cached", i)
		}
	}

	sum, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Closed {
		t.Fatalf("close line not marked closed: %+v", sum)
	}
	if sum.IncrementalTotal+sum.RecomputedTotal != len(steps) {
		t.Errorf("close totals %d+%d, want %d mutations",
			sum.IncrementalTotal, sum.RecomputedTotal, len(steps))
	}

	// The accounting invariant: every session contributes one open profile
	// plus one per accepted mutation.
	if got, want := s.streamProfiles.Value(), s.streamSessions.Value()+s.streamIncremental.Value()+s.streamRecomputed.Value(); got != want {
		t.Errorf("stream accounting: profiles=%d, sessions+incremental+recomputed=%d", got, want)
	}
	if s.streamSessions.Value() != 1 {
		t.Errorf("stream sessions = %d, want 1", s.streamSessions.Value())
	}
	if s.streams.active.Load() != 0 {
		t.Errorf("live sessions after close = %d, want 0", s.streams.active.Load())
	}
}

// TestStreamMatchesOneShot pins the contract that makes streaming useful at
// all: after a run of mutations, the streamed profile equals a cold one-shot
// characterization of the same final environment (within the incremental
// solver's property-tested tolerance).
func TestStreamMatchesOneShot(t *testing.T) {
	_, ts := testServer(t, Config{})
	c, _, err := OpenStreamSession(context.Background(), nil, ts.URL, streamTestEnv(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddTask("", []float64{0.1, 0.05, 0.2}); err != nil {
		t.Fatal(err)
	}
	u, err := c.SetCell(2, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The same final environment, characterized cold at the stream solve
	// tolerance.
	env := etcmat.MustFromETC([][]float64{
		{10, 20, 40},
		{15, 12, 30},
		{25, 1 / 0.5, 9},
		{1 / 0.1, 1 / 0.05, 1 / 0.2},
	})
	env.SetStandardFormTol(core.StreamSolveTol)
	cold := core.Characterize(env)
	if u.Profile.TMA == nil || cold.TMAErr != nil {
		t.Fatalf("TMA unavailable: stream=%v coldErr=%v", u.Profile.TMA, cold.TMAErr)
	}
	if d := *u.Profile.TMA - cold.TMA; d > 1e-9 || d < -1e-9 {
		t.Errorf("stream TMA %.15f vs cold %.15f (delta %g)", *u.Profile.TMA, cold.TMA, d)
	}
	if u.Profile.MPH != cold.MPH || u.Profile.TDH != cold.TDH {
		t.Errorf("stream MPH/TDH (%g, %g) vs cold (%g, %g)",
			u.Profile.MPH, u.Profile.TDH, cold.MPH, cold.TDH)
	}
}

func TestStreamSessionLimit(t *testing.T) {
	_, ts := testServer(t, Config{MaxStreamSessions: 1})
	c, _, err := OpenStreamSession(context.Background(), nil, ts.URL, streamTestEnv(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = OpenStreamSession(context.Background(), nil, ts.URL, streamTestEnv(), 0)
	if err == nil || !strings.Contains(err.Error(), codeSessionLimit) {
		t.Fatalf("second session: err = %v, want %s", err, codeSessionLimit)
	}
	// Closing the first session frees the slot.
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, _, err := OpenStreamSession(context.Background(), nil, ts.URL, streamTestEnv(), 0)
	if err != nil {
		t.Fatalf("session after free: %v", err)
	}
	c2.Close()
}

func TestStreamInvalidMutationKeepsSession(t *testing.T) {
	s, ts := testServer(t, Config{})
	c, _, err := OpenStreamSession(context.Background(), nil, ts.URL, streamTestEnv(), 0)
	if err != nil {
		t.Fatal(err)
	}
	u, err := c.DropTask(99)
	if err != nil {
		t.Fatal(err)
	}
	if u.Error == nil || u.Error.Code != codeInvalidMutation {
		t.Fatalf("drop_task 99: %+v, want %s error", u, codeInvalidMutation)
	}
	// The session survives and the state is untouched.
	u, err = c.AddTask("", []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if u.Error != nil || u.Profile.Tasks != 4 {
		t.Fatalf("mutation after rejection: %+v", u)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if s.streamRejected.Value() != 1 {
		t.Errorf("rejected counter = %d, want 1", s.streamRejected.Value())
	}
}

func TestStreamFirstLineMustOpen(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson",
		strings.NewReader(`{"op":"add_task","speeds":[1,2]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var u StreamUpdate
	if err := json.NewDecoder(resp.Body).Decode(&u); err != nil {
		t.Fatal(err)
	}
	if u.Error == nil || u.Error.Code != codeInvalidRequest {
		t.Fatalf("first-line mutation: %+v, want %s", u, codeInvalidRequest)
	}
}

func TestStreamIdleEviction(t *testing.T) {
	_, ts := testServer(t, Config{StreamIdleTimeout: 100 * time.Millisecond})
	c, _, err := OpenStreamSession(context.Background(), nil, ts.URL, streamTestEnv(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.abort()
	// Send nothing; the server must evict with session_idle.
	u, err := c.read()
	if err != nil {
		t.Fatal(err)
	}
	if u.Error == nil || u.Error.Code != codeSessionIdle {
		t.Fatalf("idle session: %+v, want %s", u, codeSessionIdle)
	}
}

// TestStreamSessionBinary drives the binary framing end to end and checks
// the responses agree with a parallel JSON session over the same mutation
// sequence — including the profile frame's cached bit carrying the
// incremental flag.
func TestStreamSessionBinary(t *testing.T) {
	_, ts := testServer(t, Config{})

	// The JSON reference session.
	jc, jopen, err := OpenStreamSession(context.Background(), nil, ts.URL, streamTestEnv(), 0)
	if err != nil {
		t.Fatal(err)
	}
	jAdd, err := jc.AddTask("", []float64{0.1, 0.05, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	jCell, err := jc.SetCell(0, 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jc.Close(); err != nil {
		t.Fatal(err)
	}

	// The same session in binary framing.
	etc := matrix.New(3, 3)
	for i, row := range [][]float64{{10, 20, 40}, {15, 12, 30}, {25, 50, 9}} {
		for j, v := range row {
			etc.Set(i, j, v)
		}
	}
	openFrame, err := wire.AppendMatrix(nil, etc)
	if err != nil {
		t.Fatal(err)
	}
	mut1, err := wire.AppendMutation(nil, wire.Mutation{
		Op: wire.MutAddTask, Task: -1, Machine: -1, Values: []float64{0.1, 0.05, 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	mut2, err := wire.AppendMutation(nil, wire.Mutation{
		Op: wire.MutSetCell, Task: 0, Machine: 1, Values: []float64{0.25}})
	if err != nil {
		t.Fatal(err)
	}

	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentTypeMatrix)
	respCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errCh <- err
			return
		}
		respCh <- resp
	}()
	if _, err := pw.Write(openFrame); err != nil {
		t.Fatal(err)
	}
	var resp *http.Response
	select {
	case resp = <-respCh:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for stream response headers")
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary stream open: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentTypeProfile {
		t.Fatalf("binary stream Content-Type = %q, want %q", ct, wire.ContentTypeProfile)
	}

	br := bufio.NewReader(resp.Body)
	var frame []byte
	readProfile := func() *wire.Profile {
		t.Helper()
		n, err := readFrame(br, &frame, 0)
		if err != nil {
			t.Fatalf("reading profile frame: %v", err)
		}
		p, _, err := wire.DecodeProfile(frame[:n])
		if err != nil {
			t.Fatalf("decoding profile frame: %v", err)
		}
		return p
	}

	bOpen := readProfile()
	if bOpen.Cached {
		t.Error("open profile frame claims incremental")
	}
	if jopen.Profile.TMA == nil || !bOpen.TMAValid || bOpen.TMA != *jopen.Profile.TMA {
		t.Errorf("binary open TMA %v (valid=%v) != JSON %v", bOpen.TMA, bOpen.TMAValid, jopen.Profile.TMA)
	}

	if _, err := pw.Write(mut1); err != nil {
		t.Fatal(err)
	}
	bAdd := readProfile()
	if bAdd.Tasks != 4 || bAdd.TMA != *jAdd.Profile.TMA {
		t.Errorf("binary add_task: tasks=%d TMA=%v, JSON TMA=%v", bAdd.Tasks, bAdd.TMA, *jAdd.Profile.TMA)
	}
	if bAdd.Cached != *jAdd.Incremental {
		t.Errorf("binary add_task cached bit %v != JSON incremental %v", bAdd.Cached, *jAdd.Incremental)
	}

	if _, err := pw.Write(mut2); err != nil {
		t.Fatal(err)
	}
	bCell := readProfile()
	if bCell.TMA != *jCell.Profile.TMA {
		t.Errorf("binary set_cell TMA %v != JSON %v", bCell.TMA, *jCell.Profile.TMA)
	}

	// EOF is a clean close.
	pw.Close()
	if _, err := readFrame(br, &frame, 0); err != io.EOF {
		t.Errorf("after close: err = %v, want EOF", err)
	}
}

// TestStreamGoldenTranscript pins the line-by-line shape of a JSON session —
// open, three mutations, close — as the v1.2 wire contract: which fields
// appear on which line, in what order, with what sequencing. Numeric profile
// values are checked structurally (they are covered by the property tests),
// but every envelope field is exact.
func TestStreamGoldenTranscript(t *testing.T) {
	_, ts := testServer(t, Config{})
	body := strings.Join([]string{
		`{"op":"open","env":{"etc":[[10,20,40],[15,12,30],[25,50,9]]}}`,
		`{"op":"add_task","speeds":[0.1,0.05,0.2]}`,
		`{"op":"set_cell","task":0,"machine":1,"value":0.25}`,
		`{"op":"drop_machine","index":2}`,
		`{"op":"close"}`,
	}, "\n") + "\n"
	resp, err := http.Post(ts.URL+"/v1/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 5 {
		t.Fatalf("transcript has %d lines, want 5:\n%s", len(lines), raw)
	}
	// Every line leads with the envelope: api_version then seq.
	for i, ln := range lines {
		prefix := fmt.Sprintf(`{"api_version":"1.2","seq":%d,`, i)
		if !strings.HasPrefix(ln, prefix) {
			t.Errorf("line %d does not open with %s: %s", i, prefix, ln)
		}
	}
	// Line 0: the cold open — a profile, no incremental flag.
	if !strings.Contains(lines[0], `"profile":{"tasks":3,"machines":3,`) {
		t.Errorf("open line: %s", lines[0])
	}
	if strings.Contains(lines[0], `"incremental"`) {
		t.Errorf("open line carries an incremental flag: %s", lines[0])
	}
	// Lines 1-3: mutations — profile plus the incremental flag.
	for i, dims := range []string{`"tasks":4,"machines":3,`, `"tasks":4,"machines":3,`, `"tasks":4,"machines":2,`} {
		ln := lines[i+1]
		if !strings.Contains(ln, `"profile":{`+dims[1:]) && !strings.Contains(ln, dims) {
			t.Errorf("mutation line %d dims, want %s: %s", i+1, dims, ln)
		}
		if !strings.Contains(ln, `"incremental":`) {
			t.Errorf("mutation line %d missing incremental flag: %s", i+1, ln)
		}
	}
	// Line 4: the close summary.
	var sum StreamUpdate
	if err := json.Unmarshal([]byte(lines[4]), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Closed || sum.Profile != nil || sum.Error != nil {
		t.Errorf("close line: %s", lines[4])
	}
	if sum.IncrementalTotal+sum.RecomputedTotal != 3 {
		t.Errorf("close totals %d+%d, want 3", sum.IncrementalTotal, sum.RecomputedTotal)
	}
}

// TestErrorEnvelopeGolden pins the exact v1.2 error envelope for every code
// in the registry (codes.go): one wire shape, code strings frozen.
func TestErrorEnvelopeGolden(t *testing.T) {
	for _, code := range []string{
		codeInvalidRequest, codeBodyTooLarge, codeUnsupportedEncoding,
		codeOverloaded, codeTimeout, codeCanceled, codeInternal,
		codeSessionLimit, codeInvalidMutation, codeSessionIdle,
	} {
		rec := httptest.NewRecorder()
		writeError(rec, http.StatusBadRequest, code, "boom")
		golden := `{"api_version":"1.2","error":{"code":"` + code + `","message":"boom"}}`
		if got := strings.TrimSpace(rec.Body.String()); got != golden {
			t.Errorf("error envelope for %s drifted:\n got  %s\n want %s", code, got, golden)
		}
	}
}

// TestStreamMetricsExposition checks the stream families render on /metrics
// with the accounting invariant visible to scrapers.
func TestStreamMetricsExposition(t *testing.T) {
	_, ts := testServer(t, Config{})
	c, _, err := OpenStreamSession(context.Background(), nil, ts.URL, streamTestEnv(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddTask("", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	_, body := get(t, ts, "/metrics")
	for _, want := range []string{
		"hcserved_stream_sessions_total 1",
		"hcserved_stream_profiles_total 2",
		`hcserved_stream_mutations_total{kind="add_task"} 1`,
		"hcserved_stream_sessions 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestStreamSequentialSessionsOneClient runs JSON sessions back to back over
// one keep-alive http.Client. A session ends with the request body still
// open on the client side, so the connection it ran on must not be handed
// to the next session: every open must succeed, every close must return its
// summary, and the server must log no recovered panic. Every other session
// holds its request body open briefly after reading the summary, the way a
// client that tears down lazily would.
func TestStreamSequentialSessionsOneClient(t *testing.T) {
	var logs syncLogBuffer
	s := New(Config{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ErrorLog = log.New(&logs, "", 0)
	ts.Start()
	defer ts.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	for i := 0; i < 20; i++ {
		run := clientSession
		if i%2 == 1 {
			run = heldOpenSession
		}
		// A session on a broken connection can block inside the transport
		// (it waits on the request-body pipe), so it runs off the test
		// goroutine under a deadline.
		done := make(chan error, 1)
		go func() { done <- run(client, ts.URL) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("session %d: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("session %d stalled", i)
		}
	}
	if n := s.panics.Value(); n != 0 {
		t.Errorf("%d handler panics recovered", n)
	}
	if out := logs.String(); strings.Contains(out, "panic") || strings.Contains(out, "superfluous") {
		t.Errorf("server log reports a broken connection:\n%s", out)
	}
}

// clientSession runs one open/set_cell/close session through StreamClient.
func clientSession(client *http.Client, baseURL string) error {
	c, _, err := OpenStreamSession(context.Background(), client, baseURL, streamTestEnv(), 0)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	u, err := c.SetCell(0, 1, 0.05)
	if err != nil {
		return fmt.Errorf("set_cell: %w", err)
	}
	if u.Error != nil {
		return fmt.Errorf("set_cell: %s: %s", u.Error.Code, u.Error.Message)
	}
	sum, err := c.Close()
	if err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if !sum.Closed {
		return fmt.Errorf("close line not marked closed: %+v", sum)
	}
	return nil
}

// heldOpenSession drives one open/set_cell/close session by hand and keeps
// its request body open for a moment after the summary arrives before
// closing it.
func heldOpenSession(client *http.Client, baseURL string) error {
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/stream", pr)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	go func() {
		fmt.Fprintln(pw, `{"op":"open","env":{"etc":[[10,20],[4,2]]}}`)
		fmt.Fprintln(pw, `{"op":"set_cell","task":0,"machine":1,"value":0.4}`)
		fmt.Fprintln(pw, `{"op":"close"}`)
	}()
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var last StreamUpdate
	for lines := 0; lines < 3; lines++ {
		if !sc.Scan() {
			return fmt.Errorf("held-open session: %d of 3 lines, err %v", lines, sc.Err())
		}
		last = StreamUpdate{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return fmt.Errorf("held-open session: line %d: %w", lines, err)
		}
	}
	if !last.Closed {
		return fmt.Errorf("held-open session: close line not marked closed: %s", sc.Bytes())
	}
	time.Sleep(20 * time.Millisecond)
	pw.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// TestStreamSessionTraceBounded pins that a session's request trace does not
// grow with the session: each solve's spans reach the stage histograms as it
// completes and leave the trace, so after n mutations the trace is empty and
// the stream_mutation stage has counted n observations before the session
// closes.
func TestStreamSessionTraceBounded(t *testing.T) {
	s := New(Config{Logger: quietLogger()})
	var tr atomic.Pointer[obs.Trace]
	ts := httptest.NewServer(s.withObservability("stream", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr.Store(obs.FromContext(r.Context()))
		s.handleStream(w, r)
	})))
	defer ts.Close()
	stageCount := func(stage string) string {
		var b strings.Builder
		if _, err := s.metrics.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		prefix := `hcserved_stage_seconds_count{stage="` + stage + `"} `
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, prefix) {
				return strings.TrimPrefix(line, prefix)
			}
		}
		return "absent"
	}

	c, _, err := OpenStreamSession(context.Background(), nil, ts.URL, streamTestEnv(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		u, err := c.SetCell(i%3, (i+1)%3, 0.05+0.001*float64(i))
		if err != nil || u.Error != nil {
			t.Fatalf("mutation %d: %v %+v", i, err, u)
		}
		if spans := tr.Load().Spans(); len(spans) != 0 {
			t.Fatalf("after mutation %d the session trace holds %d spans, want 0", i, len(spans))
		}
	}
	if got := stageCount("stream_mutation"); got != strconv.Itoa(n) {
		t.Errorf("stream_mutation stage count before close = %s, want %d", got, n)
	}
	if got := stageCount("stream_open"); got != "1" {
		t.Errorf("stream_open stage count = %s, want 1", got)
	}
	if _, err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := stageCount("stream_mutation"); got != strconv.Itoa(n) {
		t.Errorf("stream_mutation stage count after close = %s, want %d", got, n)
	}
}

// TestStreamOpenHonorsContext: a server that reads the open line and then
// answers nothing must not park OpenStreamSession past its context. The
// transport's body writer keeps reading the request pipe, and Do waits for
// it even after the context ends, so the pipe has to be closed when the
// context does.
func TestStreamOpenHonorsContext(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	opened := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			if strings.Contains(line, `"op":"open"`) {
				break
			}
		}
		close(opened) // the open line arrived; stall without replying
		<-release
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		select {
		case <-opened:
			cancel()
		case <-ctx.Done():
		}
	}()
	done := make(chan error, 1)
	go func() {
		_, _, err := OpenStreamSession(ctx, nil, "http://"+ln.Addr().String(), streamTestEnv(), 0)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("OpenStreamSession error %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("OpenStreamSession still blocked 10 s after its context was canceled")
	}
}

// TestStreamOpenMatchesCharacterize: a JSON session's opening line is
// decoded by the one-shot endpoints' scanner. The environment it opens on
// carries the content key and names /v1/characterize derives from the same
// env object, and the opening profile is bit for bit the one the session
// solver gives for that object decoded through encoding/json and EnvDTO.
// The session's cold solve runs at core.StreamSolveTol and the one-shot at
// sinkhorn.DefaultTol, so against /v1/characterize the open matches MPH and
// TDH exactly and TMA only to the one-shot's tolerance: on this environment
// they differ by 4.5e-10.
//
// The TMA bound, to first order: a solve stops with row sums exact and every
// column sum within δ of its target (1 for a square matrix). The log-scaling
// corrections still owed shrink by σ₂² per round, so they total at most
// δ/(1−σ₂²) per row and per column, and the stopped matrix lies within
// 2δ/(1−σ₂²)·‖S‖₂ of the standard form S in spectral norm. ‖S‖₂ = σ₁ = 1
// (Theorem 2), and by Weyl's inequality no singular value, hence not TMA,
// moves further. Both solves err that way, so the two TMAs differ by at most
// 2(DefaultTol + StreamSolveTol)/(1−σ₂²), here 3.7e-8.
func TestStreamOpenMatchesCharacterize(t *testing.T) {
	_, ts := testServer(t, Config{})
	envJSON := `{"etc":[[10,"inf",4.25e1],[15.5,12,3e1],[25,0.5e2,9.125]],` +
		`"taskNames":["a","b","c"],"taskWeights":[1,2,0.5],"machineWeights":[3,1,1]}`
	line := `{"op":"open","driftTolerance":1e-6,"env":` + envJSON + `}`

	env, tol, err := decodeStreamOpen([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if tol != 1e-6 {
		t.Errorf("drift tolerance %g, want 1e-6", tol)
	}
	oneShotKey, err := DecodeEnvContentKey([]byte(envJSON), "application/json")
	if err != nil {
		t.Fatal(err)
	}
	if env.ContentKey() != oneShotKey {
		t.Error("stream open and /v1/characterize decode different environments")
	}
	if got := strings.Join(env.TaskNames(), ","); got != "a,b,c" {
		t.Errorf("task names %q, want a,b,c", got)
	}

	var dto EnvDTO
	if err := json.Unmarshal([]byte(envJSON), &dto); err != nil {
		t.Fatal(err)
	}
	refEnv, err := dto.Env()
	if err != nil {
		t.Fatal(err)
	}
	me := core.NewMutableEnv(context.Background(), refEnv, 1e-6)
	defer me.Close()
	want, _ := json.Marshal(ProfileToDTO(me.Profile(), false))

	resp, body := post(t, ts, "/v1/stream", "application/x-ndjson", line+"\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d %s", resp.StatusCode, body)
	}
	var u StreamUpdate
	if err := json.NewDecoder(strings.NewReader(body)).Decode(&u); err != nil {
		t.Fatal(err)
	}
	if u.Profile == nil {
		t.Fatalf("stream open: %+v", u)
	}
	if got, _ := json.Marshal(u.Profile); string(got) != string(want) {
		t.Errorf("stream open profile differs from the reference decode:\n got  %s\n want %s", got, want)
	}

	resp, body = post(t, ts, "/v1/characterize", "application/json", envJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("characterize: %d %s", resp.StatusCode, body)
	}
	oneShot := decodeProfile(t, body)
	if oneShot.MPH != u.Profile.MPH || oneShot.TDH != u.Profile.TDH {
		t.Errorf("MPH/TDH: one-shot %v/%v, stream open %v/%v", oneShot.MPH, oneShot.TDH, u.Profile.MPH, u.Profile.TDH)
	}
	_, sv, _ := me.Env().StandardForm()
	bound := 2 * (sinkhorn.DefaultTol + core.StreamSolveTol) / (1 - sv[1]*sv[1])
	if d := math.Abs(*oneShot.TMA - *u.Profile.TMA); d > bound {
		t.Errorf("TMA: one-shot %.17g, stream open %.17g, %g apart (bound %g)", *oneShot.TMA, *u.Profile.TMA, d, bound)
	}
}

// TestDecodeStreamOpen covers the opening-line decoder's own cases: key
// order and case, null as absent, the last repeated env winning, and which
// failures read as a malformed line rather than a bad environment.
func TestDecodeStreamOpen(t *testing.T) {
	const env = `{"etc":[[1,2],[3,4]]}`
	ok := map[string]float64{
		`{"op":"open","env":` + env + `}`:                                    0,
		`{"env":` + env + `,"op":"open","driftTolerance":0.5}`:               0.5,
		`{"OP":"open","Env":` + env + `,"DRIFTTOLERANCE":2e-3}`:              2e-3,
		`{"op":"open","env":` + env + `,"driftTolerance":null,"speeds":[1]}`: 0,
		`{"op":"open","env":{"etc":[[9]]},"env":` + env + `}`:                0,
	}
	want, err := DecodeEnvContentKey([]byte(env), "application/json")
	if err != nil {
		t.Fatal(err)
	}
	for line, tol := range ok {
		e, gotTol, err := decodeStreamOpen([]byte(line))
		if err != nil {
			t.Errorf("%s: %v", line, err)
			continue
		}
		if e.ContentKey() != want || gotTol != tol {
			t.Errorf("%s: wrong environment or tolerance %g (want %g)", line, gotTol, tol)
		}
	}
	bad := map[string]string{
		`{"op":"open","env":` + env:                      "malformed stream line",
		`{"op":"open","env":` + env + `} x`:              "malformed stream line",
		`{"op":"open","env":{"etc":"x"}}`:                "malformed stream line",
		`{"op":"open","env":` + env + `,"env":null}`:     "the first stream line must be",
		`{"op":"add_task","env":` + env + `}`:            "the first stream line must be",
		`{"op":"open","env":{"etc":[[1,2],[3]]}}`:        "ragged etc matrix",
		`{"op":"open","env":{"etc":[[0,1]]}}`:            "must be positive",
		`{"op":"open","env":{"etc":[[1]],"ecs":[[1]]}}`:  "exactly one of",
		`{"op":"open","env":{"etc":[[1]]},"index":"x"}x`: "malformed stream line",
	}
	for line, prefix := range bad {
		if _, _, err := decodeStreamOpen([]byte(line)); err == nil || !strings.Contains(err.Error(), prefix) {
			t.Errorf("%s: err %v, want %q", line, err, prefix)
		}
	}
}
