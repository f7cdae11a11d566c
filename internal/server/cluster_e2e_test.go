package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/etcmat"
	"repro/internal/gen"
)

// clusterNode is one Run-backed server of a test cluster: a real listener on
// 127.0.0.1:0, its own cancel func (cancelling is the kill switch), and the
// Run error for drain assertions.
type clusterNode struct {
	srv    *Server
	base   string
	cancel context.CancelFunc
	done   chan error

	stopOnce sync.Once
	runErr   error
	timedOut bool
}

// stop kills the node (idempotently) and returns Run's error once drained.
func (n *clusterNode) stop() (error, bool) {
	n.stopOnce.Do(func() {
		n.cancel()
		select {
		case n.runErr = <-n.done:
		case <-time.After(10 * time.Second):
			n.timedOut = true
		}
	})
	return n.runErr, n.timedOut
}

// startClusterNode boots a cluster-mode server on a kernel-assigned port and
// waits for the listener. Fast gossip/suspicion intervals keep membership
// convergence inside test budgets.
func startClusterNode(t *testing.T, seeds []string, replicas int, logger *slog.Logger) *clusterNode {
	t.Helper()
	if logger == nil {
		logger = quietLogger()
	}
	s := New(Config{
		Addr:    "127.0.0.1:0",
		Workers: 2,
		Logger:  logger,
		Cluster: &cluster.Config{
			Peers:          seeds,
			Replicas:       replicas,
			VirtualNodes:   16,
			GossipInterval: 50 * time.Millisecond,
			SuspectAfter:   300 * time.Millisecond,
			DeadAfter:      900 * time.Millisecond,
			ProbeTimeout:   250 * time.Millisecond,
			Logger:         logger,
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	n := &clusterNode{srv: s, cancel: cancel, done: make(chan error, 1)}
	go func() { n.done <- s.Run(ctx) }()
	for i := 0; i < 400; i++ {
		if addr := s.BoundAddr(); addr != "" {
			n.base = "http://" + addr
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n.base == "" {
		cancel()
		t.Fatal("cluster node listener never came up")
	}
	t.Cleanup(func() {
		if _, timedOut := n.stop(); timedOut {
			t.Error("cluster node did not drain")
		}
	})
	return n
}

// waitRingSize polls until every given node's ring holds want members.
func waitRingSize(t *testing.T, nodes []*clusterNode, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		converged := true
		for _, n := range nodes {
			if n.srv.router.Ring().Len() != want {
				converged = false
				break
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			for _, n := range nodes {
				t.Logf("node %s ring=%d peers=%v", n.base, n.srv.router.Ring().Len(), n.srv.router.Peers())
			}
			t.Fatalf("membership never converged to %d ring nodes", want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// clusterEnv renders one generated environment as a characterize JSON body
// and returns it with its content key, so tests can steer bodies at owners
// or non-owners deliberately.
func clusterEnv(t *testing.T, seed int64) ([]byte, etcmat.ContentKey) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	env, err := gen.RangeBased(8, 5, 100, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(EnvToDTO(env))
	if err != nil {
		t.Fatal(err)
	}
	return body, env.ContentKey()
}

// scrapeNodeCounters parses a node's /metrics into name{labels} -> value.
func scrapeNodeCounters(t *testing.T, base string) map[string]uint64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scraping %s/metrics: %v", base, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]uint64)
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		if v, err := strconv.ParseUint(fields[1], 10, 64); err == nil {
			out[fields[0]] = v
		}
	}
	return out
}

// syncLogBuffer is a concurrency-safe sink for a node's slog output.
type syncLogBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncLogBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncLogBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestClusterForwardTraceAndRequestID pins the forwarded-request observability
// contract on a live two-node cluster: a request for a non-owned key carries
// its client-supplied X-Request-ID through the peer forward (the owner's
// request log shows the same ID), and the requester's ?trace=1 breakdown
// reports a forward stage disjoint from decode — with no local compute stage,
// because the owner did the computing.
func TestClusterForwardTraceAndRequestID(t *testing.T) {
	var ownerLog syncLogBuffer
	ownerLogger := slog.New(slog.NewTextHandler(&ownerLog, nil))

	// Replicas=1 makes ownership exclusive, so a non-owned key MUST forward.
	n1 := startClusterNode(t, nil, 1, nil)
	n2 := startClusterNode(t, []string{n1.srv.BoundAddr()}, 1, ownerLogger)
	waitRingSize(t, []*clusterNode{n1, n2}, 2)

	// Find a body node1 does not own: with two nodes and R=1 about half the
	// seeds qualify, so a short scan cannot plausibly run dry.
	var body []byte
	found := false
	for seed := int64(1); seed <= 64; seed++ {
		b, key := clusterEnv(t, seed)
		if !n1.srv.router.LocallyOwned(key) {
			body, found = b, true
			break
		}
	}
	if !found {
		t.Fatal("no non-owned key in 64 seeds (ring placement broken?)")
	}

	const reqID = "fwd-trace-e2e-1"
	req, err := http.NewRequest(http.MethodPost, n1.base+"/v1/characterize?trace=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Errorf("response X-Request-ID = %q, want the client-supplied %q", got, reqID)
	}

	var out struct {
		Timings *TimingsDTO `json:"timings"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Timings == nil {
		t.Fatal("traced response carried no timings")
	}
	if out.Timings.RequestID != reqID {
		t.Errorf("timings request id = %q, want %q", out.Timings.RequestID, reqID)
	}
	stages := map[string]StageTimingDTO{}
	for _, st := range out.Timings.Stages {
		stages[st.Stage] = st
	}
	fw, ok := stages["forward"]
	if !ok {
		t.Fatalf("no forward stage in trace: %+v", out.Timings.Stages)
	}
	if _, ok := stages["compute"]; ok {
		t.Error("forwarded request must not run local compute, but trace has a compute stage")
	}
	// Disjointness: the forward span starts at or after the decode span ends
	// (1µs tolerance for float rounding in the millisecond echo).
	if dec, ok := stages["decode"]; ok {
		if fw.StartMs < dec.StartMs+dec.Ms-0.001 {
			t.Errorf("forward stage [%f,+%f) overlaps decode [%f,+%f)",
				fw.StartMs, fw.Ms, dec.StartMs, dec.Ms)
		}
	} else {
		t.Error("trace missing decode stage")
	}

	// The owner served the forwarded request under the same request ID.
	deadline := time.Now().Add(2 * time.Second)
	for !strings.Contains(ownerLog.String(), "request_id="+reqID) {
		if time.Now().After(deadline) {
			t.Fatalf("owner log never showed request_id=%s:\n%s", reqID, ownerLog.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	ownerEntry := ""
	for _, line := range strings.Split(ownerLog.String(), "\n") {
		if strings.Contains(line, "request_id="+reqID) {
			ownerEntry = line
			break
		}
	}
	if !strings.Contains(ownerEntry, "endpoint=characterize") {
		t.Errorf("owner's forwarded request logged oddly: %s", ownerEntry)
	}
}

// TestClusterKillNodeRecovery is the e2e recovery smoke the CI workflow runs
// under -race: three Run-backed nodes, one killed mid-sequence, and two
// invariants at the end — no request to a surviving node was lost, and every
// surviving node's serving accounting balances exactly
// (hits+misses+coalesced+forwarded == characterize 200s).
func TestClusterKillNodeRecovery(t *testing.T) {
	n1 := startClusterNode(t, nil, 2, nil)
	n2 := startClusterNode(t, []string{n1.srv.BoundAddr()}, 2, nil)
	n3 := startClusterNode(t, []string{n1.srv.BoundAddr()}, 2, nil)
	all := []*clusterNode{n1, n2, n3}
	waitRingSize(t, all, 3)

	const nBodies = 24
	bodies := make([][]byte, nBodies)
	for i := range bodies {
		bodies[i], _ = clusterEnv(t, int64(1000+i))
	}
	// Round 1 sends body i to all[i%3] first. With 2 replicas on 3 nodes each
	// node owns 2/3 of the keys locally, so a survivor could be sent only
	// keys it owns and never forward. Bodies 0 and 1 are therefore drawn
	// from keys their first target, n1 or n2, does not own.
	next := int64(5000)
	notOwnedBy := func(n *clusterNode) []byte {
		for ; next < 5200; next++ {
			if body, key := clusterEnv(t, next); !n.srv.router.LocallyOwned(cacheKey(key)) {
				next++
				return body
			}
		}
		t.Fatalf("no key in seeds 5000-5199 that %s does not own", n.base)
		return nil
	}
	bodies[0], bodies[1] = notOwnedBy(n1), notOwnedBy(n2)

	lost := 0
	send := func(targets []*clusterNode, i int) {
		// Retry each body across the target rotation; only total failure
		// counts as lost.
		for a := 0; a < 2*len(targets); a++ {
			node := targets[(i+a)%len(targets)]
			resp, err := http.Post(node.base+"/v1/characterize", "application/json",
				bytes.NewReader(bodies[i]))
			if err != nil {
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		lost++
	}

	// Round 1: the full cluster, every body once. Most land on non-owners and
	// forward; owners compute and requesters back-fill.
	for i := range bodies {
		send(all, i)
	}

	// Kill node3 and immediately re-send on the survivors, before the failure
	// detector has noticed: forwards aimed at the dead owner must fall back
	// to local compute, not surface errors.
	if err, timedOut := n3.stop(); timedOut {
		t.Fatal("killed node never exited")
	} else if err != nil {
		t.Fatalf("killed node did not drain cleanly: %v", err)
	}
	survivors := []*clusterNode{n1, n2}
	for i := range bodies {
		send(survivors, i)
	}

	// Round 3 after the ring has healed: ownership excludes the dead node,
	// so everything resolves locally or via live forwards.
	waitRingSize(t, survivors, 2)
	for i := range bodies {
		send(survivors, i)
	}

	if lost != 0 {
		t.Fatalf("%d requests lost across the kill; the recovery invariant demands zero", lost)
	}

	// Let in-flight accounting land (the request counter increments after
	// the response bytes are on the wire; a cancelled hedge may still be
	// finishing) before scraping the invariant.
	time.Sleep(300 * time.Millisecond)
	for _, n := range survivors {
		c := scrapeNodeCounters(t, n.base)
		served := c[`hcserved_requests_total{endpoint="characterize",code="200"}`]
		accounted := c["hcserved_cache_hits_total"] + c["hcserved_cache_misses_total"] +
			c["hcserved_coalesced_total"] + c["hcserved_forwarded_total"]
		if served != accounted {
			t.Errorf("node %s accounting broken: served=%d but hits+misses+coalesced+forwarded=%d (hits=%d misses=%d coalesced=%d forwarded=%d)",
				n.base, served, accounted,
				c["hcserved_cache_hits_total"], c["hcserved_cache_misses_total"],
				c["hcserved_coalesced_total"], c["hcserved_forwarded_total"])
		}
		if c["hcserved_forwarded_total"] == 0 && c["hcserved_forward_errors_total"] == 0 {
			t.Errorf("node %s never touched the forward path; the test exercised nothing", n.base)
		}
	}
}

// TestClusterMetricsAggregation checks /metrics?cluster=1: the aggregated
// view must sum a counter across nodes and note nothing lost — served on
// different nodes, the same series line carries the cluster-wide total.
func TestClusterMetricsAggregation(t *testing.T) {
	n1 := startClusterNode(t, nil, 2, nil)
	n2 := startClusterNode(t, []string{n1.srv.BoundAddr()}, 2, nil)
	waitRingSize(t, []*clusterNode{n1, n2}, 2)

	for i := 0; i < 4; i++ {
		body, _ := clusterEnv(t, int64(2000+i))
		node := []*clusterNode{n1, n2}[i%2]
		resp, err := http.Post(node.base+"/v1/characterize", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	time.Sleep(200 * time.Millisecond)

	sumLocal := uint64(0)
	for _, n := range []*clusterNode{n1, n2} {
		c := scrapeNodeCounters(t, n.base)
		sumLocal += c[`hcserved_requests_total{endpoint="characterize",code="200"}`]
	}
	resp, err := http.Get(n1.base + "/metrics?cluster=1")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster metrics status %d", resp.StatusCode)
	}
	want := fmt.Sprintf(`hcserved_requests_total{endpoint="characterize",code="200"} %d`, sumLocal)
	if !strings.Contains(string(raw), want) {
		t.Errorf("aggregated metrics missing %q\n%s", want, raw)
	}
}
