package server

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/etcmat"
)

// staleViewNode is a cluster-mode server with a FROZEN membership view: it is
// served straight from s.Handler() on a pre-bound listener and Run is never
// called, so no gossip loop ever reconciles its ring with anyone else's. This
// is the pathological deployment state the hop-count loop guard exists for.
type staleViewNode struct {
	srv  *Server
	addr string // advertised host:port
	base string
}

// startStaleViewNode serves a node whose ring is self + exactly the given
// peers, forever.
func startStaleViewNode(t *testing.T, ln net.Listener, peers []string, replicas int) *staleViewNode {
	t.Helper()
	addr := ln.Addr().String()
	s := New(Config{
		Addr:    addr,
		Workers: 2,
		Logger:  quietLogger(),
		Cluster: &cluster.Config{
			Self:         addr,
			Peers:        peers,
			Replicas:     replicas,
			VirtualNodes: 16,
			Logger:       quietLogger(),
		},
	})
	go http.Serve(ln, s.Handler())
	t.Cleanup(func() { ln.Close() })
	return &staleViewNode{srv: s, addr: addr, base: "http://" + addr}
}

// TestClusterStaleViewHopBound is the loop-guard regression test. Divergent
// frozen membership views cannot make strict-primary forwarding cycle (every
// view agrees on the per-key vnode scan order, and each hop strictly descends
// it), but they CAN build arbitrarily long chains — and replica-read fan-out
// may climb back up the order, which is where an unguarded request ping-pongs
// forever. The hop count on X-HC-Forwarded bounds both. This test pins the
// deterministic half: a four-node ownership chain n1→n2→n3→n4 where n4 is
// unreachable. The request must terminate at n3 with a 200 served locally at
// MaxForwardHops — n3 never even attempts the forward its stale ring asks for
// — and every node's accounting identity still balances.
func TestClusterStaleViewHopBound(t *testing.T) {
	const nSeeds = 2000
	bodies := make([][]byte, nSeeds)
	keys := make([]etcmat.ContentKey, nSeeds)
	for i := range bodies {
		bodies[i], keys[i] = clusterEnv(t, int64(i+1))
	}

	// Reconstruct each node's ring client-side (vnode placement is purely
	// name-derived) and scan for a key whose per-view owner is the chain's
	// next node in all three views at once.
	ringOf := func(nodes ...string) *cluster.Ring {
		r := cluster.NewRing(1, 16)
		for _, n := range nodes {
			r.Add(n)
		}
		return r
	}
	chainedKey := func(a1, a2, a3, a4 string) int {
		ring1 := ringOf(a1, a2)
		ring2 := ringOf(a2, a3)
		ring3 := ringOf(a3, a4)
		for i, k := range keys {
			if ring1.Owners(k)[0] == a2 && ring2.Owners(k)[0] == a3 && ring3.Owners(k)[0] == a4 {
				return i
			}
		}
		return -1
	}

	// Placement depends on the listener addresses, and some address quads
	// admit no chained key at all, so re-draw the addresses (a bounded
	// number of times) until one does.
	var lns []net.Listener
	var addrs []string
	found := -1
	for draw := 0; draw < 10 && found < 0; draw++ {
		lns, addrs = make([]net.Listener, 3), make([]string, 4)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			lns[i], addrs[i] = ln, ln.Addr().String()
		}
		// The fourth address is real but refuses connections: a forward
		// attempt at it (the regression) would surface as a forward error
		// on n3.
		ln4, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[3] = ln4.Addr().String()
		ln4.Close()
		if found = chainedKey(addrs[0], addrs[1], addrs[2], addrs[3]); found < 0 {
			for _, ln := range lns {
				ln.Close()
			}
		}
	}
	if found < 0 {
		t.Fatalf("no chained key in %d seeds for any of 10 address draws (ring placement changed?)", nSeeds)
	}
	body, key := bodies[found], keys[found]

	// Divergent two-node views chained tail to head: each node knows only
	// itself and the next node in the chain.
	view1 := []string{addrs[1]}
	view2 := []string{addrs[2]}
	view3 := []string{addrs[3]}

	n1 := startStaleViewNode(t, lns[0], view1, 1)
	n2 := startStaleViewNode(t, lns[1], view2, 1)
	n3 := startStaleViewNode(t, lns[2], view3, 1)

	// Sanity: the chain is real — no live node believes it owns the key.
	for _, n := range []*staleViewNode{n1, n2, n3} {
		if n.srv.router.LocallyOwned(cacheKey(key)) {
			t.Fatalf("node %s believes it owns the scanned key; the views do not chain", n.addr)
		}
	}

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(n1.base+"/v1/characterize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("request into the chained topology failed: %v", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}

	time.Sleep(100 * time.Millisecond) // let forward accounting land
	c1 := scrapeNodeCounters(t, n1.base)
	c2 := scrapeNodeCounters(t, n2.base)
	c3 := scrapeNodeCounters(t, n3.base)

	// The chain must be exactly n1→n2→n3, with n3 computing locally at the
	// hop limit despite its stale ring pointing at the unreachable a4.
	if got := c1["hcserved_forwarded_total"]; got != 1 {
		t.Errorf("n1 forwarded %d times, want 1", got)
	}
	if got := c2["hcserved_forwarded_total"]; got != 1 {
		t.Errorf("n2 forwarded %d times, want 1", got)
	}
	if got := c3["hcserved_forwarded_total"]; got != 0 {
		t.Errorf("n3 forwarded %d times, want 0 (it sits at MaxForwardHops)", got)
	}
	if got := c3["hcserved_forward_errors_total"]; got != 0 {
		t.Errorf("n3 recorded %d forward errors — it attempted the forward the hop bound forbids", got)
	}
	if got := c3["hcserved_cache_misses_total"]; got != 1 {
		t.Errorf("n3 recorded %d misses, want 1 (the terminal local compute)", got)
	}
	for i, c := range []map[string]uint64{c1, c2, c3} {
		served := c[`hcserved_requests_total{endpoint="characterize",code="200"}`]
		accounted := c["hcserved_cache_hits_total"] + c["hcserved_cache_misses_total"] +
			c["hcserved_coalesced_total"] + c["hcserved_forwarded_total"]
		if served != accounted {
			t.Errorf("node %d accounting broken: served=%d, accounted=%d", i+1, served, accounted)
		}
	}
}

// TestClusterJoinLeaveHandoff is the churn e2e the CI workflow runs under
// -race: a warm two-node cluster gains a third node, the losers stream their
// warm entries for the moved ranges to it (handoff_sent reconciles exactly
// against the joiner's handoff_received), and the first requests for moved
// keys hit the joiner's cache warm instead of recomputing. Then the joiner is
// killed: the survivors re-shard among themselves and no re-sent request is
// lost.
func TestClusterJoinLeaveHandoff(t *testing.T) {
	n1 := startClusterNode(t, nil, 2, nil)
	n2 := startClusterNode(t, []string{n1.srv.BoundAddr()}, 2, nil)
	pair := []*clusterNode{n1, n2}
	waitRingSize(t, pair, 2)

	// Warm phase: with two nodes and R=2 every key is locally owned, so each
	// body computes and caches on exactly the node it was sent to.
	const nBodies = 40
	bodies := make([][]byte, nBodies)
	keys := make([]etcmat.ContentKey, nBodies)
	for i := range bodies {
		bodies[i], keys[i] = clusterEnv(t, int64(5000+i))
		node := pair[i%2]
		resp, err := http.Post(node.base+"/v1/characterize", "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm request %d: status %d", i, resp.StatusCode)
		}
	}

	// Join: the ring change fires handoff on both incumbents.
	n3 := startClusterNode(t, []string{n1.srv.BoundAddr()}, 2, nil)
	all := []*clusterNode{n1, n2, n3}
	waitRingSize(t, all, 3)

	// The handoff counters must reconcile exactly: every entry the losers
	// report sent was imported by the joiner.
	var sent, received uint64
	deadline := time.Now().Add(10 * time.Second)
	for {
		sent = scrapeNodeCounters(t, n1.base)["hcserved_handoff_sent_total"] +
			scrapeNodeCounters(t, n2.base)["hcserved_handoff_sent_total"]
		received = scrapeNodeCounters(t, n3.base)["hcserved_handoff_received_total"]
		if sent > 0 && sent == received {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("handoff never reconciled: sent=%d received=%d", sent, received)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Every key the joiner now owns moved to it (it owned nothing before), so
	// its first request for each must be a warm hit off the handed-off entry.
	before := scrapeNodeCounters(t, n3.base)
	moved := 0
	for i, k := range keys {
		if !n3.srv.router.LocallyOwned(cacheKey(k)) {
			continue
		}
		moved++
		resp, err := http.Post(n3.base+"/v1/characterize", "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("moved-key request %d: status %d", i, resp.StatusCode)
		}
	}
	if moved == 0 {
		t.Fatal("the joiner owns none of the warmed keys; the scenario tests nothing")
	}
	after := scrapeNodeCounters(t, n3.base)
	hits := after["hcserved_cache_hits_total"] - before["hcserved_cache_hits_total"]
	warmRate := float64(hits) / float64(moved)
	t.Logf("join handoff: sent=%d received=%d moved=%d warm hits=%d (rate %.2f)",
		sent, received, moved, hits, warmRate)
	if warmRate < 0.7 {
		t.Errorf("post-handoff warm hit rate %.2f on %d moved keys, want >= 0.70", warmRate, moved)
	}

	// Leave: kill the joiner. The survivors notice the death, re-shard, and
	// hand off promoted ranges among themselves; re-sending every body across
	// the survivors must lose nothing.
	if err, timedOut := n3.stop(); timedOut {
		t.Fatal("joiner never exited")
	} else if err != nil {
		t.Fatalf("joiner did not drain cleanly: %v", err)
	}
	waitRingSize(t, pair, 2)

	lost := 0
	for i := range bodies {
		ok := false
		for a := 0; a < 2*len(pair); a++ {
			node := pair[(i+a)%len(pair)]
			resp, err := http.Post(node.base+"/v1/characterize", "application/json", bytes.NewReader(bodies[i]))
			if err != nil {
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ok = true
				break
			}
		}
		if !ok {
			lost++
		}
	}
	if lost != 0 {
		t.Fatalf("%d requests lost across the leave; churn demands zero", lost)
	}

	time.Sleep(300 * time.Millisecond)
	for _, n := range pair {
		c := scrapeNodeCounters(t, n.base)
		served := c[`hcserved_requests_total{endpoint="characterize",code="200"}`]
		accounted := c["hcserved_cache_hits_total"] + c["hcserved_cache_misses_total"] +
			c["hcserved_coalesced_total"] + c["hcserved_forwarded_total"]
		if served != accounted {
			t.Errorf("survivor %s accounting broken: served=%d, accounted=%d", n.base, served, accounted)
		}
	}
}
