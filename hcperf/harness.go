package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// harness is one in-process hcserved instance on a loopback listener plus
// the HTTP client that drives it. close shuts both down and returns only
// once the serving goroutine has exited, so nothing outlives a run.
type harness struct {
	hs        *http.Server
	base      string
	transport *http.Transport
	client    *http.Client
	served    chan struct{} // closed when Serve returns
	posts     atomic.Int64  // requests post has sent
}

// serverConfig is the one server configuration every workload runs against.
// The cache is smaller than the default so that cold_bin evicts within a
// run; warm_json's 64 environments fit with room to spare. Request logging
// is discarded: at hundreds of requests per second it would measure the
// log sink, not the service.
func serverConfig() server.Config {
	return server.Config{
		CacheSize: 256,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1})),
	}
}

// startHarness builds a server with cfg and serves it on 127.0.0.1:0.
func startHarness(cfg server.Config) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := &harness{
		hs:     &http.Server{Handler: server.New(cfg).Handler(), ReadHeaderTimeout: 5 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		// One idle connection per client and one spare; compression off
		// because the workloads measure the service, not gzip.
		transport: &http.Transport{MaxIdleConnsPerHost: maxClients + 1, DisableCompression: true},
	}
	h.client = &http.Client{Transport: h.transport}
	go func() {
		defer close(h.served)
		_ = h.hs.Serve(ln) // always ErrServerClosed once close runs
	}()
	return h, nil
}

// close drains the server (forcing any connection still open after the
// grace period), drops the client's idle connections, and waits for the
// serving goroutine. Safe to call on a nil harness.
func (h *harness) close() {
	if h == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	h.transport.CloseIdleConnections()
	if err := h.hs.Shutdown(ctx); err != nil {
		_ = h.hs.Close() // the drain timed out; the forced close is the fallback
	}
	<-h.served
	h.transport.CloseIdleConnections()
}

// httpPhases splits one client request into the three intervals
// net/http/httptrace can see: writing the request (including getting a
// connection), waiting for the first response byte, and reading the body.
type httpPhases struct {
	write, ttfb, read time.Duration
}

// post sends body to path and reads the whole response into buf. It returns
// the status and the client-timed latency; phases, when non-nil, receives
// the httptrace split of that latency.
func (h *harness) post(ctx context.Context, path, contentType, accept string, body []byte,
	buf *bytes.Buffer, phases *httpPhases) (int, time.Duration, error) {
	// The transport calls the hooks from its own goroutines.
	var wrote, first atomic.Int64
	if phases != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(time.Now().UnixNano()) },
			GotFirstResponseByte: func() { first.Store(time.Now().UnixNano()) },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	buf.Reset()
	h.posts.Add(1)
	start := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, time.Since(start), err
	}
	_, err = buf.ReadFrom(resp.Body)
	end := time.Now()
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, end.Sub(start), fmt.Errorf("reading response: %w", err)
	}
	if phases != nil {
		w, f := wrote.Load(), first.Load()
		if w == 0 || f == 0 {
			return resp.StatusCode, end.Sub(start), errors.New("httptrace saw no request write or first byte")
		}
		*phases = httpPhases{
			write: time.Duration(w - start.UnixNano()),
			ttfb:  time.Duration(f - w),
			read:  time.Duration(end.UnixNano() - f),
		}
	}
	return resp.StatusCode, end.Sub(start), nil
}

// scrape reads the server's /metrics exposition.
func (h *harness) scrape(ctx context.Context) (promSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: HTTP %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}
