package server

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"sync/atomic"

	"repro/internal/obs"
)

// This file wires the obs tracing layer into the serving tier: every request
// gets an ID and an obs.Trace (created in withObservability), handlers record
// the disjoint top-level stages — "decode", "cache_lookup", "queue_wait",
// "compute" — and the compute pipeline nests its own spans ("standardize",
// "gram", "eigensolve", "measures", per-item "task") inside "compute" via the
// request context. After the handler returns, the middleware feeds every span
// into the hcserved_stage_seconds histogram; when the client asked with
// ?trace=1, the same spans are echoed in the response's timings field. A
// stream session is one long request, so it feeds and drops each solve's
// spans as the solve completes instead (streamSession.solve).

// requestIDs hands out process-unique request identifiers: a random boot
// prefix (so IDs from restarted instances never collide in aggregated logs)
// plus an atomic sequence number.
type requestIDs struct {
	boot string
	seq  atomic.Uint64
}

func newRequestIDs() *requestIDs {
	var b [4]byte
	// crypto/rand never fails on supported platforms; a zero prefix is still
	// a valid (merely less unique) boot ID, so the error is ignorable.
	_, _ = rand.Read(b[:])
	return &requestIDs{boot: hex.EncodeToString(b[:])}
}

func (r *requestIDs) next() string {
	return r.boot + "-" + formatSeq(r.seq.Add(1))
}

// formatSeq renders the sequence number without fmt (this is on every
// request's path).
func formatSeq(n uint64) string {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			return string(buf[i:])
		}
	}
}

// sanitizeRequestID vets a client-supplied request ID for adoption: at most
// 64 bytes of letters, digits, '.', '_' and '-'. Anything else returns ""
// and the server issues its own — the ID lands verbatim in structured logs
// and response headers, so the charset is the log-injection guard.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

// requestIDOf returns the request's assigned ID (from its trace), "" when
// the observability middleware did not run (plain handler tests).
func requestIDOf(r *http.Request) string {
	if tr := obs.FromContext(r.Context()); tr != nil {
		return tr.ID()
	}
	return ""
}

// traceRequested reports whether the client asked for the timings echo with
// ?trace=1 (or ?trace=true).
func traceRequested(r *http.Request) bool {
	v := r.URL.Query().Get("trace")
	return v == "1" || v == "true"
}

// StageTimingDTO is one span on the wire. StartMs is the offset from the
// request's trace anchor, so clients can reconstruct the stage layout
// (top-level stages are disjoint; pipeline stages nest inside "compute").
type StageTimingDTO struct {
	Stage   string  `json:"stage"`
	StartMs float64 `json:"startMs"`
	Ms      float64 `json:"ms"`
}

// TimingsDTO is the optional stage breakdown of a /v1/* response, present
// when the request carried ?trace=1. The top-level stages ("decode",
// "cache_lookup", "queue_wait", "compute") are disjoint and sum to
// approximately totalMs; the remaining spans are nested pipeline detail.
type TimingsDTO struct {
	RequestID string           `json:"requestId"`
	TotalMs   float64          `json:"totalMs"`
	Stages    []StageTimingDTO `json:"stages"`
}

// timingsFor builds the timings echo for a request, or nil when the client
// did not ask for one. Call it last in the handler, after the final stage
// span has ended, so TotalMs covers everything but the response encoding.
func (s *Server) timingsFor(r *http.Request) *TimingsDTO {
	if !traceRequested(r) {
		return nil
	}
	tr := obs.FromContext(r.Context())
	if tr == nil {
		return nil
	}
	spans := tr.Spans()
	d := &TimingsDTO{
		RequestID: tr.ID(),
		TotalMs:   tr.Elapsed().Seconds() * 1e3,
		Stages:    make([]StageTimingDTO, len(spans)),
	}
	for i, sp := range spans {
		d.Stages[i] = StageTimingDTO{
			Stage:   sp.Name,
			StartMs: sp.Start.Seconds() * 1e3,
			Ms:      sp.Dur.Seconds() * 1e3,
		}
	}
	return d
}
