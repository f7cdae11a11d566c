package server

import (
	"context"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"

	"repro/internal/obs"
)

// statusRecorder captures the status code and body size a handler wrote, for
// the request log and the per-endpoint metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying connection for
// Flush, SetReadDeadline and EnableFullDuplex — the stream endpoint needs
// all three through this wrapper. Writes still pass through the recorder, so
// the byte accounting is unaffected.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// withRecovery converts a handler panic into a 500 with the standard error
// envelope instead of killing the connection (and, under http.Server's
// default behavior, spamming the log with a stack dump per request). The
// stack is logged once, structured.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.log.Error("panic in handler",
					"method", r.Method,
					"path", r.URL.Path,
					"panic", rec,
					"stack", string(debug.Stack()))
				s.panics.Inc()
				// The header may already be gone; best effort.
				writeError(w, http.StatusInternalServerError, codeInternal, "internal server error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withObservability wraps every request with a request ID, an obs.Trace,
// structured logging and the request counter / latency histogram for its
// endpoint. The trace rides the request context, so handler stages and the
// compute pipeline's nested spans all land on it; after the handler returns,
// every span still on the trace is fed into the per-stage latency histogram
// and the trace summary is logged at debug level.
func (s *Server) withObservability(endpoint string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A sane client-supplied X-Request-ID is adopted rather than replaced,
		// so one request keeps one ID across a peer forward (and any proxy
		// that stamped it earlier); anything long or unprintable is discarded.
		reqID := sanitizeRequestID(r.Header.Get("X-Request-ID"))
		if reqID == "" {
			reqID = s.reqIDs.next()
		}
		tr := obs.New(reqID, endpoint)
		r = r.WithContext(obs.NewContext(r.Context(), tr))
		w.Header().Set("X-Request-ID", reqID)
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		elapsed := tr.Elapsed()
		s.metrics.Counter("hcserved_requests_total",
			"HTTP requests by endpoint and status code.",
			`endpoint="`+endpoint+`",code="`+strconv.Itoa(rec.status)+`"`).Inc()
		s.metrics.Histogram("hcserved_request_seconds",
			"Request latency by endpoint.",
			`endpoint="`+endpoint+`"`).Observe(elapsed.Seconds())
		s.observeStages(tr.Spans())
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"endpoint", endpoint,
			"request_id", reqID,
			"status", rec.status,
			"bytes", rec.bytes,
			"duration_ms", float64(elapsed.Microseconds())/1000,
			"remote", r.RemoteAddr)
		if s.log.Enabled(r.Context(), slog.LevelDebug) {
			s.log.Debug("trace", "request_id", reqID, "endpoint", endpoint, "spans", tr.Summary())
		}
	})
}

// observeStages feeds completed spans into the per-stage latency histogram.
func (s *Server) observeStages(spans []obs.SpanRecord) {
	for _, sp := range spans {
		s.metrics.Histogram("hcserved_stage_seconds",
			"Stage latency within a request (top-level stages plus nested pipeline spans).",
			`stage="`+sp.Name+`"`).Observe(sp.Dur.Seconds())
	}
}

// withTimeout attaches the per-request deadline to the request context; the
// compute path checks it at admission and between batch items.
func (s *Server) withTimeout(next http.Handler) http.Handler {
	if s.cfg.RequestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
