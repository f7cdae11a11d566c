package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"mime"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/etcmat"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/wire"
)

// writeJSON renders v with the standard headers; encoding failures are
// logged, not retried (the status line is already gone).
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Error("encoding response", "err", err)
	}
}

// writeError renders the uniform error envelope. Errors are always JSON,
// whatever wire form the request negotiated.
func writeError(w http.ResponseWriter, status int, code, message string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(apiError{Version: APIVersion, Error: apiErrorBody{Code: code, Message: message}})
}

// writeDecodeError maps a request-decoding failure: a body over the byte cap
// (measured after any decompression) is its own condition — 413 with the
// stable code body_too_large — an unimplemented Content-Encoding is 415, and
// everything else is a 400 invalid_request.
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge,
			fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit))
		return
	}
	var badEnc *unsupportedEncodingError
	if errors.As(err, &badEnc) {
		writeError(w, http.StatusUnsupportedMediaType, codeUnsupportedEncoding, badEnc.Error())
		return
	}
	writeError(w, http.StatusBadRequest, codeInvalidRequest, err.Error())
}

// decodeJSON reads a size-capped JSON body into v via encoding/json — the
// path for small fixed-shape requests (generate). Environment-carrying
// bodies go through readEnvPayload instead.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body, cleanup, err := s.requestBody(w, r)
	if err != nil {
		return err
	}
	defer cleanup()
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Trailing garbage after the JSON value is a malformed request, not a
	// second message.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return errors.New("unexpected data after JSON body")
	}
	return nil
}

// readBody drains the request body into a pooled buffer under the configured
// byte cap, inflating a gzip-encoded body transparently (the cap measures
// decompressed bytes). An exceeded cap surfaces as *http.MaxBytesError for
// writeDecodeError to map to 413. putBody recycles the buffer; the caller
// must not retain the slice past it.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (body []byte, putBody func(), err error) {
	rc, cleanup, err := s.requestBody(w, r)
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()
	bp := bodyPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rc.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			*bp = buf
			return buf, func() { bodyPool.Put(bp) }, nil
		}
		if err != nil {
			*bp = buf
			bodyPool.Put(bp)
			return nil, nil, err
		}
	}
}

// mediaType extracts the bare media type of a request's Content-Type.
func mediaType(r *http.Request) string {
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil {
		return ""
	}
	return mt
}

// acceptsBinary reports whether the request's Accept header asks for the
// given binary content type.
func acceptsBinary(r *http.Request, contentType string) bool {
	accept := r.Header.Get("Accept")
	if accept == "" {
		return false
	}
	for _, part := range strings.Split(accept, ",") {
		if mt, _, err := mime.ParseMediaType(strings.TrimSpace(part)); err == nil && mt == contentType {
			return true
		}
	}
	return false
}

// readEnvPayload reads and decodes the environment body of a characterize or
// whatif request — binary matrix frame, CSV, or streaming JSON by content
// type. On success the payload's content key is set and the caller owns
// release; on error nothing is retained and the error maps through
// writeDecodeError.
func (s *Server) readEnvPayload(w http.ResponseWriter, r *http.Request) (p *envPayload, release func(), err error) {
	body, putBody, err := s.readBody(w, r)
	if err != nil {
		return nil, nil, err
	}
	p = acquirePayload()
	release = func() {
		releasePayload(p)
		putBody()
	}
	switch mediaType(r) {
	case wire.ContentTypeMatrix:
		err = p.parseBinaryEnv(body)
	case "text/csv", "text/plain":
		var env *etcmat.Env
		if env, err = etcmat.ReadETCCSV(bytes.NewReader(body)); err == nil {
			p.csvEnv = env
			p.key = env.ContentKey()
		}
	default:
		err = p.parseJSONEnv(body)
	}
	if err != nil {
		release()
		return nil, nil, err
	}
	return p, release, nil
}

// admit claims a compute slot for the request, translating the failure
// modes to HTTP. It reports whether the caller may proceed; on false the
// response has been written.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	release, err := s.adm.Enter(r.Context())
	switch {
	case err == nil:
		return release, true
	case errors.Is(err, ErrOverloaded):
		retry := s.adm.RetryAfter(100 * time.Millisecond)
		w.Header().Set("Retry-After", strconv.Itoa(int(retry.Round(time.Second)/time.Second)))
		writeError(w, http.StatusTooManyRequests, codeOverloaded,
			"server at capacity; retry after the indicated delay")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, codeTimeout,
			"request deadline expired while queued for a compute slot")
	default: // context.Canceled — client went away; the write is moot.
		writeError(w, http.StatusServiceUnavailable, codeCanceled, "request canceled")
	}
	return nil, false
}

// releaseEnv recycles a request-owned environment's matrix buffers once its
// profile has been computed (profiles never alias Env storage). nil is a
// convenient no-op: cache hits never materialize an Env.
func releaseEnv(env *etcmat.Env) {
	if env != nil {
		env.ReleaseBuffers()
	}
}

// characterizeCached computes (or recalls) the profile of an environment
// through the content-addressed cache and the coalescing layer. The returned
// bool reports whether the profile came from the cache or an in-flight
// computation rather than a fresh one.
func (s *Server) characterizeCached(ctx context.Context, env *etcmat.Env) (*core.Profile, bool) {
	p, outcome, err := s.characterizeCoalesced(ctx, keyOf(env), env)
	if err != nil {
		// Waiter canceled or orphaned (see flight.go); compute directly —
		// this path already holds a compute slot.
		s.computed.Inc()
		return core.CharacterizeCtx(ctx, env), false
	}
	return p, outcome != outcomeMiss
}

// profileToWire maps a computed profile onto the binary frame's fields.
func profileToWire(p *core.Profile, cached bool) *wire.Profile {
	wp := &wire.Profile{
		Tasks: p.Tasks, Machines: p.Machines,
		MPH: p.MPH, TDH: p.TDH,
		RatioR: p.RatioR, GeoMeanG: p.GeoMeanG, COV: p.COV,
		SinkhornIterations: p.SinkhornIterations, Trimmed: p.Trimmed,
		Cached:      cached,
		MachinePerf: p.MachinePerf, TaskDiff: p.TaskDiff,
	}
	if p.TMAErr == nil && !math.IsNaN(p.TMA) && !math.IsInf(p.TMA, 0) {
		wp.TMA, wp.TMAValid = p.TMA, true
	}
	return wp
}

// writeBinary sends an encoded frame buffer with the given content type.
func (s *Server) writeBinary(w http.ResponseWriter, contentType string, buf []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(buf); err != nil {
		s.log.Error("writing binary response", "err", err)
	}
}

// writeProfile renders a characterize result: the binary profile frame when
// the client's Accept asks for it, the JSON envelope otherwise. The "encode"
// span covers the frame or DTO build, up to the timings snapshot.
func (s *Server) writeProfile(w http.ResponseWriter, r *http.Request, p *core.Profile, cached bool) {
	sp := obs.StartSpan(r.Context(), "encode")
	if acceptsBinary(r, wire.ContentTypeProfile) {
		buf, err := wire.AppendProfile(nil, profileToWire(p, cached))
		sp.End()
		if err != nil {
			writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
			return
		}
		s.writeBinary(w, wire.ContentTypeProfile, buf)
		return
	}
	dto := ProfileToDTO(p, cached)
	dto.Version = APIVersion
	sp.End()
	dto.Timings = s.timingsFor(r)
	s.writeJSON(w, http.StatusOK, dto)
}

// handleCharacterize serves POST /v1/characterize. The decode stage streams
// the body once, hashing as it parses; a warm request never materializes an
// Env at all — the content key is ready the moment the scan ends, and only a
// cache miss pays for validation and the matrix clone.
func (s *Server) handleCharacterize(w http.ResponseWriter, r *http.Request) {
	sp := obs.StartSpan(r.Context(), "decode")
	payload, release, err := s.readEnvPayload(w, r)
	sp.End()
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	defer release()
	// Cache lookup happens before admission: a hit costs one body scan and
	// skips the queue entirely, so a warmed working set stays fast even when
	// the compute pool is saturated.
	sp = obs.StartSpan(r.Context(), "cache_lookup")
	key := payload.key
	p, hit := s.cache.Get(key)
	// In cluster mode a non-owned key routes to its owner instead of being
	// materialized and computed here; see the forward block below.
	forward := !hit && s.shouldForward(r, key)
	var env *etcmat.Env
	if !hit && !forward {
		env, err = payload.env()
	}
	sp.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err.Error())
		return
	}
	if hit {
		s.writeProfile(w, r, p, true)
		return
	}
	if forward {
		// The forward is IO-bound: it holds no compute slot and skips env
		// materialization entirely. A failed forward (owner down, no live
		// replica) falls through to the local path — availability over
		// placement — with ordinary miss accounting.
		sp = obs.StartSpan(r.Context(), "forward")
		fp, peerCached := s.forwardProfile(r, key, payload, requestIDOf(r))
		sp.End()
		if fp != nil {
			s.writeProfile(w, r, fp, peerCached)
			return
		}
		if env, err = payload.env(); err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidRequest, err.Error())
			return
		}
	}
	sp = obs.StartSpan(r.Context(), "queue_wait")
	release2, ok := s.admit(w, r)
	sp.End()
	if !ok {
		return
	}
	defer release2()
	if err := r.Context().Err(); err != nil {
		writeError(w, http.StatusGatewayTimeout, codeTimeout, "request deadline expired")
		return
	}
	// The coalescing layer re-checks the cache (another request may have
	// filled it while this one queued) and guarantees that concurrent misses
	// on the same key run exactly one computation; waiters block here until
	// the leader publishes.
	sp = obs.StartSpan(r.Context(), "compute")
	p, outcome, err := s.characterizeCoalesced(r.Context(), key, env)
	// The coalescing leader runs synchronously in this goroutine, so by now
	// nothing references the decoded environment; recycle its buffers.
	releaseEnv(env)
	sp.End()
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			writeError(w, http.StatusGatewayTimeout, codeTimeout, "request deadline expired")
		} else {
			writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
		}
		return
	}
	s.writeProfile(w, r, p, outcome != outcomeMiss)
}

// handleBatch serves POST /v1/characterize/batch. The request holds one
// admission slot; the body streams item by item through one reused payload
// (JSON object array or concatenated binary frames), then identical
// environments are deduplicated by content key before the remaining unique
// misses fan out over the bounded parallel pool, so canceling the request
// (timeout, client disconnect) stops the remaining items.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	sp := obs.StartSpan(r.Context(), "decode")
	body, putBody, err := s.readBody(w, r)
	if err != nil {
		sp.End()
		writeDecodeError(w, err)
		return
	}
	defer putBody()
	payload := acquirePayload()
	defer releasePayload(payload)

	var (
		items []batchItem
		keys  []cacheKey
		envs  []*etcmat.Env // nil = invalid (materialized lazily below for cached items too, matching the old per-item Env() cost)
		total int
	)
	collect := func(itemErr error) {
		total++
		if total > s.cfg.MaxBatchEnvs {
			return // keep scanning for the true count; the request 400s below
		}
		var item batchItem
		var key cacheKey
		var env *etcmat.Env
		if itemErr == nil {
			key = payload.key
			env, itemErr = payload.env()
		}
		if itemErr != nil {
			item.Error = &apiErrorBody{Code: codeInvalidRequest, Message: itemErr.Error()}
		}
		items = append(items, item)
		keys = append(keys, key)
		envs = append(envs, env)
	}
	if mediaType(r) == wire.ContentTypeMatrix {
		err = scanBinaryBatch(body, payload, collect)
	} else {
		err = scanJSONBatch(body, payload, collect)
	}
	sp.End()
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	if total == 0 {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, "envs must be non-empty")
		return
	}
	if total > s.cfg.MaxBatchEnvs {
		writeError(w, http.StatusBadRequest, codeInvalidRequest,
			fmt.Sprintf("batch of %d exceeds the %d-environment limit", total, s.cfg.MaxBatchEnvs))
		return
	}

	// Cache-check every item, then deduplicate the remaining misses by
	// content key: a batch that asks for the same environment twenty times
	// (sweep tooling does) computes it once and shares the profile across
	// the duplicates, which count under coalesced.
	sp = obs.StartSpan(r.Context(), "cache_lookup")
	firstOf := make(map[cacheKey]int) // key -> first index needing compute
	dupOf := make([]int, len(items))  // index -> first index, or -1
	var uniq []int                    // first indices, in order
	for i := range items {
		dupOf[i] = -1
		if items[i].Error != nil {
			continue
		}
		if p, ok := s.cache.Get(keys[i]); ok {
			items[i].Profile = ProfileToDTO(p, true)
			releaseEnv(envs[i])
			envs[i] = nil
			continue
		}
		if first, ok := firstOf[keys[i]]; ok {
			dupOf[i] = first
			releaseEnv(envs[i])
			envs[i] = nil
			s.coalesced.Inc()
			continue
		}
		firstOf[keys[i]] = i
		uniq = append(uniq, i)
	}
	sp.End()

	sp = obs.StartSpan(r.Context(), "queue_wait")
	release, ok := s.admit(w, r)
	sp.End()
	if !ok {
		return
	}
	defer release()
	// Fan the unique misses out on the bounded pool, each through the
	// coalescing layer so identical environments across concurrent batch (or
	// characterize) requests also share one computation.
	sp = obs.StartSpan(r.Context(), "compute")
	profiles, err := parallel.Map(r.Context(), len(uniq), s.cfg.Workers,
		func(ctx context.Context, u int) (*core.Profile, error) {
			i := uniq[u]
			p, _, err := s.characterizeCoalesced(ctx, keys[i], envs[i])
			releaseEnv(envs[i])
			envs[i] = nil
			return p, err
		})
	sp.End()
	if err != nil {
		writeError(w, http.StatusGatewayTimeout, codeTimeout,
			"request deadline expired mid-batch: "+err.Error())
		return
	}
	for u, p := range profiles {
		if p == nil {
			continue
		}
		items[uniq[u]].Profile = ProfileToDTO(p, false)
	}
	for i, first := range dupOf {
		if first >= 0 {
			items[i].Profile = items[first].Profile
		}
	}
	s.writeJSON(w, http.StatusOK, batchResponse{
		Version:  APIVersion,
		Profiles: items,
		Timings:  s.timingsFor(r),
	})
}

// handleGenerate serves POST /v1/generate through the gen.Spec sum type —
// the same single entry point the library facade exposes.
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	sp := obs.StartSpan(r.Context(), "decode")
	var req generateRequest
	err := s.decodeJSON(w, r, &req)
	sp.End()
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	var spec gen.Spec
	switch req.Kind {
	case gen.KindRange:
		spec = gen.RangeSpec(req.Tasks, req.Machines, req.RTask, req.RMach)
	case gen.KindCVB:
		spec = gen.CVBSpec(req.Tasks, req.Machines, req.VTask, req.VMach, req.MuTask)
	case gen.KindTargeted:
		spec = gen.TargetedSpec(gen.Target{
			Tasks: req.Tasks, Machines: req.Machines,
			MPH: req.MPH, TDH: req.TDH, TMA: req.TMA, Tol: req.Tol,
		})
	default:
		writeError(w, http.StatusBadRequest, codeInvalidRequest,
			fmt.Sprintf("kind must be %q, %q or %q, got %q",
				gen.KindRange, gen.KindCVB, gen.KindTargeted, req.Kind))
		return
	}
	sp = obs.StartSpan(r.Context(), "queue_wait")
	release, ok := s.admit(w, r)
	sp.End()
	if !ok {
		return
	}
	defer release()
	sp = obs.StartSpan(r.Context(), "compute")
	g, err := gen.Generate(spec, rand.New(rand.NewSource(req.Seed)))
	if err != nil {
		sp.End()
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err.Error())
		return
	}
	// Seed the result cache: a generate-then-characterize flow (common in
	// sweep tooling) hits on the second call. The Env memoizes its standard
	// form, so this recharacterization costs sums, not a second SVD.
	p, cached := s.characterizeCached(r.Context(), g.Env)
	sp.End()
	defer releaseEnv(g.Env)
	// Binary echo: Accept: application/x-hc-matrix returns the generated ETC
	// as a matrix frame followed by the profile frame, so sweep tooling can
	// replay the environment through the binary ingestion path byte-exactly.
	if acceptsBinary(r, wire.ContentTypeMatrix) {
		buf, err := wire.AppendMatrix(nil, g.Env.ETC())
		if err == nil {
			buf, err = wire.AppendProfile(buf, profileToWire(p, cached))
		}
		if err != nil {
			writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
			return
		}
		if spec.Kind() == gen.KindTargeted {
			w.Header().Set("X-HC-Mix", strconv.FormatFloat(g.Mix, 'g', -1, 64))
		}
		s.writeBinary(w, wire.ContentTypeMatrix, buf)
		return
	}
	var mix *float64
	if spec.Kind() == gen.KindTargeted {
		mix = &g.Mix
	}
	s.writeJSON(w, http.StatusOK, generateResponse{
		Version: APIVersion,
		Env:     EnvToDTO(g.Env),
		Profile: ProfileToDTO(p, cached),
		Mix:     mix,
		Timings: s.timingsFor(r),
	})
}

// handleWhatif serves POST /v1/whatif: the paper's leave-one-out what-if
// study (measure deltas from removing each task type and machine in turn).
func (s *Server) handleWhatif(w http.ResponseWriter, r *http.Request) {
	sp := obs.StartSpan(r.Context(), "decode")
	payload, release, err := s.readEnvPayload(w, r)
	sp.End()
	if err != nil {
		writeDecodeError(w, err)
		return
	}
	env, err := payload.env()
	release()
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidRequest, err.Error())
		return
	}
	sp = obs.StartSpan(r.Context(), "queue_wait")
	release2, ok := s.admit(w, r)
	sp.End()
	if !ok {
		return
	}
	defer release2()
	if err := r.Context().Err(); err != nil {
		writeError(w, http.StatusGatewayTimeout, codeTimeout, "request deadline expired")
		return
	}
	// LeaveOneOutCtx warm-starts the removal solves of a slowly mixing
	// environment from the baseline's converged Sinkhorn scalings; each
	// delta reports its iteration count next to the baseline's.
	sp = obs.StartSpan(r.Context(), "compute")
	baseline, deltas := core.LeaveOneOutCtx(r.Context(), env)
	sp.End()
	releaseEnv(env)
	resp := whatifResponse{Version: APIVersion, Baseline: ProfileToDTO(baseline, false)}
	resp.Deltas = make([]deltaDTO, len(deltas))
	for i, d := range deltas {
		resp.Deltas[i] = deltaToDTO(d)
	}
	resp.Timings = s.timingsFor(r)
	s.writeJSON(w, http.StatusOK, resp)
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"status":        "ok",
		"uptimeSeconds": time.Since(s.start).Seconds(),
		"inflight":      s.adm.Active(),
		"queued":        s.adm.QueueDepth(),
		"cacheEntries":  s.cache.Len(),
		"workers":       s.cfg.Workers,
		"goVersion":     runtime.Version(),
	}
	if s.router != nil {
		resp["cluster"] = map[string]any{
			"self":       s.router.Self(),
			"peersAlive": s.router.AliveCount(),
			"ringNodes":  s.router.Ring().Len(),
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleMetrics serves GET /metrics in the Prometheus text format. In
// cluster mode, ?cluster=1 answers with the cluster-wide view instead: the
// local exposition merged with every alive peer's, samples summed by series.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.router != nil && r.URL.Query().Get("cluster") == "1" {
		if err := s.clusterMetrics(r.Context(), w); err != nil {
			s.log.Error("writing cluster metrics", "err", err)
		}
		return
	}
	if _, err := s.metrics.WriteTo(w); err != nil {
		s.log.Error("writing metrics", "err", err)
	}
}
