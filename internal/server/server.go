package server

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/linalg"
)

// Config shapes a serving instance. The zero value is usable: every field
// has a production-minded default applied by New.
type Config struct {
	// Addr is the listen address for Run (default ":8080"). Handler-level
	// use (tests, embedding) ignores it.
	Addr string
	// Workers bounds concurrently executing characterizations
	// (default/<=0: GOMAXPROCS). Batch requests occupy one slot and fan out
	// internally on the same bound via the parallel pool.
	Workers int
	// QueueDepth bounds requests waiting for a compute slot; past it the
	// server sheds load with 429 + Retry-After (default 64; negative: 0,
	// i.e. no waiting).
	QueueDepth int
	// CacheSize bounds the content-addressed profile cache in entries
	// (default 1024; 0 or negative disables caching).
	CacheSize int
	// RequestTimeout is the per-request deadline, enforced at admission and
	// between batch items (default 30s; 0 or negative disables).
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful-shutdown drain (default 15s).
	DrainTimeout time.Duration
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxBatchEnvs bounds the environments in one batch request
	// (default 256).
	MaxBatchEnvs int
	// MaxStreamSessions bounds concurrently live /v1/stream sessions
	// (default 64; negative disables the endpoint's admission entirely,
	// answering every open with 503 session_limit). Sessions hold no compute
	// slot while idle, so this bounds connection state, not workers.
	MaxStreamSessions int
	// StreamIdleTimeout evicts a /v1/stream session that sends no mutation
	// for this long (default 2m; negative disables eviction). It replaces
	// RequestTimeout for the session as a whole — individual solves inside a
	// session still run under RequestTimeout.
	StreamIdleTimeout time.Duration
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/.
	// Off by default: the profiling endpoints expose internals (heap
	// contents, command line) that do not belong on an open service port.
	EnablePprof bool
	// Cluster, when non-nil, runs this instance as a node of a consistent-hash
	// cluster (see internal/cluster and DESIGN.md §15): non-owned keys forward
	// to their owner over the binary wire format, the membership endpoints are
	// mounted under /v1/cluster/, and Run starts the gossip loop. Nil keeps
	// the classic single-node behavior with zero overhead.
	Cluster *cluster.Config
	// Logger receives structured request/lifecycle logs (default
	// slog.Default()).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 15 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatchEnvs <= 0 {
		c.MaxBatchEnvs = 256
	}
	if c.MaxStreamSessions == 0 {
		c.MaxStreamSessions = 64
	}
	if c.MaxStreamSessions < 0 {
		c.MaxStreamSessions = 0
	}
	if c.StreamIdleTimeout == 0 {
		c.StreamIdleTimeout = 2 * time.Minute
	}
	if c.StreamIdleTimeout < 0 {
		c.StreamIdleTimeout = 0
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the HTTP characterization service. Build one with New, mount
// Handler on any mux or run it directly with Run.
type Server struct {
	cfg     Config
	log     *slog.Logger
	metrics *Metrics
	cache   *profileCache
	flight  *flightGroup
	adm     *admission
	mux     *http.ServeMux
	start   time.Time
	reqIDs  *requestIDs

	boundAddr atomic.Value // string; set once Run's listener is up

	// router is non-nil in cluster mode; see forwardProfile in cluster.go.
	router *cluster.Router

	panics          *counter
	computed        *counter
	misses          *counter
	coalesced       *counter
	forwarded       *counter
	peerFills       *counter
	handoffReceived *counter

	// Stream-session state (see streamsrv.go). The accounting invariant,
	// checked by tests and the load generator: stream_profiles_total ==
	// stream_sessions_total + stream_incremental_total +
	// stream_recomputed_total (every session contributes one cold open
	// profile plus one profile per accepted mutation).
	streams           sessionRegistry
	streamSessions    *counter
	streamProfiles    *counter
	streamIncremental *counter
	streamRecomputed  *counter
	streamRejected    *counter
}

// BoundAddr returns the address Run's listener is bound to ("" before Run).
func (s *Server) BoundAddr() string {
	if v, ok := s.boundAddr.Load().(string); ok {
		return v
	}
	return ""
}

// eigensolverFallbacks reads the process-wide tally that
// hcserved_eigensolver_fallbacks_total exports; a variable so a test can
// stand in a nonzero tally, which no request can trip.
var eigensolverFallbacks = linalg.EigensolverFallbacks

// New builds a Server from the config (see Config for defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		metrics: m,
		start:   time.Now(),
		reqIDs:  newRequestIDs(),
		panics: m.Counter("hcserved_panics_total",
			"Handler panics recovered.", ""),
		computed: m.Counter("hcserved_characterizations_total",
			"Profiles computed (cache misses that ran the pipeline).", ""),
		misses: m.Counter("hcserved_cache_misses_total",
			"Profile cache misses that ran a unique computation; concurrent duplicates count under hcserved_coalesced_total instead.", ""),
		coalesced: m.Counter("hcserved_coalesced_total",
			"Requests served by joining another request's in-flight computation.", ""),
		streamSessions: m.Counter("hcserved_stream_sessions_total",
			"Stream sessions successfully opened.", ""),
		streamProfiles: m.Counter("hcserved_stream_profiles_total",
			"Profiles delivered on stream sessions (opens plus accepted mutations).", ""),
		streamIncremental: m.Counter("hcserved_stream_incremental_total",
			"Stream profiles solved incrementally from the previous solve's seed.", ""),
		streamRecomputed: m.Counter("hcserved_stream_recomputed_total",
			"Stream profiles that fell back to a cold re-characterization (drift re-anchor).", ""),
		streamRejected: m.Counter("hcserved_stream_rejected_total",
			"Stream mutations rejected as invalid (session state untouched).", ""),
	}
	s.streams.max = int64(cfg.MaxStreamSessions)
	s.cache = newProfileCache(cfg.CacheSize,
		m.Counter("hcserved_cache_hits_total", "Profile cache hits.", ""))
	s.flight = newFlightGroup()
	s.adm = newAdmission(cfg.Workers, cfg.QueueDepth,
		m.Counter("hcserved_rejected_total", "Requests shed with 429.", ""))
	m.Gauge("hcserved_queue_depth", "Requests waiting for a compute slot.",
		func() float64 { return float64(s.adm.QueueDepth()) })
	m.Gauge("hcserved_inflight", "Requests holding a compute slot.",
		func() float64 { return float64(s.adm.Active()) })
	m.Gauge("hcserved_cache_entries", "Profiles resident in the result cache.",
		func() float64 { return float64(s.cache.Len()) })
	m.Gauge("hcserved_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	m.Gauge("hcserved_stream_sessions", "Stream sessions currently live.",
		func() float64 { return float64(s.streams.active.Load()) })
	m.CounterFunc("hcserved_eigensolver_fallbacks_total",
		"Spectra solved by the Jacobi SVD because the QL eigensolver tripped its iteration budget (process-wide).",
		func() float64 { return float64(eigensolverFallbacks()) })

	if cfg.Cluster != nil {
		s.initCluster(*cfg.Cluster)
	}

	s.mux = http.NewServeMux()
	s.route("POST /v1/characterize", "characterize", http.HandlerFunc(s.handleCharacterize))
	s.route("POST /v1/characterize/batch", "batch", http.HandlerFunc(s.handleBatch))
	s.route("POST /v1/generate", "generate", http.HandlerFunc(s.handleGenerate))
	s.route("POST /v1/whatif", "whatif", http.HandlerFunc(s.handleWhatif))
	// The stream endpoint skips the timeout (sessions are long-lived by
	// design; each solve inside one is individually bounded) and compression
	// (a gzip writer buffers across flush boundaries, holding profile lines
	// back from the client).
	s.mux.Handle("POST /v1/stream", s.withRecovery(s.withObservability("stream", http.HandlerFunc(s.handleStream))))
	s.route("GET /healthz", "healthz", http.HandlerFunc(s.handleHealthz))
	s.route("GET /metrics", "metrics", http.HandlerFunc(s.handleMetrics))
	if s.router != nil {
		// Recovery only: the gossip loop hits these at 2 Hz per peer, which
		// would drown the request log and skew the latency histograms if they
		// went through the full observability stack.
		s.mux.Handle("POST /v1/cluster/join", s.withRecovery(http.HandlerFunc(s.handleClusterJoin)))
		s.mux.Handle("GET /v1/cluster/peers", s.withRecovery(http.HandlerFunc(s.handleClusterPeers)))
		s.mux.Handle("POST /v1/cluster/handoff", s.withRecovery(http.HandlerFunc(s.handleClusterHandoff)))
	}
	if cfg.EnablePprof {
		// Mounted raw (no admission, no timeout): a CPU profile legitimately
		// runs for 30s, and the recovery/observability stack would only skew
		// what the profiler measures. Unmatched /debug/pprof/* falls through
		// to the mux's default 404 when the flag is off.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// route mounts a handler with the full middleware stack: recovery outermost
// (it must catch panics from the observability layer too), then logging and
// metrics, then response compression (inside observability so the logged
// byte count is wire bytes), then the per-request timeout.
func (s *Server) route(pattern, endpoint string, h http.Handler) {
	s.mux.Handle(pattern, s.withRecovery(s.withObservability(endpoint, s.withCompression(s.withTimeout(h)))))
}

// Handler returns the fully middleware-wrapped root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the registry (for embedding or tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Run serves on cfg.Addr until ctx is canceled, then drains in-flight
// requests for up to cfg.DrainTimeout before returning. It returns nil on a
// clean drain. The bound address (useful with a ":0" config) is available
// from BoundAddr once the listener is up.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.boundAddr.Store(ln.Addr().String())
	if s.router != nil {
		// A ":0" config only knows its advertised address now; fix it before
		// the membership loop announces this node to the seed peers.
		if s.router.Self() == "" {
			s.router.SetSelf(ln.Addr().String())
		}
		s.router.Start(ctx)
	}
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	s.log.Info("hcserved listening",
		"addr", ln.Addr().String(),
		"workers", s.cfg.Workers,
		"queue_depth", s.cfg.QueueDepth,
		"cache_size", s.cfg.CacheSize,
		"request_timeout", s.cfg.RequestTimeout.String())
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		s.log.Info("shutdown requested; draining in-flight requests",
			"inflight", s.adm.Active(), "queued", s.adm.QueueDepth(),
			"drain_timeout", s.cfg.DrainTimeout.String())
		drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		err := srv.Shutdown(drainCtx)
		if err == nil {
			s.log.Info("drain complete")
		} else {
			s.log.Error("drain incomplete", "err", err)
		}
		return err
	}
}
