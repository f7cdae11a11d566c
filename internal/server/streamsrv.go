package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/etcmat"
	"repro/internal/obs"
	"repro/internal/wire"
)

// This file is the streaming online characterization endpoint (v1.2,
// DESIGN.md §16): POST /v1/stream holds one long-lived full-duplex request
// per session. The client opens with an environment, then sends mutations —
// add/drop task, add/drop machine, cell edits, weight updates — and after
// each one receives the updated heterogeneity profile, computed by
// core.MutableEnv from the previous solve's warm-start seed instead of a
// cold characterization. Two framings share the handler: newline-delimited
// JSON (one op object per line in, one response envelope per line out), and
// the binary wire format (a matrix/env frame to open, KindMutation frames
// after, profile frames back). EOF on the request body closes the session;
// in JSON an explicit {"op":"close"} additionally returns a summary line.
//
// A session holds no compute slot while idle: each profile solve passes
// through the same bounded admission queue as a one-shot request, so many
// parked sessions cost goroutines, not workers. Session count is its own
// admission axis (Config.MaxStreamSessions -> 503 session_limit), and a
// session that sends nothing for Config.StreamIdleTimeout is evicted with a
// session_idle error line.

// streamRequest is one NDJSON line of a stream session's request body.
type streamRequest struct {
	// Op is one of "open", "add_task", "add_machine", "drop_task",
	// "drop_machine", "set_cell", "weights", "close".
	Op string `json:"op"`
	// Env opens the session (op "open" only).
	Env *EnvDTO `json:"env,omitempty"`
	// DriftTolerance optionally overrides the incremental solver's
	// re-anchoring drift tolerance (op "open"; <= 0 selects
	// core.DefaultDriftTolerance).
	DriftTolerance float64 `json:"driftTolerance,omitempty"`
	// Name optionally names an added task/machine. The default is "t+N" /
	// "m+N" with N the session's accepted-mutation count — collision-free
	// with the generated "t1".."tN" names of the opening environment.
	Name string `json:"name,omitempty"`
	// Speeds is the new ECS row (add_task) or column (add_machine).
	Speeds []float64 `json:"speeds,omitempty"`
	// Index selects the victim of drop_task / drop_machine.
	Index int `json:"index,omitempty"`
	// Task, Machine and Value address a set_cell edit (Value is an ECS
	// speed, 0 marking an impossible pairing).
	Task    int     `json:"task,omitempty"`
	Machine int     `json:"machine,omitempty"`
	Value   float64 `json:"value,omitempty"`
	// TaskWeights / MachineWeights replace the weight vectors (op "weights";
	// omitting one keeps the existing vector; both update atomically).
	TaskWeights    []float64 `json:"taskWeights,omitempty"`
	MachineWeights []float64 `json:"machineWeights,omitempty"`
}

// StreamUpdate is one NDJSON line of a stream session's response: the
// profile after an open or mutation, an in-stream error, or the close
// summary. Exactly one of Profile, Error or Closed is set. Exported for the
// StreamClient and the load-generator tooling.
type StreamUpdate struct {
	Version string `json:"api_version"`
	// Seq numbers a session's response lines from 0 (the open profile).
	Seq int `json:"seq"`
	// Profile is the environment's profile after the op was applied.
	Profile *ProfileDTO `json:"profile,omitempty"`
	// Incremental reports whether the profile came from a warm-started
	// incremental solve (absent on the open line, which is always cold).
	Incremental *bool `json:"incremental,omitempty"`
	// Closed marks the final summary line of a cleanly closed JSON session.
	Closed bool `json:"closed,omitempty"`
	// IncrementalTotal / RecomputedTotal summarize the session on close.
	IncrementalTotal int `json:"incrementalTotal,omitempty"`
	RecomputedTotal  int `json:"recomputedTotal,omitempty"`
	// Error carries an in-stream failure. invalid_mutation and overloaded
	// leave the session open with its state untouched; every other code is
	// terminal.
	Error *apiErrorBody `json:"error,omitempty"`
}

// sessionRegistry bounds concurrently live stream sessions — the admission
// axis for long-lived connections, separate from the per-solve compute
// queue.
type sessionRegistry struct {
	active atomic.Int64
	max    int64
}

func (r *sessionRegistry) acquire() bool {
	if r.active.Add(1) > r.max {
		r.active.Add(-1)
		return false
	}
	return true
}

func (r *sessionRegistry) release() { r.active.Add(-1) }

// streamSession is the per-connection state of one /v1/stream request.
type streamSession struct {
	s          *Server
	w          http.ResponseWriter
	rc         *http.ResponseController
	me         *core.MutableEnv
	seq        int  // response lines/frames written
	muts       int  // mutations accepted; names generated tasks/machines
	bin        bool // binary framing
	headerSent bool
}

// handleStream serves POST /v1/stream. Mounted with recovery and
// observability but neither the request timeout (sessions are long-lived by
// design) nor response compression (a gzip writer buffers across flush
// boundaries, which would hold profile lines back from the client).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	// Full duplex: the handler keeps reading mutation lines after it has
	// started writing profiles. HTTP/2 supports this natively; for HTTP/1.1
	// the controller must opt in. This must happen before ANY response write,
	// including the session-limit rejection below — without it, net/http
	// drains the request body before emitting headers (go#15527), which on a
	// client still streaming its body blocks the response forever. An
	// unsupported transport just means the client has to pipeline, so the
	// error is ignorable.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()
	// A session ends when the handler returns, which may be before the
	// client has closed its request body (an explicit close op, an idle
	// eviction, a terminal error). The connection then holds an unread
	// full-duplex body and cannot carry another request: reused, the next
	// session's reads race the leftover body. Closing it after the response
	// costs one handshake per long-lived session.
	w.Header().Set("Connection", "close")

	if !s.streams.acquire() {
		writeError(w, http.StatusServiceUnavailable, codeSessionLimit,
			fmt.Sprintf("server at its %d-session stream limit; retry after one closes", s.cfg.MaxStreamSessions))
		_ = rc.Flush()
		return
	}
	defer s.streams.release()

	sess := &streamSession{
		s:   s,
		w:   w,
		rc:  rc,
		bin: mediaType(r) == wire.ContentTypeMatrix,
	}
	defer func() {
		if sess.me != nil {
			sess.me.Close()
		}
	}()
	if sess.bin {
		sess.runBinary(r)
	} else {
		sess.runJSON(r)
	}
}

// bumpIdle pushes the read deadline out by the idle timeout; a session that
// stays quiet past it is evicted (the next read fails with
// os.ErrDeadlineExceeded and the handler answers session_idle).
func (ss *streamSession) bumpIdle() {
	if ss.s.cfg.StreamIdleTimeout > 0 {
		_ = ss.rc.SetReadDeadline(time.Now().Add(ss.s.cfg.StreamIdleTimeout))
	}
}

// solveCtx bounds one profile solve with the ordinary per-request deadline —
// the session is unbounded, each computation inside it is not.
func (ss *streamSession) solveCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ss.s.cfg.RequestTimeout > 0 {
		return context.WithTimeout(ctx, ss.s.cfg.RequestTimeout)
	}
	return context.WithCancel(ctx)
}

// writeLine emits one JSON response line and flushes it. Binary sessions
// also come through here for errors and nothing else — errors are always
// the JSON envelope, matching the one-shot binary endpoints.
func (ss *streamSession) writeLine(u *StreamUpdate) {
	u.Version = APIVersion
	u.Seq = ss.seq
	ss.seq++
	if !ss.headerSent {
		ss.headerSent = true
		ss.w.Header().Set("Content-Type", "application/x-ndjson")
		ss.w.WriteHeader(http.StatusOK)
	}
	if err := json.NewEncoder(ss.w).Encode(u); err != nil {
		ss.s.log.Error("encoding stream update", "err", err)
		return
	}
	_ = ss.rc.Flush()
}

// writeProfile emits one profile result in the session's framing: a JSON
// line, or a wire profile frame whose cached bit carries the incremental
// flag (the one-shot cache never serves streams, so the bit is free here;
// documented in API.md §Streaming sessions).
func (ss *streamSession) writeProfile(p *core.Profile, warm *bool) {
	if !ss.bin {
		ss.writeLine(&StreamUpdate{Profile: ProfileToDTO(p, false), Incremental: warm})
		return
	}
	ss.seq++
	buf, err := wire.AppendProfile(nil, profileToWire(p, warm != nil && *warm))
	if err != nil {
		ss.s.log.Error("encoding stream profile frame", "err", err)
		return
	}
	if !ss.headerSent {
		ss.headerSent = true
		ss.w.Header().Set("Content-Type", wire.ContentTypeProfile)
		ss.w.WriteHeader(http.StatusOK)
	}
	if _, err := ss.w.Write(buf); err != nil {
		ss.s.log.Error("writing stream profile frame", "err", err)
		return
	}
	_ = ss.rc.Flush()
}

func (ss *streamSession) writeStreamError(code, message string) {
	ss.writeLine(&StreamUpdate{Error: &apiErrorBody{Code: code, Message: message}})
}

// admitCode maps an admission failure onto its in-stream error code.
func admitCode(err error) (code, message string) {
	switch {
	case errors.Is(err, ErrOverloaded):
		return codeOverloaded, "server at capacity; the session stays open — retry the mutation"
	case errors.Is(err, context.DeadlineExceeded):
		return codeTimeout, "deadline expired while queued for a compute slot"
	default:
		return codeCanceled, "session canceled"
	}
}

// open computes the session's opening cold profile and installs the
// MutableEnv. It reports whether the session may continue; on false the
// error line has been written.
func (ss *streamSession) open(ctx context.Context, env *etcmat.Env, tol float64) bool {
	p, _, code, msg := ss.solve(ctx, "stream_open", func(ctx context.Context) (*core.Profile, bool, error) {
		ss.me = core.NewMutableEnv(ctx, env, tol)
		return ss.me.Profile(), false, nil
	})
	if code != "" {
		env.ReleaseBuffers()
		ss.writeStreamError(code, msg)
		return false
	}
	ss.s.streamSessions.Inc()
	ss.s.streamProfiles.Inc()
	ss.writeProfile(p, nil)
	return true
}

// runMutation applies one mutation and writes the result. A rejected
// mutation (bad index, wrong-length vector, non-finite value) leaves the
// session state untouched and the stream open; so does an overloaded
// admission queue.
func (ss *streamSession) runMutation(ctx context.Context, kind string,
	apply func(ctx context.Context) (*core.Profile, bool, error)) {
	p, warm, code, msg := ss.solve(ctx, "stream_mutation", apply)
	if code != "" {
		if code == codeInvalidMutation {
			ss.s.streamRejected.Inc()
		}
		ss.writeStreamError(code, msg)
		return
	}
	ss.muts++
	ss.s.metrics.Counter("hcserved_stream_mutations_total",
		"Stream-session mutations accepted, by kind.", `kind="`+kind+`"`).Inc()
	ss.s.streamProfiles.Inc()
	if warm {
		ss.s.streamIncremental.Inc()
	} else {
		ss.s.streamRecomputed.Inc()
	}
	ss.writeProfile(p, &warm)
}

// solve claims a compute slot and runs apply under the per-solve deadline,
// inside a span named stage. A failure comes back as an in-stream error
// code and message: an admission code, or invalid_mutation when apply
// rejects the edit.
//
// A session is one request, so its trace would otherwise collect every
// solve's spans until the session ends. Before returning, solve hands the
// trace's spans to the stage histograms and drops them: the session's trace
// stays bounded, and a client holding a reply finds its solve's stages
// already on /metrics.
func (ss *streamSession) solve(ctx context.Context, stage string,
	apply func(ctx context.Context) (*core.Profile, bool, error)) (p *core.Profile, warm bool, code, msg string) {
	defer func() { ss.s.observeStages(obs.FromContext(ctx).Drain()) }()
	sp := obs.StartSpan(ctx, stage)
	defer sp.End()
	release, err := ss.s.adm.Enter(ctx)
	if err != nil {
		code, msg = admitCode(err)
		return nil, false, code, msg
	}
	defer release()
	sctx, cancel := ss.solveCtx(ss.s.computeCtx(ctx))
	defer cancel()
	p, warm, err = apply(sctx)
	if err != nil {
		return nil, false, codeInvalidMutation, err.Error()
	}
	return p, warm, "", ""
}

// mutate dispatches one decoded wire mutation (shared by both framings;
// name applies to the add ops and may be empty for the generated default).
func (ss *streamSession) mutate(ctx context.Context, m wire.Mutation, name string) {
	me := ss.me
	switch m.Op {
	case wire.MutAddTask:
		if name == "" {
			name = fmt.Sprintf("t+%d", ss.muts+1)
		}
		ss.runMutation(ctx, m.OpName(), func(ctx context.Context) (*core.Profile, bool, error) {
			return me.AddTask(ctx, name, m.Values)
		})
	case wire.MutAddMachine:
		if name == "" {
			name = fmt.Sprintf("m+%d", ss.muts+1)
		}
		ss.runMutation(ctx, m.OpName(), func(ctx context.Context) (*core.Profile, bool, error) {
			return me.AddMachine(ctx, name, m.Values)
		})
	case wire.MutDropTask:
		ss.runMutation(ctx, m.OpName(), func(ctx context.Context) (*core.Profile, bool, error) {
			return me.DropTask(ctx, m.Task)
		})
	case wire.MutDropMachine:
		ss.runMutation(ctx, m.OpName(), func(ctx context.Context) (*core.Profile, bool, error) {
			return me.DropMachine(ctx, m.Machine)
		})
	case wire.MutSetCell:
		ss.runMutation(ctx, m.OpName(), func(ctx context.Context) (*core.Profile, bool, error) {
			return me.SetCell(ctx, m.Task, m.Machine, m.Values[0])
		})
	case wire.MutTaskWeights:
		ss.runMutation(ctx, m.OpName(), func(ctx context.Context) (*core.Profile, bool, error) {
			return me.SetWeights(ctx, m.Values, nil)
		})
	case wire.MutMachineWeights:
		ss.runMutation(ctx, m.OpName(), func(ctx context.Context) (*core.Profile, bool, error) {
			return me.SetWeights(ctx, nil, m.Values)
		})
	default:
		ss.writeStreamError(codeInvalidMutation, fmt.Sprintf("unknown mutation op %d", m.Op))
	}
}

// closeSummary writes the JSON close line (binary sessions just end).
func (ss *streamSession) closeSummary() {
	if ss.bin || ss.me == nil {
		return
	}
	inc, rec := ss.me.Counts()
	ss.writeLine(&StreamUpdate{Closed: true, IncrementalTotal: inc, RecomputedTotal: rec})
}

// runJSON drives an NDJSON-framed session: one op object per request line,
// one StreamUpdate per response line.
func (ss *streamSession) runJSON(r *http.Request) {
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 0, 64<<10), int(ss.s.cfg.MaxBodyBytes))
	for {
		ss.bumpIdle()
		if !sc.Scan() {
			switch err := sc.Err(); {
			case err == nil: // clean EOF closes the session
				ss.closeSummary()
			case errors.Is(err, os.ErrDeadlineExceeded):
				ss.writeStreamError(codeSessionIdle,
					fmt.Sprintf("no mutation within the %s idle timeout", ss.s.cfg.StreamIdleTimeout))
			default:
				ss.s.log.Error("stream session read", "err", err)
			}
			return
		}
		line := trimASCIISpace(sc.Bytes())
		if len(line) == 0 {
			continue // blank lines are keep-alives
		}
		if ss.me == nil {
			// The opening environment goes through the one-shot endpoints'
			// scanner; only mutation lines use encoding/json.
			env, tol, err := decodeStreamOpen(line)
			if err != nil {
				ss.writeStreamError(codeInvalidRequest, err.Error())
				return
			}
			if !ss.open(r.Context(), env, tol) {
				return
			}
			continue
		}
		var req streamRequest
		if err := json.Unmarshal(line, &req); err != nil {
			// The line framing itself is broken; nothing after it can be
			// trusted, so this one is terminal.
			ss.writeStreamError(codeInvalidRequest, "malformed stream line: "+err.Error())
			return
		}
		switch req.Op {
		case "close":
			ss.closeSummary()
			return
		case "open":
			ss.writeStreamError(codeInvalidMutation, "session already open")
		case "add_task":
			ss.mutate(r.Context(), wire.Mutation{Op: wire.MutAddTask, Task: -1, Machine: -1, Values: req.Speeds}, req.Name)
		case "add_machine":
			ss.mutate(r.Context(), wire.Mutation{Op: wire.MutAddMachine, Task: -1, Machine: -1, Values: req.Speeds}, req.Name)
		case "drop_task":
			ss.mutate(r.Context(), wire.Mutation{Op: wire.MutDropTask, Task: req.Index, Machine: -1}, "")
		case "drop_machine":
			ss.mutate(r.Context(), wire.Mutation{Op: wire.MutDropMachine, Task: -1, Machine: req.Index}, "")
		case "set_cell":
			ss.mutate(r.Context(), wire.Mutation{Op: wire.MutSetCell, Task: req.Task, Machine: req.Machine, Values: []float64{req.Value}}, "")
		case "weights":
			ss.applyWeights(r.Context(), req.TaskWeights, req.MachineWeights)
		default:
			ss.writeStreamError(codeInvalidMutation, fmt.Sprintf("unknown op %q", req.Op))
		}
	}
}

// applyWeights maps the JSON "weights" op, which may carry either or both
// vectors, onto the mutation runner. A both-vector update applies atomically
// through one SetWeights call and is accounted under kind="weights";
// single-vector updates use the wire kinds so JSON and binary sessions meter
// identically.
func (ss *streamSession) applyWeights(ctx context.Context, tw, mw []float64) {
	me := ss.me
	switch {
	case tw != nil && mw != nil:
		ss.runMutation(ctx, "weights", func(ctx context.Context) (*core.Profile, bool, error) {
			return me.SetWeights(ctx, tw, mw)
		})
	case tw != nil:
		ss.mutate(ctx, wire.Mutation{Op: wire.MutTaskWeights, Task: -1, Machine: -1, Values: tw}, "")
	case mw != nil:
		ss.mutate(ctx, wire.Mutation{Op: wire.MutMachineWeights, Task: -1, Machine: -1, Values: mw}, "")
	default:
		ss.writeStreamError(codeInvalidMutation, "weights op carries neither vector")
	}
}

// runBinary drives a binary-framed session: a matrix or env frame opens it,
// KindMutation frames follow, and each accepted frame answers with a profile
// frame (its cached bit carrying the incremental flag). EOF between frames
// closes. Errors answer with the JSON error envelope and end the stream —
// the frame boundary cannot be trusted after a malformed frame.
func (ss *streamSession) runBinary(r *http.Request) {
	br := bufio.NewReader(r.Body)
	var frame []byte
	for {
		ss.bumpIdle()
		n, err := readFrame(br, &frame, int(ss.s.cfg.MaxBodyBytes))
		if err != nil {
			switch {
			case err == io.EOF: // clean close between frames
			case errors.Is(err, os.ErrDeadlineExceeded):
				ss.writeStreamError(codeSessionIdle,
					fmt.Sprintf("no mutation within the %s idle timeout", ss.s.cfg.StreamIdleTimeout))
			default:
				ss.writeStreamError(codeInvalidRequest, err.Error())
			}
			return
		}
		if ss.me == nil {
			p := acquirePayload()
			perr := p.parseBinaryEnv(frame[:n])
			var env *etcmat.Env
			if perr == nil {
				env, perr = p.env()
			}
			releasePayload(p)
			if perr != nil {
				ss.writeStreamError(codeInvalidRequest, perr.Error())
				return
			}
			if !ss.open(r.Context(), env, 0) {
				return
			}
			continue
		}
		m, _, merr := wire.DecodeMutation(frame[:n])
		if merr != nil {
			ss.writeStreamError(codeInvalidRequest, merr.Error())
			return
		}
		ss.mutate(r.Context(), m, "")
	}
}

// readFrame reads exactly one wire frame into *frame (growing it as needed,
// reusing it across calls) and returns its length. io.EOF is returned only
// on a clean frame boundary.
func readFrame(br *bufio.Reader, frame *[]byte, maxBytes int) (int, error) {
	if cap(*frame) < wire.HeaderSize {
		*frame = make([]byte, wire.HeaderSize, 4<<10)
	}
	head := (*frame)[:wire.HeaderSize]
	if _, err := io.ReadFull(br, head); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, fmt.Errorf("truncated frame header")
		}
		return 0, err // io.EOF at the boundary, or a deadline/transport error
	}
	size, err := wire.PeekFrameSize(head)
	if err != nil {
		return 0, err
	}
	if maxBytes > 0 && size > maxBytes {
		return 0, fmt.Errorf("frame of %d bytes exceeds the %d-byte limit", size, maxBytes)
	}
	if cap(*frame) < size {
		next := make([]byte, size)
		copy(next, head)
		*frame = next
	}
	full := (*frame)[:size]
	if _, err := io.ReadFull(br, full[wire.HeaderSize:]); err != nil {
		return 0, fmt.Errorf("truncated frame payload: %v", err)
	}
	return size, nil
}

// trimASCIISpace trims the whitespace NDJSON framing allows around a line.
func trimASCIISpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r' || b[0] == '\n') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r' || b[len(b)-1] == '\n') {
		b = b[:len(b)-1]
	}
	return b
}
