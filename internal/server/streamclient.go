package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// StreamClient drives one JSON-framed /v1/stream session from the client
// side: the request body is an io.Pipe the mutation methods write NDJSON
// lines into, and each method reads the matching response line before
// returning, so calls are synchronous and errors surface in order. It is
// the client under hetero.OpenStream and the hcload stream phase.
//
// The client is not safe for concurrent use — a session is an ordered
// conversation; interleave from one goroutine.
type StreamClient struct {
	pw     *io.PipeWriter
	enc    *json.Encoder
	sc     *bufio.Scanner
	resp   *http.Response
	closed bool
}

// streamScanBuffer bounds one response line; profiles scale with the
// environment, so this matches the server's default body limit.
const streamScanBuffer = 8 << 20

// OpenStreamSession opens a JSON stream session against baseURL (e.g.
// "http://host:port") and returns the client together with the opening cold
// profile. httpClient may be nil for http.DefaultClient. driftTol <= 0
// selects the server default.
func OpenStreamSession(ctx context.Context, httpClient *http.Client, baseURL string,
	env *EnvDTO, driftTol float64) (*StreamClient, *StreamUpdate, error) {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/stream", pr)
	if err != nil {
		pw.Close()
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")

	// The transport's body writer reads the pipe until it is closed, and Do
	// waits for that writer even after ctx ends; a server that stops
	// answering after the open line would otherwise park this call forever.
	// Closing the pipe when ctx ends bounds the open by ctx.
	stop := context.AfterFunc(ctx, func() { pw.CloseWithError(ctx.Err()) })
	defer stop()

	// Do returns once response headers arrive — which the server sends with
	// its first line, after it has read and solved the open request. The
	// transport streams the request body from the pipe concurrently, so the
	// open line must be written after Do is in flight.
	type doResult struct {
		resp *http.Response
		err  error
	}
	done := make(chan doResult, 1)
	go func() {
		resp, err := httpClient.Do(req)
		done <- doResult{resp, err}
	}()

	c := &StreamClient{pw: pw, enc: json.NewEncoder(pw)}
	if err := c.enc.Encode(streamRequest{Op: "open", Env: env, DriftTolerance: driftTol}); err != nil {
		pw.CloseWithError(err)
		return nil, nil, err
	}
	res := <-done
	if res.err != nil {
		pw.Close()
		return nil, nil, res.err
	}
	c.resp = res.resp
	if res.resp.StatusCode != http.StatusOK {
		// Pre-stream rejection (session_limit): the body is one apiError.
		var e apiError
		err := json.NewDecoder(res.resp.Body).Decode(&e)
		res.resp.Body.Close()
		pw.Close()
		if err != nil || e.Error.Code == "" {
			return nil, nil, fmt.Errorf("stream open: HTTP %d", res.resp.StatusCode)
		}
		return nil, nil, fmt.Errorf("stream open: %s: %s", e.Error.Code, e.Error.Message)
	}
	c.sc = bufio.NewScanner(res.resp.Body)
	c.sc.Buffer(make([]byte, 0, 64<<10), streamScanBuffer)
	u, err := c.read()
	if err != nil {
		c.abort()
		return nil, nil, err
	}
	if u.Error != nil {
		c.abort()
		return nil, nil, fmt.Errorf("stream open: %s: %s", u.Error.Code, u.Error.Message)
	}
	return c, u, nil
}

// read consumes the next response line.
func (c *StreamClient) read() (*StreamUpdate, error) {
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}
	var u StreamUpdate
	if err := json.Unmarshal(c.sc.Bytes(), &u); err != nil {
		return nil, fmt.Errorf("malformed stream response line: %w", err)
	}
	return &u, nil
}

// send writes one mutation line and returns the matching response. An
// in-stream invalid_mutation or overloaded error comes back as a non-nil
// *StreamUpdate with Error set and a nil Go error — the session is still
// usable; the caller decides whether to retry or give up.
func (c *StreamClient) send(req streamRequest) (*StreamUpdate, error) {
	if c.closed {
		return nil, fmt.Errorf("stream session already closed")
	}
	if err := c.enc.Encode(req); err != nil {
		return nil, err
	}
	return c.read()
}

// AddTask appends a task row (ECS speeds, one per machine). name may be
// empty for the server-generated default.
func (c *StreamClient) AddTask(name string, speeds []float64) (*StreamUpdate, error) {
	return c.send(streamRequest{Op: "add_task", Name: name, Speeds: speeds})
}

// AddMachine appends a machine column (ECS speeds, one per task).
func (c *StreamClient) AddMachine(name string, speeds []float64) (*StreamUpdate, error) {
	return c.send(streamRequest{Op: "add_machine", Name: name, Speeds: speeds})
}

// DropTask removes task i.
func (c *StreamClient) DropTask(i int) (*StreamUpdate, error) {
	return c.send(streamRequest{Op: "drop_task", Index: i})
}

// DropMachine removes machine j.
func (c *StreamClient) DropMachine(j int) (*StreamUpdate, error) {
	return c.send(streamRequest{Op: "drop_machine", Index: j})
}

// SetCell updates one ECS cell (0 marks the pairing impossible).
func (c *StreamClient) SetCell(task, machine int, value float64) (*StreamUpdate, error) {
	return c.send(streamRequest{Op: "set_cell", Task: task, Machine: machine, Value: value})
}

// SetWeights replaces the weight vectors; nil keeps the existing one.
func (c *StreamClient) SetWeights(taskWeights, machineWeights []float64) (*StreamUpdate, error) {
	return c.send(streamRequest{Op: "weights", TaskWeights: taskWeights, MachineWeights: machineWeights})
}

// Close ends the session cleanly and returns the server's summary line
// (incremental/recomputed totals). Safe to call once.
func (c *StreamClient) Close() (*StreamUpdate, error) {
	if c.closed {
		return nil, fmt.Errorf("stream session already closed")
	}
	u, err := c.send(streamRequest{Op: "close"})
	c.abort()
	return u, err
}

// abort tears the transport down without the close handshake.
func (c *StreamClient) abort() {
	if c.closed {
		return
	}
	c.closed = true
	c.pw.Close()
	if c.resp != nil {
		io.Copy(io.Discard, c.resp.Body)
		c.resp.Body.Close()
	}
}
