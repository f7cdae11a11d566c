package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"repro/internal/etcmat"
	"repro/internal/matrix"
	"repro/internal/wire"
)

// This file is the zero-copy ingestion path (DESIGN.md §13). Environment
// request bodies — by far the largest payloads the server sees — are decoded
// by a hand-rolled streaming scanner instead of encoding/json: matrix cells
// are parsed straight out of the body buffer, each in one fused pass over its
// bytes (number.go), into a pooled []float64 with no [][]ETCValue
// materialization, and every cell is fed to a ContentHasher as it is parsed,
// so by the time the body is scanned the cache key is already known. A warm
// request therefore reads each body byte once and allocates nothing
// proportional to the matrix.

// Pools for the per-request ingestion state. Package-level because payloads
// flow through free functions; all three recycle across requests and shrink
// nothing (capacity is retained, bounded by MaxBodyBytes).
var (
	bodyPool = sync.Pool{New: func() any {
		b := make([]byte, 0, 64<<10)
		return &b
	}}
	payloadPool = sync.Pool{New: func() any {
		return &envPayload{hasher: etcmat.NewContentHasher()}
	}}
)

// envPayload is the decoded-but-not-materialized form of one environment
// request: the ECS cells in a pooled row-major buffer, the optional names and
// weights, and the content key computed during the scan. Materializing an
// *etcmat.Env (which clones the cells) is deferred to env(), so a cache hit
// never pays for it.
type envPayload struct {
	rows, cols int
	cells      []float64 // ECS values, row-major; pooled across requests

	etcSet, ecsSet, csvSet bool
	csv                    string
	taskNames              []string
	machineNames           []string
	taskWeights            []float64
	machineWeights         []float64

	// twBuf/mwBuf back taskWeights/machineWeights on the binary env-frame
	// path (the hot cluster-forward decode): capacity pools across requests
	// like cells. Safe to reuse because every consumer of the weight slices
	// copies — etcmat.WithWeights clones its inputs and envFrameBody only
	// reads. The JSON path still allocates its vectors (readFloatArray).
	twBuf, mwBuf []float64

	// semErr is the first semantic error (value constraint, ragged row) hit
	// during the scan. It does not stop tokenization — batch items must stay
	// in sync — but finalize surfaces it and the payload is never used.
	semErr error

	key    cacheKey
	csvEnv *etcmat.Env // set when the body carried a CSV form
	hasher *etcmat.ContentHasher
}

func acquirePayload() *envPayload {
	p := payloadPool.Get().(*envPayload)
	p.reset()
	return p
}

func releasePayload(p *envPayload) {
	// Drop request-lifetime references so the pool does not pin them; cells
	// capacity and the hasher are the point of pooling and stay.
	p.reset()
	payloadPool.Put(p)
}

// reset clears the payload for the next environment (the batch scanner calls
// it once per item, reusing one cells buffer for the whole batch).
func (p *envPayload) reset() {
	p.rows, p.cols = 0, 0
	p.cells = p.cells[:0]
	p.etcSet, p.ecsSet, p.csvSet = false, false, false
	p.csv = ""
	p.taskNames, p.machineNames = nil, nil
	p.taskWeights, p.machineWeights = nil, nil
	p.semErr = nil
	p.key = cacheKey{}
	p.csvEnv = nil
	p.hasher.Reset()
}

// parseJSONEnv scans a whole characterize/whatif JSON body into p and
// finalizes it.
func (p *envPayload) parseJSONEnv(body []byte) error {
	s := &jsonScanner{data: body}
	if err := p.parseEnvObject(s, 1); err != nil {
		return err
	}
	if err := s.trailingCheck(); err != nil {
		return err
	}
	return p.finalize()
}

// parseBinaryEnv decodes a whole application/x-hc-matrix body (exactly one
// frame) into p and finalizes it.
func (p *envPayload) parseBinaryEnv(body []byte) error {
	n, err := p.parseBinaryFrame(body)
	if err != nil {
		return err
	}
	if n != len(body) {
		return fmt.Errorf("unexpected %d trailing bytes after binary frame", len(body)-n)
	}
	return p.finalize()
}

// parseBinaryFrame decodes one environment frame, hashing each cell as it
// streams, and returns the bytes consumed so concatenated batch frames
// compose. Two kinds carry environments: a matrix frame with ETC semantics
// (+Inf entry = impossible pairing = ECS 0, each cell reciprocated), and an
// env frame carrying raw ECS cells plus both weight vectors — the form peer
// forwards use, because it round-trips bit-exactly and therefore reproduces
// the requester's content key (reciprocating ETC cells would not: 1/(1/x)
// is not bit-stable).
func (p *envPayload) parseBinaryFrame(data []byte) (int, error) {
	h, err := wire.ParseHeader(data)
	if err != nil {
		return 0, err
	}
	if h.Kind == wire.KindEnv {
		return p.parseEnvFrame(data)
	}
	if h.Kind != wire.KindMatrix {
		return 0, fmt.Errorf("frame kind %d is not a matrix", h.Kind)
	}
	p.rows, p.cols = h.Rows, h.Cols
	p.etcSet = true
	cells := h.Cells()
	if cap(p.cells) < cells {
		p.cells = make([]float64, 0, cells)
	}
	for k := 0; k < cells; k++ {
		v := wire.Cell(h.Payload, k)
		var ecs float64
		switch {
		case math.IsInf(v, 1):
			ecs = 0
		case math.IsNaN(v) || v <= 0:
			if p.semErr == nil {
				p.semErr = fmt.Errorf("%w: ETC(%d,%d) = %g must be positive or +Inf",
					etcmat.ErrInvalid, k/h.Cols, k%h.Cols, v)
			}
			continue
		default:
			ecs = 1 / v
		}
		if p.semErr == nil {
			p.hasher.WriteValue(ecs)
			p.cells = append(p.cells, ecs)
		}
	}
	return h.Size, nil
}

// parseEnvFrame decodes one KindEnv frame: ECS cells verbatim into the
// hasher and cell buffer, weight vectors attached explicitly. The encoder
// writes defaulted weights as literal 1s, which hash identically to the
// WriteOnes canonicalization of an absent vector, so the key computed here
// matches the one the forwarding node computed from the original request.
// The decode is in place — cells and weights land in the payload's pooled
// buffers, so the warm forwarded-request path allocates nothing (this is the
// hot decode of every cluster forward; wire.DecodeEnv would allocate three
// fresh slices per request).
func (p *envPayload) parseEnvFrame(data []byte) (int, error) {
	h, err := wire.ParseHeader(data)
	if err != nil {
		return 0, err
	}
	if h.Kind != wire.KindEnv {
		return 0, fmt.Errorf("frame kind %d is not an env", h.Kind)
	}
	p.rows, p.cols = h.Rows, h.Cols
	p.ecsSet = true
	cells := h.Cells()
	if cap(p.cells) < cells {
		p.cells = make([]float64, 0, cells)
	}
	for k := 0; k < cells; k++ {
		v := wire.Cell(h.Payload, k)
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return 0, fmt.Errorf("%w: ECS cell (%d,%d) = %g has no wire form",
				wire.ErrMalformed, k/p.cols, k%p.cols, v)
		}
		p.hasher.WriteValue(v)
		p.cells = append(p.cells, v)
	}
	p.twBuf = growFloats(p.twBuf, p.rows)
	for i := 0; i < p.rows; i++ {
		p.twBuf[i] = wire.Cell(h.Payload, cells+i)
	}
	p.mwBuf = growFloats(p.mwBuf, p.cols)
	for j := 0; j < p.cols; j++ {
		p.mwBuf[j] = wire.Cell(h.Payload, cells+p.rows+j)
	}
	p.taskWeights = p.twBuf
	p.machineWeights = p.mwBuf
	return h.Size, nil
}

// growFloats returns buf resized to n, reusing its capacity when possible.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// finalize validates the scanned structure and fixes the content key. It must
// run before any cache lookup: names are excluded from the hash, so a
// name-length mismatch has to be rejected here or a warm cache would mask it
// (everything that IS hashed — cells, weights, dims — can only ever hit a key
// that a previously validated environment produced).
func (p *envPayload) finalize() error {
	forms := 0
	if p.etcSet {
		forms++
	}
	if p.ecsSet {
		forms++
	}
	if p.csvSet {
		forms++
	}
	if forms != 1 {
		return fmt.Errorf("exactly one of etc, ecs or csv must be set (got %d)", forms)
	}
	if p.semErr != nil {
		return p.semErr
	}
	if p.csvSet {
		env, err := etcmat.ReadETCCSV(strings.NewReader(p.csv))
		if err != nil {
			return err
		}
		if env, err = applyNamesWeights(env, p.taskNames, p.machineNames, p.taskWeights, p.machineWeights); err != nil {
			return err
		}
		p.csvEnv = env
		p.key = env.ContentKey()
		return nil
	}
	if p.cols == 0 {
		return fmt.Errorf("%w: empty matrix", etcmat.ErrInvalid)
	}
	if p.taskNames != nil && len(p.taskNames) != p.rows {
		return fmt.Errorf("%w: %d task names for %d task types", etcmat.ErrInvalid, len(p.taskNames), p.rows)
	}
	if p.machineNames != nil && len(p.machineNames) != p.cols {
		return fmt.Errorf("%w: %d machine names for %d machines", etcmat.ErrInvalid, len(p.machineNames), p.cols)
	}
	// Weight vectors join the canonical stream after the cells (absent ones
	// hash as the unit weights they default to). A wrong-length or invalid
	// weight vector needs no pre-check: it perturbs the hash, so the lookup
	// misses and env() rejects it on the compute path.
	if p.taskWeights != nil {
		p.hasher.WriteValues(p.taskWeights)
	} else {
		p.hasher.WriteOnes(p.rows)
	}
	if p.machineWeights != nil {
		p.hasher.WriteValues(p.machineWeights)
	} else {
		p.hasher.WriteOnes(p.cols)
	}
	p.key = p.hasher.Sum(p.rows, p.cols)
	return nil
}

// env materializes the finalized payload. The cell buffer is copied once
// into a pool-backed matrix that the environment adopts outright
// (NewFromECSOwned), so the payload (and its pooled storage) is free to
// release as soon as this returns and the environment's own storage recycles
// through ReleaseBuffers instead of burdening the GC — the serving tier's
// requests at fleet scale carry multi-megabyte matrices.
func (p *envPayload) env() (*etcmat.Env, error) {
	if p.csvEnv != nil {
		return p.csvEnv, nil
	}
	cells := matrix.FromDataPooled(p.rows, p.cols, p.cells)
	env, err := etcmat.NewFromECSOwned(cells)
	if err != nil {
		matrix.Recycle(cells)
		return nil, err
	}
	out, err := applyNamesWeights(env, p.taskNames, p.machineNames, p.taskWeights, p.machineWeights)
	if err != nil {
		env.ReleaseBuffers()
		return nil, err
	}
	if out != env {
		// applyNamesWeights clones on edit; the intermediate goes back to the
		// pool rather than waiting for the GC.
		env.ReleaseBuffers()
	}
	return out, nil
}

// applyNamesWeights mirrors the tail of EnvDTO.Env — same order, same errors.
func applyNamesWeights(env *etcmat.Env, tn, mn []string, tw, mw []float64) (*etcmat.Env, error) {
	var err error
	if tn != nil {
		if env, err = env.WithTaskNames(tn); err != nil {
			return nil, err
		}
	}
	if mn != nil {
		if env, err = env.WithMachineNames(mn); err != nil {
			return nil, err
		}
	}
	if tw != nil || mw != nil {
		if env, err = env.WithWeights(tw, mw); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// ---- the scanner ----

// jsonScanner is a minimal non-allocating JSON tokenizer over a fully
// buffered body. It is not a general validator — it accepts a superset of
// JSON numbers (anything strconv.ParseFloat takes from the number charset;
// readFloat settles the common forms itself and hands every other token to
// ParseFloat) — but every valid request body parses identically to
// encoding/json, keys matching case-insensitively as they do there, with one
// deliberate divergence: a duplicate etc/ecs key is an error rather than
// last-wins, because the first matrix has already streamed through the
// hasher. FuzzEnvJSON checks the rest against encoding/json.
type jsonScanner struct {
	data []byte
	pos  int
}

func (s *jsonScanner) skipWS() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

func (s *jsonScanner) errf(format string, args ...any) error {
	return fmt.Errorf(format+" at byte %d", append(args, s.pos)...)
}

// expect consumes the next non-space byte, which must be c.
func (s *jsonScanner) expect(c byte) error {
	s.skipWS()
	if s.pos >= len(s.data) || s.data[s.pos] != c {
		return s.errf("expected %q", string(c))
	}
	s.pos++
	return nil
}

// delim consumes either of two structural bytes (e.g. ',' or ']'), returning
// the one found.
func (s *jsonScanner) delim(a, b byte) (byte, error) {
	s.skipWS()
	if s.pos < len(s.data) {
		if c := s.data[s.pos]; c == a || c == b {
			s.pos++
			return c, nil
		}
	}
	return 0, s.errf("expected %q or %q", string(a), string(b))
}

func (s *jsonScanner) trailingCheck() error {
	s.skipWS()
	if s.pos != len(s.data) {
		return errors.New("unexpected data after JSON body")
	}
	return nil
}

func isNumByte(c byte) bool {
	return c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || (c >= '0' && c <= '9')
}

// readFloat reads one number. The fused parser (number.go) settles nearly
// every real cell in one pass over its bytes; a token it declines is read
// again by readFloatStrconv, so both paths agree on the value's bits, on
// where the token ends and on the error.
func (s *jsonScanner) readFloat() (float64, error) {
	s.skipWS()
	if v, end, ok := parseNumber(s.data, s.pos); ok {
		s.pos = end
		return v, nil
	}
	return s.readFloatStrconv()
}

// readFloatStrconv tokenizes the maximal run of number bytes and hands it to
// strconv.ParseFloat through an unsafe no-copy string — sound because the
// token aliases the request body, which is immutable for the scan's
// lifetime. It defines the accepted superset of JSON numbers: anything
// ParseFloat takes from the number charset.
func (s *jsonScanner) readFloatStrconv() (float64, error) {
	tok, err := s.numberToken()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(unsafe.String(&tok[0], len(tok)), 64)
	if err != nil {
		return 0, fmt.Errorf("invalid number %q", tok)
	}
	return v, nil
}

// numberToken consumes the maximal run of number bytes, which must not be
// empty.
func (s *jsonScanner) numberToken() ([]byte, error) {
	s.skipWS()
	start := s.pos
	for s.pos < len(s.data) && isNumByte(s.data[s.pos]) {
		s.pos++
	}
	if s.pos == start {
		return nil, s.errf("expected a number")
	}
	return s.data[start:s.pos], nil
}

// skipNumber consumes a number whose value is never used (inside an unknown
// key). Only its syntax is checked: like encoding/json skipping an unknown
// field, a magnitude beyond float64's range is not an error.
func (s *jsonScanner) skipNumber() error {
	tok, err := s.numberToken()
	if err != nil {
		return err
	}
	_, err = strconv.ParseFloat(unsafe.String(&tok[0], len(tok)), 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		return fmt.Errorf("invalid number %q", tok)
	}
	return nil
}

// readStringBytes returns the content of the next string. Escape-free strings
// (every matrix "inf" cell, every realistic name) alias the body with no
// allocation; the escape path allocates and unescapes.
func (s *jsonScanner) readStringBytes() ([]byte, error) {
	s.skipWS()
	if s.pos >= len(s.data) || s.data[s.pos] != '"' {
		return nil, s.errf("expected a string")
	}
	s.pos++
	start := s.pos
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; {
		case c == '"':
			out := s.data[start:s.pos]
			s.pos++
			return out, nil
		case c == '\\':
			return s.readStringSlow(start)
		case c < 0x20:
			return nil, s.errf("control character in string")
		default:
			s.pos++
		}
	}
	return nil, errors.New("unterminated string")
}

// readStringSlow finishes a string that contains escapes, unescaping per RFC
// 8259 (invalid surrogate halves become U+FFFD, as encoding/json does).
func (s *jsonScanner) readStringSlow(start int) ([]byte, error) {
	out := append([]byte(nil), s.data[start:s.pos]...)
	for s.pos < len(s.data) {
		switch c := s.data[s.pos]; {
		case c == '"':
			s.pos++
			return out, nil
		case c == '\\':
			s.pos++
			if s.pos >= len(s.data) {
				return nil, errors.New("unterminated escape")
			}
			e := s.data[s.pos]
			s.pos++
			switch e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, err := s.readHexRune()
				if err != nil {
					return nil, err
				}
				if utf16.IsSurrogate(r) {
					r2 := rune(unicode.ReplacementChar)
					if s.pos+6 <= len(s.data) && s.data[s.pos] == '\\' && s.data[s.pos+1] == 'u' {
						save := s.pos
						s.pos += 2
						lo, err := s.readHexRune()
						if err != nil {
							return nil, err
						}
						if dec := utf16.DecodeRune(r, lo); dec != unicode.ReplacementChar {
							r2 = dec
						} else {
							s.pos = save // second escape was not the low half
						}
					}
					r = r2
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, fmt.Errorf("invalid escape \\%s", string(e))
			}
		case c < 0x20:
			return nil, s.errf("control character in string")
		default:
			out = append(out, c)
			s.pos++
		}
	}
	return nil, errors.New("unterminated string")
}

func (s *jsonScanner) readHexRune() (rune, error) {
	if s.pos+4 > len(s.data) {
		return 0, errors.New("truncated \\u escape")
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := s.data[s.pos+i]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, errors.New("invalid \\u escape")
		}
	}
	s.pos += 4
	return r, nil
}

// null consumes a null literal if one starts at the current position.
func (s *jsonScanner) null() bool {
	if s.pos+4 <= len(s.data) && string(s.data[s.pos:s.pos+4]) == "null" {
		s.pos += 4
		return true
	}
	return false
}

func (s *jsonScanner) literal(lit string) error {
	if s.pos+len(lit) > len(s.data) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		return s.errf("invalid literal")
	}
	s.pos += len(lit)
	return nil
}

// maxNestingDepth is encoding/json's nesting limit. Depths count the body
// object as 1, as encoding/json does, so both reject the same bodies; the
// limit also bounds skipValue's recursion.
const maxNestingDepth = 10000

// skipValue consumes one JSON value of any shape (unknown keys) held by a
// container at the given nesting depth.
func (s *jsonScanner) skipValue(depth int) error {
	s.skipWS()
	if s.pos >= len(s.data) {
		return errors.New("unexpected end of body")
	}
	c := s.data[s.pos]
	if (c == '{' || c == '[') && depth >= maxNestingDepth {
		return s.errf("exceeded max depth %d", maxNestingDepth)
	}
	switch c {
	case '"':
		_, err := s.readStringBytes()
		return err
	case '{':
		s.pos++
		s.skipWS()
		if s.pos < len(s.data) && s.data[s.pos] == '}' {
			s.pos++
			return nil
		}
		for {
			if _, err := s.readStringBytes(); err != nil {
				return err
			}
			if err := s.expect(':'); err != nil {
				return err
			}
			if err := s.skipValue(depth + 1); err != nil {
				return err
			}
			d, err := s.delim(',', '}')
			if err != nil {
				return err
			}
			if d == '}' {
				return nil
			}
		}
	case '[':
		s.pos++
		s.skipWS()
		if s.pos < len(s.data) && s.data[s.pos] == ']' {
			s.pos++
			return nil
		}
		for {
			if err := s.skipValue(depth + 1); err != nil {
				return err
			}
			d, err := s.delim(',', ']')
			if err != nil {
				return err
			}
			if d == ']' {
				return nil
			}
		}
	case 't':
		return s.literal("true")
	case 'f':
		return s.literal("false")
	case 'n':
		return s.literal("null")
	default:
		return s.skipNumber()
	}
}

func (s *jsonScanner) readStringArray() ([]string, error) {
	if err := s.expect('['); err != nil {
		return nil, err
	}
	out := []string{}
	s.skipWS()
	if s.pos < len(s.data) && s.data[s.pos] == ']' {
		s.pos++
		return out, nil
	}
	for {
		s.skipWS()
		if s.null() {
			out = append(out, "") // encoding/json leaves a null element empty
		} else {
			b, err := s.readStringBytes()
			if err != nil {
				return nil, err
			}
			out = append(out, string(b))
		}
		d, err := s.delim(',', ']')
		if err != nil {
			return nil, err
		}
		if d == ']' {
			return out, nil
		}
	}
}

func (s *jsonScanner) readFloatArray() ([]float64, error) {
	if err := s.expect('['); err != nil {
		return nil, err
	}
	out := []float64{}
	s.skipWS()
	if s.pos < len(s.data) && s.data[s.pos] == ']' {
		s.pos++
		return out, nil
	}
	for {
		v, err := s.readFloat()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		d, err := s.delim(',', ']')
		if err != nil {
			return nil, err
		}
		if d == ']' {
			return out, nil
		}
	}
}

// parseEnvObject scans one EnvDTO-shaped object into p. Tokenization failures
// return an error and abort; semantic failures land in p.semErr and scanning
// continues so a batch stays in sync with its remaining items. depth is the
// object's own nesting depth (a whole-body object is 1).
func (p *envPayload) parseEnvObject(s *jsonScanner, depth int) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	s.skipWS()
	if s.pos < len(s.data) && s.data[s.pos] == '}' {
		s.pos++
		return nil
	}
	for {
		key, err := s.readStringBytes()
		if err != nil {
			return err
		}
		if err := s.expect(':'); err != nil {
			return err
		}
		field := matchField(key, envFields)
		s.skipWS()
		switch {
		case field != "" && s.null():
			err = p.setNull(field)
		case field == "etc":
			err = p.parseMatrix(s, true)
		case field == "ecs":
			err = p.parseMatrix(s, false)
		case field == "csv":
			var b []byte
			if b, err = s.readStringBytes(); err == nil {
				p.csv = string(b)
				p.csvSet = p.csv != ""
			}
		case field == "taskNames":
			p.taskNames, err = s.readStringArray()
		case field == "machineNames":
			p.machineNames, err = s.readStringArray()
		case field == "taskWeights":
			p.taskWeights, err = s.readFloatArray()
		case field == "machineWeights":
			p.machineWeights, err = s.readFloatArray()
		default:
			err = s.skipValue(depth)
		}
		if err != nil {
			return err
		}
		d, err := s.delim(',', '}')
		if err != nil {
			return err
		}
		if d == '}' {
			return nil
		}
	}
}

// envFields are the EnvDTO keys parseEnvObject decodes.
var envFields = []string{"etc", "ecs", "csv", "taskNames", "machineNames", "taskWeights", "machineWeights"}

// matchField returns the name in fields that key matches, or "" for a key
// the scanner skips. Like encoding/json, keys match case-insensitively
// (bytes.EqualFold), so "ETC" sets etc; no two names here fold together.
func matchField(key []byte, fields []string) string {
	for _, f := range fields {
		if bytes.EqualFold(key, []byte(f)) {
			return f
		}
	}
	return ""
}

// setNull applies a null value to a known field as encoding/json does: an
// array field becomes absent and csv keeps its value. A matrix already
// streamed into the hasher cannot be taken back, so nulling it is a
// duplicate key.
func (p *envPayload) setNull(field string) error {
	switch field {
	case "etc", "ecs":
		if (field == "etc" && p.etcSet) || (field == "ecs" && p.ecsSet) {
			return fmt.Errorf("duplicate %q key", field)
		}
	case "taskNames":
		p.taskNames = nil
	case "machineNames":
		p.machineNames = nil
	case "taskWeights":
		p.taskWeights = nil
	case "machineWeights":
		p.machineWeights = nil
	}
	return nil
}

// parseMatrix scans an etc/ecs array-of-rows, streaming each cell into the
// hasher and the pooled cell buffer. An empty array counts as "form not set",
// matching the DTO's len()>0 semantics.
func (p *envPayload) parseMatrix(s *jsonScanner, isETC bool) error {
	if (isETC && p.etcSet) || (!isETC && p.ecsSet) {
		form := "ecs"
		if isETC {
			form = "etc"
		}
		return fmt.Errorf("duplicate %q key", form)
	}
	// If the other matrix form already streamed its cells, this one is only
	// tokenized — finalize rejects the request on the form count, and its
	// cells must not reach the hasher.
	ignore := p.etcSet || p.ecsSet
	if err := s.expect('['); err != nil {
		return err
	}
	s.skipWS()
	if s.pos < len(s.data) && s.data[s.pos] == ']' {
		s.pos++
		return nil
	}
	rows := 0
	for {
		if err := s.expect('['); err != nil {
			return err
		}
		n := 0
		s.skipWS()
		if s.pos < len(s.data) && s.data[s.pos] == ']' {
			s.pos++
		} else {
			for {
				v, ok, err := p.readCell(s, isETC, rows, n)
				if err != nil {
					return err
				}
				if !ignore && ok && p.semErr == nil {
					p.hasher.WriteValue(v)
					p.cells = append(p.cells, v)
				}
				n++
				d, err := s.delim(',', ']')
				if err != nil {
					return err
				}
				if d == ']' {
					break
				}
			}
		}
		if !ignore {
			if rows == 0 {
				p.cols = n
			} else if n != p.cols && p.semErr == nil {
				form := "ecs"
				if isETC {
					form = "etc"
				}
				p.semErr = fmt.Errorf("ragged %s matrix: row 0 has %d entries, row %d has %d", form, p.cols, rows, n)
			}
		}
		rows++
		d, err := s.delim(',', ']')
		if err != nil {
			return err
		}
		if d == ']' {
			break
		}
	}
	if !ignore {
		p.rows = rows
	}
	if isETC {
		p.etcSet = true
	} else {
		p.ecsSet = true
	}
	return nil
}

// readCell tokenizes one matrix cell and returns its ECS value. ok=false with
// a nil error means the cell was structurally sound but semantically invalid;
// the error is in p.semErr and scanning continues.
func (p *envPayload) readCell(s *jsonScanner, isETC bool, i, j int) (v float64, ok bool, err error) {
	s.skipWS()
	if s.pos < len(s.data) && s.data[s.pos] == '"' {
		if !isETC {
			return 0, false, s.errf("ecs entries must be numbers")
		}
		b, err := s.readStringBytes()
		if err != nil {
			return 0, false, err
		}
		if isInfToken(b) {
			return 0, true, nil // +Inf ETC = impossible pairing = ECS 0
		}
		return 0, false, fmt.Errorf("server: ETC entry %q is not a number or \"inf\"", b)
	}
	var n float64 // encoding/json leaves a null cell at zero
	if !s.null() {
		if n, err = s.readFloat(); err != nil {
			return 0, false, err
		}
	}
	if isETC {
		if math.IsNaN(n) || n <= 0 {
			if p.semErr == nil {
				p.semErr = fmt.Errorf("%w: ETC(%d,%d) = %g must be positive or +Inf", etcmat.ErrInvalid, i, j, n)
			}
			return 0, false, nil
		}
		return 1 / n, true, nil
	}
	if math.IsNaN(n) || math.IsInf(n, 0) || n < 0 {
		if p.semErr == nil {
			p.semErr = fmt.Errorf("%w: ECS(%d,%d) = %g must be finite and nonnegative", etcmat.ErrInvalid, i, j, n)
		}
		return 0, false, nil
	}
	return n, true, nil
}

// isInfToken matches the ETCValue contract: "inf", any case, optional '+'.
func isInfToken(b []byte) bool {
	if len(b) > 0 && b[0] == '+' {
		b = b[1:]
	}
	return len(b) == 3 && b[0]|0x20 == 'i' && b[1]|0x20 == 'n' && b[2]|0x20 == 'f'
}

// scanJSONBatch streams {"envs":[...]}, invoking fn once per item with that
// item's finalize result (nil = valid, key set, payload materializable).
// Tokenization errors abort the whole scan — the old whole-body decode failed
// the same way — while per-item semantic errors reach fn and the batch keeps
// going.
func scanJSONBatch(body []byte, p *envPayload, fn func(itemErr error)) error {
	s := &jsonScanner{data: body}
	if err := s.expect('{'); err != nil {
		return err
	}
	s.skipWS()
	if s.pos < len(s.data) && s.data[s.pos] == '}' {
		s.pos++
		return s.trailingCheck()
	}
	envsSeen := false
	for {
		key, err := s.readStringBytes()
		if err != nil {
			return err
		}
		if err := s.expect(':'); err != nil {
			return err
		}
		if bytes.EqualFold(key, []byte("envs")) { // case-insensitive, as encoding/json matches
			if envsSeen {
				return errors.New(`duplicate "envs" key`)
			}
			envsSeen = true
			if err := s.expect('['); err != nil {
				return err
			}
			s.skipWS()
			if s.pos < len(s.data) && s.data[s.pos] == ']' {
				s.pos++
			} else {
				for {
					p.reset()
					if err := p.parseEnvObject(s, 3); err != nil {
						return err
					}
					fn(p.finalize())
					d, err := s.delim(',', ']')
					if err != nil {
						return err
					}
					if d == ']' {
						break
					}
				}
			}
		} else if err := s.skipValue(1); err != nil {
			return err
		}
		d, err := s.delim(',', '}')
		if err != nil {
			return err
		}
		if d == '}' {
			break
		}
	}
	return s.trailingCheck()
}

// streamOpenFields are the streamRequest keys an opening line is read for.
var streamOpenFields = []string{"op", "env", "driftTolerance"}

// decodeStreamOpen decodes the first NDJSON line of a JSON stream session,
// {"op":"open","env":{...},"driftTolerance":t}, with the scanner the
// one-shot endpoints use, so a session opens on exactly the environment
// /v1/characterize builds from the same env object. The error text is the
// invalid_request message.
func decodeStreamOpen(line []byte) (env *etcmat.Env, tol float64, err error) {
	p := acquirePayload()
	defer releasePayload(p)
	op, hasEnv, tol, err := scanStreamOpen(&jsonScanner{data: line}, p)
	if err != nil {
		return nil, 0, fmt.Errorf("malformed stream line: %w", err)
	}
	if string(op) != "open" || !hasEnv {
		return nil, 0, errors.New(`the first stream line must be {"op":"open","env":{...}}`)
	}
	if err := p.finalize(); err != nil {
		return nil, 0, err
	}
	env, err = p.env()
	return env, tol, err
}

// scanStreamOpen scans an opening line's object, the env into p. Keys match
// as encoding/json matches them: case-insensitively, the last of a repeated
// key winning, a null value leaving the field unset. Other fields mean
// nothing on an opening line and are skipped unchecked.
func scanStreamOpen(s *jsonScanner, p *envPayload) (op []byte, hasEnv bool, tol float64, err error) {
	if err := s.expect('{'); err != nil {
		return nil, false, 0, err
	}
	s.skipWS()
	if s.pos < len(s.data) && s.data[s.pos] == '}' {
		s.pos++
		return nil, false, 0, s.trailingCheck()
	}
	for {
		key, err := s.readStringBytes()
		if err != nil {
			return nil, false, 0, err
		}
		if err := s.expect(':'); err != nil {
			return nil, false, 0, err
		}
		s.skipWS()
		field := matchField(key, streamOpenFields)
		switch {
		case field != "" && s.null():
			if field == "env" {
				hasEnv = false
			}
		case field == "op":
			op, err = s.readStringBytes()
		case field == "env":
			p.reset()
			hasEnv = true
			err = p.parseEnvObject(s, 2)
		case field == "driftTolerance":
			tol, err = s.readFloat()
		default:
			err = s.skipValue(1)
		}
		if err != nil {
			return nil, false, 0, err
		}
		d, err := s.delim(',', '}')
		if err != nil {
			return nil, false, 0, err
		}
		if d == '}' {
			return op, hasEnv, tol, s.trailingCheck()
		}
	}
}

// scanBinaryBatch walks concatenated matrix frames, one environment each.
func scanBinaryBatch(body []byte, p *envPayload, fn func(itemErr error)) error {
	for off := 0; off < len(body); {
		p.reset()
		n, err := p.parseBinaryFrame(body[off:])
		if err != nil {
			return err
		}
		fn(p.finalize())
		off += n
	}
	return nil
}

// DecodeEnvContentKey decodes one environment request body — streaming JSON,
// or a binary frame when contentType is wire.ContentTypeMatrix — and returns
// its content key, exercising exactly the pooled ingestion path the handlers
// run. Exported for the decode micro-benchmarks (hcbench -wirebench).
func DecodeEnvContentKey(body []byte, contentType string) (etcmat.ContentKey, error) {
	p := acquirePayload()
	defer releasePayload(p)
	var err error
	if contentType == wire.ContentTypeMatrix {
		err = p.parseBinaryEnv(body)
	} else {
		err = p.parseJSONEnv(body)
	}
	if err != nil {
		return etcmat.ContentKey{}, err
	}
	return p.key, nil
}
