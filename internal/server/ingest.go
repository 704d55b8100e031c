package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"surge"
	"surge/client"
)

// handleIngest streams an NDJSON (default) or CSV batch into the detector.
// The body is parsed here, concurrently with other ingesters — the hot
// path — and applied in BatchSize chunks on the event loop, so every chunk
// is one PushBatch synchronisation of the sharded pipeline.
//
// The parse is allocation-free in the steady state: lines are scanned as
// byte slices out of the reader's buffer, fields are decoded in place
// (parseObjectJSON / the CSV field walk) and the chunk buffer is recycled
// across requests, so per-request heap traffic is bounded by the handful of
// event-loop submissions, not by the object count.
//
// An optional Ingest-Seq header ("source:sequence") makes the request
// idempotent: the server applies each (source, sequence) at most once, a
// retry of an applied sequence replays the original ack, and a retry of a
// partially applied one (the ack was lost mid-request) resumes at the
// first unapplied chunk — chunking is deterministic from the body and the
// batch size, so the resume point is exact. Sequences must grow
// monotonically per source.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	parse := parseNDJSON
	if ct := r.Header.Get("Content-Type"); strings.Contains(ct, "csv") {
		parse = parseCSV
	}
	var (
		seqSrc string
		seqNum uint64
		seqSt  *sourceSeq
		skip   uint32 // chunks of this sequence already applied (resume)
	)
	if h := r.Header.Get("Ingest-Seq"); h != "" {
		src, num, err := parseIngestSeq(h)
		if err != nil {
			writeError(w, http.StatusBadRequest, err, 0)
			return
		}
		st, sk, replay, err := s.claimSeq(src, num)
		if err != nil {
			s.ingestErr.Add(1)
			code := client.CodeSeqOutOfOrder
			if errors.Is(err, errSeqConflict) {
				code = client.CodeSeqConflict
			}
			writeErrorCode(w, http.StatusConflict, code, 0, err, 0)
			return
		}
		if replay != nil {
			writeJSON(w, *replay)
			return
		}
		seqSrc, seqNum, seqSt, skip = src, num, st, sk
		defer s.releaseSeq(st)
	}
	var (
		accepted, clamped int
		chunkIdx          uint32
		final             surge.Result
		ackTotal          time.Duration
		reqStart          = time.Now()
	)
	apply := func(chunk []surge.Object) error {
		idx := chunkIdx
		chunkIdx++
		if idx < skip {
			// Applied before the lost ack; the dedupe state holds its counts.
			return nil
		}
		if s.degraded.Load() {
			// Durability lost: shed before queueing (one atomic load on the
			// healthy fast path). applyLogged re-checks on the loop, so a
			// fault landing between here and the apply still never acks.
			s.shedDegraded.Add(1)
			return errDegraded
		}
		if s.maxPending > 0 && s.pendingChunks.Add(1) > s.maxPending {
			s.pendingChunks.Add(-1)
			s.throttled.Add(1)
			return errOverloaded
		}
		var res surge.Result
		var c int
		var aerr error
		t0 := time.Now()
		err := s.do(func() {
			res, c, aerr = s.applyLogged(chunk, seqSrc, seqNum, idx, ingestBatch)
			if aerr == nil && seqSt != nil {
				// Fold the dedupe update on the loop, in the same closure as
				// the apply (boot replay does the same): a durable checkpoint
				// captures its WAL position on the loop, so the dedupe table
				// it later snapshots can never be behind that position.
				s.noteSeqApplied(seqSrc, seqNum, idx, len(chunk), c, res)
			}
		})
		if s.maxPending > 0 {
			s.pendingChunks.Add(-1)
		}
		if err != nil {
			return err
		}
		d := time.Since(t0)
		ackTotal += d
		s.mAck.Observe(d)
		if aerr != nil {
			return aerr
		}
		final = res
		accepted += len(chunk)
		clamped += c
		return nil
	}

	// Objects are validated before a chunk is submitted and the loop decides
	// each chunk's time order whole (applyLogged), so a chunk is applied in
	// full or not at all, keeping the reported Accepted count exact.
	chunk := s.getChunk()
	defer s.putChunk(chunk)
	err := parse(r.Body, func(o surge.Object) error {
		if err := validateObject(o); err != nil {
			return err
		}
		*chunk = append(*chunk, o)
		if len(*chunk) >= s.batch {
			if err := apply(*chunk); err != nil {
				return err
			}
			*chunk = (*chunk)[:0]
		}
		return nil
	})
	if err == nil && len(*chunk) > 0 {
		err = apply(*chunk)
	}
	// Parse cost is the request time the handler spent outside the event
	// loop: scanning, decoding and validation.
	s.mParse.Observe(time.Since(reqStart) - ackTotal)
	if err != nil {
		s.ingestErr.Add(1)
		status := http.StatusBadRequest
		code := ""
		retryAfter := 0
		switch {
		case errors.Is(err, ErrClosed):
			status = http.StatusServiceUnavailable
		case errors.Is(err, errOverloaded):
			status = http.StatusTooManyRequests
			code = client.CodeOverloaded
			retryAfter = overloadRetryAfterSec
		case errors.Is(err, errDegraded):
			status = http.StatusServiceUnavailable
			code = client.CodeDurabilityDegraded
			retryAfter = degradedRetryAfterSec
		case errors.Is(err, errPipeline):
			status = http.StatusInternalServerError
		}
		writeErrorCode(w, status, code, retryAfter, err, accepted)
		return
	}
	out := client.IngestResult{
		Accepted: accepted,
		Clamped:  clamped,
		Result:   client.FromResult(final),
	}
	if seqSt != nil {
		// The ack must be the one a crash-free run would have sent — and the
		// one a duplicate retry replays — so report the sequence's cumulative
		// state, which includes chunks applied before a lost ack.
		out = s.finishSeq(seqSt)
	}
	writeJSON(w, out)
}

// overloadRetryAfterSec is the backoff hint sent with a 429: the loop
// drains hundreds of chunks per second even under load, so one second is
// enough for the watermark to clear.
const overloadRetryAfterSec = 1

// errOverloaded marks a chunk shed by admission control.
var errOverloaded = errors.New("server: ingest queue full, retry later")

// errSeqOutOfOrder and errSeqConflict are the Ingest-Seq rejections; both
// map to 409 with their client.Code* counterparts.
var (
	errSeqOutOfOrder = errors.New("server: ingest sequence is older than the newest one seen from this source")
	errSeqConflict   = errors.New("server: another request from this source is in flight")
)

// parseIngestSeq parses an Ingest-Seq header: "source:sequence" with a
// non-empty source (at most 128 bytes; colons allowed — the split is at
// the last one) and a decimal sequence >= 1.
func parseIngestSeq(h string) (string, uint64, error) {
	i := strings.LastIndexByte(h, ':')
	if i <= 0 || i == len(h)-1 {
		return "", 0, fmt.Errorf("server: malformed Ingest-Seq %q (want source:sequence)", h)
	}
	src := h[:i]
	if len(src) > 128 {
		return "", 0, fmt.Errorf("server: Ingest-Seq source exceeds 128 bytes")
	}
	seq, err := strconv.ParseUint(h[i+1:], 10, 64)
	if err != nil || seq == 0 {
		return "", 0, fmt.Errorf("server: invalid Ingest-Seq sequence %q (want a decimal >= 1)", h[i+1:])
	}
	return src, seq, nil
}

// claimSeq admits an Ingest-Seq'd request against the per-source dedupe
// state: reject stale sequences and concurrent requests for the same
// source, replay the stored ack for a completed duplicate, and otherwise
// mark the source in flight and return how many chunks of this sequence
// are already applied (the resume point after a lost ack).
func (s *Server) claimSeq(src string, seq uint64) (st *sourceSeq, skip uint32, replay *client.IngestResult, err error) {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	st = s.seqs[src]
	if st == nil {
		st = &sourceSeq{}
		s.seqs[src] = st
	}
	if st.active {
		return nil, 0, nil, errSeqConflict
	}
	if seq < st.seq {
		return nil, 0, nil, fmt.Errorf("%w (got %d, newest %d)", errSeqOutOfOrder, seq, st.seq)
	}
	if seq == st.seq {
		if st.done {
			return nil, 0, &client.IngestResult{
				Accepted: st.accepted,
				Clamped:  st.clamped,
				Result:   client.FromResult(st.result),
			}, nil
		}
		skip = st.chunks
	} else {
		*st = sourceSeq{seq: seq}
	}
	st.active = true
	return st, skip, nil, nil
}

// releaseSeq clears the in-flight flag when the request finishes.
func (s *Server) releaseSeq(st *sourceSeq) {
	s.seqMu.Lock()
	st.active = false
	s.seqMu.Unlock()
}

// finishSeq marks the sequence fully applied and returns its cumulative
// ack — the reply now, and the one replayed for any later duplicate.
func (s *Server) finishSeq(st *sourceSeq) client.IngestResult {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	st.done = true
	return client.IngestResult{
		Accepted: st.accepted,
		Clamped:  st.clamped,
		Result:   client.FromResult(st.result),
	}
}

// validateObject mirrors the window engine's own object validation so a
// bad object is rejected before its chunk is submitted, never mid-batch.
func validateObject(o surge.Object) error {
	if math.IsNaN(o.X) || math.IsInf(o.X, 0) || math.IsNaN(o.Y) || math.IsInf(o.Y, 0) {
		return fmt.Errorf("server: object has non-finite location (%v, %v)", o.X, o.Y)
	}
	if math.IsNaN(o.Time) || math.IsInf(o.Time, 0) {
		return fmt.Errorf("server: object has non-finite time %v", o.Time)
	}
	if !(o.Weight >= 0) || math.IsInf(o.Weight, 0) {
		return fmt.Errorf("server: object weight %v must be finite and non-negative", o.Weight)
	}
	return nil
}

// maxLineBytes caps a single ingest line; the scanners reject longer lines
// with a line-numbered error instead of bufio's bare "token too long".
const maxLineBytes = 1 << 20

// newLineScanner returns a line scanner whose Bytes() views slice into the
// scanner's own buffer — no per-line copy.
func newLineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	return sc
}

// scanErr maps the scanner's terminal error; line is the last line that
// scanned successfully, so the offending line is the next one.
func scanErr(sc *bufio.Scanner, line int) error {
	err := sc.Err()
	if errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("server: ingest line %d exceeds the %d-byte line limit — send one object per line and split oversized batches: %w",
			line+1, maxLineBytes, err)
	}
	return err
}

// bstr reinterprets b as a string without copying, to feed byte-slice
// fields to strconv.ParseFloat allocation-free. The result aliases b: it
// must not be retained past the next scanner advance. ParseFloat itself
// does not keep it; the *NumError it returns on failure does, which is safe
// here because parsing stops (no further scans) as soon as an error
// surfaces.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// parseNDJSON streams objects from newline-delimited JSON.
func parseNDJSON(r io.Reader, emit func(surge.Object) error) error {
	sc := newLineScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		o, err := parseObjectJSON(text)
		if err != nil {
			return fmt.Errorf("server: ingest line %d: %w", line, err)
		}
		if err := emit(o); err != nil {
			return err
		}
	}
	return scanErr(sc, line)
}

// wireObject decodes one NDJSON ingest line on the reflective slow path;
// pointer fields distinguish missing from zero (weight defaults to 1,
// time/x/y are required).
type wireObject struct {
	Time   *float64 `json:"time"`
	X      *float64 `json:"x"`
	Y      *float64 `json:"y"`
	Weight *float64 `json:"weight"`
}

// errSlowJSON routes a line from the fast scanner to encoding/json.
var errSlowJSON = errors.New("ingest: json slow path")

var errMissingFields = errors.New("time, x and y are required")

// parseObjectJSON decodes one {"time","x","y","weight"} line. The fast path
// is a hand-rolled, allocation-free scanner for the flat wire schema; any
// line outside that shape (escaped or unknown keys, non-number values,
// trailing data) falls back to encoding/json, so the set of accepted lines
// — and the error text for rejected ones — matches the reflective decoder.
func parseObjectJSON(b []byte) (surge.Object, error) {
	o, err := fastObjectJSON(b)
	if err == errSlowJSON {
		return slowObjectJSON(b)
	}
	return o, err
}

func slowObjectJSON(b []byte) (surge.Object, error) {
	var wo wireObject
	if err := json.Unmarshal(b, &wo); err != nil {
		return surge.Object{}, err
	}
	if wo.Time == nil || wo.X == nil || wo.Y == nil {
		return surge.Object{}, errMissingFields
	}
	o := surge.Object{Time: *wo.Time, X: *wo.X, Y: *wo.Y, Weight: 1}
	if wo.Weight != nil {
		o.Weight = *wo.Weight
	}
	return o, nil
}

// Field bits of the fast JSON scanner.
const (
	haveTime = 1 << iota
	haveX
	haveY
	haveWeight
)

func fastObjectJSON(b []byte) (surge.Object, error) {
	i := skipWS(b, 0)
	if i >= len(b) || b[i] != '{' {
		return surge.Object{}, errSlowJSON
	}
	i = skipWS(b, i+1)
	o := surge.Object{Weight: 1}
	have := 0
	if i < len(b) && b[i] == '}' {
		i++
	} else {
		for {
			key, j, ok := scanPlainKey(b, i)
			if !ok {
				return surge.Object{}, errSlowJSON
			}
			var field int
			switch {
			case bytes.Equal(key, keyTime):
				field = haveTime
			case bytes.Equal(key, keyX):
				field = haveX
			case bytes.Equal(key, keyY):
				field = haveY
			case bytes.Equal(key, keyWeight):
				field = haveWeight
			default:
				// Unknown key: its value can be any JSON; let the
				// reflective decoder handle (and ignore) it.
				return surge.Object{}, errSlowJSON
			}
			j = skipWS(b, j)
			if j >= len(b) || b[j] != ':' {
				return surge.Object{}, errSlowJSON
			}
			j = skipWS(b, j+1)
			if isNull(b, j) {
				// JSON null resets a pointer field to nil: the field counts
				// as missing again (last value wins, like encoding/json).
				j += 4
				have &^= field
				if field == haveWeight {
					o.Weight = 1
				}
			} else {
				num, k, ok := scanNumber(b, j)
				if !ok {
					return surge.Object{}, errSlowJSON
				}
				v, err := strconv.ParseFloat(bstr(num), 64)
				if err != nil {
					return surge.Object{}, errSlowJSON // e.g. out of range
				}
				j = k
				have |= field
				switch field {
				case haveTime:
					o.Time = v
				case haveX:
					o.X = v
				case haveY:
					o.Y = v
				case haveWeight:
					o.Weight = v
				}
			}
			j = skipWS(b, j)
			if j >= len(b) {
				return surge.Object{}, errSlowJSON
			}
			if b[j] == '}' {
				i = j + 1
				break
			}
			if b[j] != ',' {
				return surge.Object{}, errSlowJSON
			}
			i = skipWS(b, j+1)
		}
	}
	if skipWS(b, i) != len(b) {
		return surge.Object{}, errSlowJSON // trailing data
	}
	if have&(haveTime|haveX|haveY) != haveTime|haveX|haveY {
		return surge.Object{}, errMissingFields
	}
	return o, nil
}

var (
	keyTime   = []byte("time")
	keyX      = []byte("x")
	keyY      = []byte("y")
	keyWeight = []byte("weight")
)

func skipWS(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return i
		}
	}
	return i
}

// scanPlainKey scans a double-quoted key with no escapes starting at i and
// returns the key bytes and the index past the closing quote. Keys with
// backslashes take the slow path.
func scanPlainKey(b []byte, i int) ([]byte, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	j := bytes.IndexByte(b[i+1:], '"')
	if j < 0 {
		return nil, 0, false
	}
	key := b[i+1 : i+1+j]
	if bytes.IndexByte(key, '\\') >= 0 {
		return nil, 0, false
	}
	return key, i + j + 2, true
}

func isNull(b []byte, i int) bool {
	return i+4 <= len(b) && b[i] == 'n' && b[i+1] == 'u' && b[i+2] == 'l' && b[i+3] == 'l'
}

// scanNumber scans a JSON number (RFC 8259 shape: -?int frac? exp?) at i
// and returns its bytes and the index past it. The shape check keeps the
// fast path exactly as strict as encoding/json — strconv alone would also
// accept "+1", "Inf", hex floats and other non-JSON spellings.
func scanNumber(b []byte, i int) ([]byte, int, bool) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	default:
		return nil, 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		if i == j {
			return nil, 0, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		if i == j {
			return nil, 0, false
		}
	}
	return b[start:i], i, true
}

// parseCSV streams objects from "time,x,y,weight" lines — the same format
// surged reads offline, so a recorded stream replays into the server
// unchanged. Blank lines and '#' comments are skipped.
func parseCSV(r io.Reader, emit func(surge.Object) error) error {
	sc := newLineScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		var vals [4]float64
		rest := text
		for i := 0; i < 4; i++ {
			var field []byte
			j := bytes.IndexByte(rest, ',')
			if i < 3 {
				if j < 0 {
					return fmt.Errorf("server: ingest line %d: want time,x,y,weight", line)
				}
				field, rest = rest[:j], rest[j+1:]
			} else {
				if j >= 0 {
					return fmt.Errorf("server: ingest line %d: want time,x,y,weight", line)
				}
				field = rest
			}
			v, err := strconv.ParseFloat(bstr(bytes.TrimSpace(field)), 64)
			if err != nil {
				return fmt.Errorf("server: ingest line %d field %d: %w", line, i+1, err)
			}
			vals[i] = v
		}
		if err := emit(surge.Object{Time: vals[0], X: vals[1], Y: vals[2], Weight: vals[3]}); err != nil {
			return err
		}
	}
	return scanErr(sc, line)
}

// readBody reads a request body up to limit bytes, erroring beyond it.
func readBody(r *http.Request, limit int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return nil, fmt.Errorf("server: reading body: %w", err)
	}
	if int64(len(data)) > limit {
		return nil, fmt.Errorf("server: body exceeds %d bytes", limit)
	}
	return data, nil
}
