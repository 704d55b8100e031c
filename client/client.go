package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"surge"
)

// NDJSON and CSV are the ingest content types the server accepts.
const (
	NDJSON = "application/x-ndjson"
	CSV    = "text/csv"
)

// Client talks to one surged serve instance. The zero value is not usable;
// use New. Client is safe for concurrent use.
type Client struct {
	base  string
	hc    *http.Client
	retry *RetryPolicy // nil: no automatic retries
}

// Option customises a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying HTTP client (e.g. to set
// timeouts for the unary calls; Subscribe streams indefinitely, so a
// global client timeout would kill subscriptions).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New returns a client for the server at base, e.g. "http://localhost:7077".
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// EncodeNDJSON writes the objects as NDJSON ingest lines.
func EncodeNDJSON(w io.Writer, objs []surge.Object) error {
	enc := json.NewEncoder(w)
	for _, o := range objs {
		if err := enc.Encode(FromObject(o)); err != nil {
			return err
		}
	}
	return nil
}

// Ingest streams a time-ordered batch of objects to the server as NDJSON
// and returns the server's ingest summary.
func (c *Client) Ingest(ctx context.Context, objs []surge.Object) (*IngestResult, error) {
	var buf bytes.Buffer
	if err := EncodeNDJSON(&buf, objs); err != nil {
		return nil, err
	}
	return c.IngestStream(ctx, &buf, NDJSON)
}

// IngestStream streams an ingest body (NDJSON or CSV per contentType)
// without buffering it in memory.
func (c *Client) IngestStream(ctx context.Context, body io.Reader, contentType string) (*IngestResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/ingest", body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	var out IngestResult
	if err := c.doJSON(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// IngestSeq ingests a batch idempotently: the request carries an
// Ingest-Seq header of "source:seq", the server applies each (source, seq)
// pair at most once, and a retry of an already-applied sequence replays
// the original ack instead of re-applying the data. Sequences must be
// assigned monotonically (1, 2, 3, ...) per source; a stale seq fails with
// ErrSeqOutOfOrder. Combined with WithRetry, delivery is effectively-once.
func (c *Client) IngestSeq(ctx context.Context, source string, seq uint64, objs []surge.Object) (*IngestResult, error) {
	var buf bytes.Buffer
	if err := EncodeNDJSON(&buf, objs); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/ingest", bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", NDJSON)
	req.Header.Set("Ingest-Seq", source+":"+strconv.FormatUint(seq, 10))
	var out IngestResult
	if err := c.doJSON(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Best returns the current bursty region and stream clock.
func (c *Client) Best(ctx context.Context) (*State, error) {
	var out State
	if err := c.getJSON(ctx, "/v1/best", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TopK returns the greedy top-k bursty regions over the live windows,
// served O(1) as a prefix of the server's continuously maintained answer.
// k <= 0 asks for the maintained k; a k above it is rejected (400).
func (c *Client) TopK(ctx context.Context, k int) (*TopK, error) {
	var out TopK
	if err := c.getJSON(ctx, topkPath("/v1/topk", k), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// topkPath appends the k query parameter to a topk endpoint path.
func topkPath(path string, k int) string {
	if k > 0 {
		path += "?k=" + strconv.Itoa(k)
	}
	return path
}

// Snapshot returns a detector checkpoint (see surge.Restore).
func (c *Client) Snapshot(ctx context.Context) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/snapshot", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Restore replaces the server's detector with the state of a checkpoint
// (restored into the server's configured shard count) and returns the new
// state.
func (c *Client) Restore(ctx context.Context, checkpoint []byte) (*State, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/restore", bytes.NewReader(checkpoint))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	var out State
	if err := c.doJSON(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats returns the server's typed telemetry snapshot: latency histograms
// for every pipeline stage, pipeline counters and Go runtime health. The
// endpoint is served lock-free, so it answers even when the server's event
// loop is stalled.
func (c *Client) Stats(ctx context.Context) (*StatsSnapshot, error) {
	var out StatsSnapshot
	if err := c.getJSON(ctx, "/v1/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health returns the server's health summary.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var out Health
	if err := c.getJSON(ctx, "/healthz", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Metrics returns the raw Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.doJSON(req, out)
}

func (c *Client) doJSON(req *http.Request, out any) error {
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeError turns a non-2xx reply into an *Error when the body carries
// the JSON error schema, or a plain error otherwise. The HTTP status and
// any Retry-After header are folded into the *Error so callers get the
// whole failure from one value.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var e Error
	if err := json.Unmarshal(body, &e); err == nil && e.Err != "" {
		e.Status = resp.StatusCode
		if e.RetryAfterSec == 0 {
			if d, ok := parseRetryAfter(resp.Header.Get("Retry-After")); ok {
				e.RetryAfterSec = d.Seconds()
			}
		}
		return &e
	}
	return fmt.Errorf("client: %s: %s", resp.Status, strings.TrimSpace(string(body)))
}
