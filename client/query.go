package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
)

// Queries lists the server's query registry (GET /v1/queries) in creation
// order. A single-query server answers with just its default query.
func (c *Client) Queries(ctx context.Context) (*QueryList, error) {
	var out QueryList
	if err := c.getJSON(ctx, "/v1/queries", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CreateQuery registers a new named query (POST /v1/queries) and returns
// its resolved configuration. The new query starts answering from the next
// ingested batch; it does not see the stream's past. Creating an id that
// already exists fails with a 409.
func (c *Client) CreateQuery(ctx context.Context, cfg QueryConfig) (*QueryInfo, error) {
	body, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/queries", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var out QueryInfo
	if err := c.doJSON(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Query returns a handle scoped to one named query: the same read surface
// as the Client (Best, TopK, Stats, Snapshot, Restore, Subscribe) routed
// through /v1/queries/{id}/. Ingest stays on the Client — the stream is
// shared, every query sees every object. The handle performs no I/O until a
// method is called; addressing an id that does not exist fails with
// ErrUnknownQuery.
func (c *Client) Query(id string) *Query {
	return &Query{c: c, id: id, path: "/v1/queries/" + url.PathEscape(id)}
}

// Query is a client handle scoped to one named query. Safe for concurrent
// use, like the Client it came from.
type Query struct {
	c    *Client
	id   string
	path string
}

// ID returns the query id this handle addresses.
func (q *Query) ID() string { return q.id }

// Info returns the query's registry entry (GET /v1/queries/{id}).
func (q *Query) Info(ctx context.Context) (*QueryInfo, error) {
	var out QueryInfo
	if err := q.c.getJSON(ctx, q.path, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Delete removes the query from the registry (DELETE /v1/queries/{id}).
// Its subscribers are disconnected and later requests for the id fail with
// ErrUnknownQuery. Deleting the default query is rejected.
func (q *Query) Delete(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, q.c.base+q.path, nil)
	if err != nil {
		return err
	}
	resp, err := q.c.do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return decodeError(resp)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

// Best returns the query's current bursty region and stream clock.
func (q *Query) Best(ctx context.Context) (*State, error) {
	var out State
	if err := q.c.getJSON(ctx, q.path+"/best", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TopK returns the query's top-k bursty regions (see Client.TopK).
func (q *Query) TopK(ctx context.Context, k int) (*TopK, error) {
	var out TopK
	if err := q.c.getJSON(ctx, topkPath(q.path+"/topk", k), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats returns the query's telemetry block, served lock-free.
func (q *Query) Stats(ctx context.Context) (*QueryStats, error) {
	var out QueryStats
	if err := q.c.getJSON(ctx, q.path+"/stats", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Snapshot returns a detector checkpoint of this query's engine state.
func (q *Query) Snapshot(ctx context.Context) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, q.c.base+q.path+"/snapshot", nil)
	if err != nil {
		return nil, err
	}
	resp, err := q.c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Restore replaces this query's engine state with a checkpoint and returns
// the query's new state. Other queries are untouched.
func (q *Query) Restore(ctx context.Context, checkpoint []byte) (*State, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, q.c.base+q.path+"/restore", bytes.NewReader(checkpoint))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	var out State
	if err := q.c.doJSON(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Subscribe opens the query's notification stream (see Client.Subscribe).
// Each query has its own event feed with its own event ids and exact
// per-subscriber drop accounting.
func (q *Query) Subscribe(ctx context.Context) (*Subscription, error) {
	return q.c.subscribe(ctx, q.path+"/subscribe", "")
}

// SubscribeFromCursor resumes the query's notification stream from a Cursor
// of a previous subscription to the same query (see
// Client.SubscribeFromCursor).
func (q *Query) SubscribeFromCursor(ctx context.Context, cursor string) (*Subscription, error) {
	if cursor != "" {
		if _, _, err := parseCursor(cursor); err != nil {
			return nil, err
		}
	}
	return q.c.subscribe(ctx, q.path+"/subscribe", cursor)
}
