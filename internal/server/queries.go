package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"surge/client"
)

// errUnknownQuery marks a request addressing a query id the registry does
// not hold (never created, or deleted); rendered as a 404 with code
// "unknown_query".
var errUnknownQuery = errors.New("server: unknown query")

// errQueryExists marks a create for an id already in the registry (409).
var errQueryExists = errors.New("server: query already exists")

// errDefaultQuery rejects deleting the default query.
var errDefaultQuery = errors.New("server: the default query cannot be deleted")

// CreateQuery registers a new named query. The engine is built off the
// event loop (an expensive configuration never stalls ingest); only the
// registry insert synchronises. The query starts answering from the next
// ingested batch — it does not see the stream's past.
//
// On a durable server the registry checkpoint is written synchronously
// before the create returns, so an acknowledged query survives kill -9; if
// the checkpoint cannot be written the create is rolled back and fails.
func (s *Server) CreateQuery(qc client.QueryConfig) (*client.QueryInfo, error) {
	if !validQueryID(qc.ID) {
		return nil, fmt.Errorf("server: invalid query id %q (want 1-64 chars of [a-zA-Z0-9._-])", qc.ID)
	}
	if qc.ID == DefaultQueryID {
		return nil, fmt.Errorf("%w: %q", errQueryExists, qc.ID)
	}
	tc, err := resolveQuery(s.cfg, qc)
	if err != nil {
		return nil, err
	}
	sl, err := s.buildSlot(tc, nil)
	if err != nil {
		return nil, err
	}
	var t *tenant
	exists := false
	derr := s.do(func() {
		if _, ok := s.tenants[qc.ID]; ok {
			exists = true
			return
		}
		sl.worker = s.nextWorker
		s.nextWorker++
		t = s.newTenant(qc.ID, tc, sl)
		s.tenMu.Lock()
		s.tenants[qc.ID] = t
		s.order = append(s.order, t)
		s.tenMu.Unlock()
		s.rebuildSlots()
	})
	if derr != nil {
		sl.close()
		return nil, derr
	}
	if exists {
		sl.close()
		return nil, fmt.Errorf("%w: %q", errQueryExists, qc.ID)
	}
	if s.wal != nil {
		if cerr := s.checkpointDurable(); cerr != nil {
			// The query must not be observable without a durable record of it:
			// a crash would otherwise boot without the id the caller was told
			// exists. Roll back and fail the create.
			s.removeTenant(t)
			return nil, fmt.Errorf("server: query %q rolled back, durable checkpoint failed: %w", qc.ID, cerr)
		}
	}
	s.log.Info("query created", "query", qc.ID,
		"algorithm", tc.Algorithm.String(), "topk", tc.TopK,
		"shared", sl.refs.Load() > 1)
	info := s.queryInfo(t)
	return &info, nil
}

// DeleteQuery removes a named query from the registry: its subscribers
// disconnect, its engine state is released (unless shared), and later
// requests for the id fail with 404 "unknown_query". Deleting the default
// query is rejected.
func (s *Server) DeleteQuery(id string) error {
	if id == DefaultQueryID {
		return errDefaultQuery
	}
	s.tenMu.RLock()
	t := s.tenants[id]
	s.tenMu.RUnlock()
	if t == nil {
		return fmt.Errorf("%w: %q", errUnknownQuery, id)
	}
	if err := s.removeTenant(t); err != nil {
		return err
	}
	if s.wal != nil {
		if cerr := s.checkpointDurable(); cerr != nil {
			// Best-effort: the delete stands, but until the next successful
			// checkpoint a crash resurrects the id at boot (desired-state
			// recovery; delete it again).
			s.log.Warn("query deleted but durable checkpoint failed; a crash before the next checkpoint resurrects it",
				"query", id, "err", cerr)
		}
	}
	s.log.Info("query deleted", "query", id)
	return nil
}

// removeTenant unbinds a tenant on the event loop: mark it dead, drop it
// from the registry, disconnect its subscribers, and release its slot when
// it was the last reference. Idempotent per tenant.
func (s *Server) removeTenant(t *tenant) error {
	var closeSlot *engineSlot
	gone := false
	derr := s.do(func() {
		if t.dead {
			gone = true
			return
		}
		t.dead = true
		s.tenMu.Lock()
		delete(s.tenants, t.id)
		for i, x := range s.order {
			if x == t {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.tenMu.Unlock()
		sl := t.slot.Load()
		if sl.refs.Add(-1) == 0 {
			closeSlot = sl
		}
		s.rebuildSlots()
		close(t.gone)
	})
	if derr != nil {
		return derr
	}
	if gone {
		return fmt.Errorf("%w: %q", errUnknownQuery, t.id)
	}
	if closeSlot != nil {
		closeSlot.close()
	}
	return nil
}

// queryInfo assembles one registry entry's wire description, lock-free:
// the chain's immutable options and the query's view.
func (s *Server) queryInfo(t *tenant) client.QueryInfo {
	sl := t.slot.Load()
	v := t.view.Load()
	o := sl.det.Options()
	return client.QueryInfo{
		QueryConfig: client.QueryConfig{
			ID:             t.id,
			Algorithm:      t.cfg.Algorithm.String(),
			Width:          o.Width,
			Height:         o.Height,
			Window:         o.Window,
			PastWindow:     o.PastWindow,
			Alpha:          o.Alpha,
			TopK:           t.cfg.TopK,
			Shards:         v.state.Shards,
			ShardBlockCols: t.cfg.Options.ShardBlockCols,
		},
		Default:     t.isDefault,
		Continuous:  true,
		Shared:      sl.refs.Load() > 1,
		Now:         v.state.Now,
		Live:        v.state.Live,
		Subscribers: t.hub.count(),
		Result:      v.state.Result,
	}
}

func (s *Server) handleQueryList(w http.ResponseWriter, r *http.Request) {
	tenants := s.tenantList()
	out := client.QueryList{Queries: make([]client.QueryInfo, 0, len(tenants))}
	for _, t := range tenants {
		out.Queries = append(out.Queries, s.queryInfo(t))
	}
	writeJSON(w, out)
}

func (s *Server) handleQueryCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<10))
	if err != nil {
		writeError(w, http.StatusBadRequest, err, 0)
		return
	}
	var qc client.QueryConfig
	if err := json.Unmarshal(body, &qc); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: bad query config: %w", err), 0)
		return
	}
	info, err := s.CreateQuery(qc)
	if err != nil {
		switch {
		case errors.Is(err, errQueryExists):
			writeError(w, http.StatusConflict, err, 0)
		case errors.Is(err, ErrClosed):
			writeError(w, http.StatusServiceUnavailable, err, 0)
		default:
			writeError(w, http.StatusBadRequest, err, 0)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(info)
}

func (s *Server) handleQueryInfo(t *tenant, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.queryInfo(t))
}

func (s *Server) handleQueryDelete(t *tenant, w http.ResponseWriter, r *http.Request) {
	if err := s.DeleteQuery(t.id); err != nil {
		switch {
		case errors.Is(err, errDefaultQuery):
			writeError(w, http.StatusBadRequest, err, 0)
		case errors.Is(err, errUnknownQuery):
			writeErrorCode(w, http.StatusNotFound, client.CodeUnknownQuery, 0, err, 0)
		case errors.Is(err, ErrClosed):
			writeError(w, http.StatusServiceUnavailable, err, 0)
		default:
			writeError(w, http.StatusInternalServerError, err, 0)
		}
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
