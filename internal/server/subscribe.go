package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"surge/client"
	"surge/internal/obs"
)

// keepAliveInterval paces the SSE comment lines that keep idle
// subscriptions from being reaped by proxies and detect dead peers.
const keepAliveInterval = 15 * time.Second

// frame is one published SSE event — a "burst" notification or a "topk"
// notification — tagged with the stream-wide event id (the SSE id field).
// Event ids are assigned sequentially across both kinds, so a reconnecting
// subscriber's Last-Event-ID identifies an exact position in the stream.
type frame struct {
	eid   uint64
	topk  bool
	burst client.Notification
	tk    client.TopKNotification
	// pub is when the event loop published the frame; the subscriber
	// handler records publish->write delivery latency from it (ignored for
	// backlog replays, whose stamps describe a past delivery, not this one).
	pub time.Time
}

// dropped returns the frame's loss account.
func (f *frame) dropped() uint64 {
	if f.topk {
		return f.tk.Dropped
	}
	return f.burst.Dropped
}

// setDropped stamps the loss account carried to the subscriber.
func (f *frame) setDropped(d uint64) {
	if f.topk {
		f.tk.Dropped = d
	} else {
		f.burst.Dropped = d
	}
}

// write renders the frame as one SSE event under the given stream epoch.
func (f *frame) write(w io.Writer, epoch uint64) error {
	if f.topk {
		return writeEvent(w, "topk", epoch, f.eid, f.tk)
	}
	return writeEvent(w, "burst", epoch, f.eid, f.burst)
}

// subscriber is one open /v1/subscribe stream. The channel is written only
// by the event loop (under the hub lock); dropped accumulates the events
// lost to the slow-consumer policy since the last delivery and is written
// under the hub lock too.
type subscriber struct {
	ch      chan frame
	dropped uint64
}

// hub is the subscriber registry plus the bounded ring of recent frames
// that backs Last-Event-ID reconnects. Handlers add/remove under the lock;
// the event loop broadcasts under the lock, so a subscriber present during
// broadcast is guaranteed delivery or a Dropped account — never a silent
// gap — and a reconnect observes a consistent cut of the ring.
type hub struct {
	mu      sync.Mutex
	subs    map[*subscriber]struct{}
	ring    []frame // the newest min(newest, ringCap) frames, indexed by (eid-1) % ringCap
	ringCap int
	newest  uint64         // eid of the most recently published frame
	occ     *obs.Histogram // per-subscriber buffer occupancy at broadcast; nil in bare-hub tests
}

func (h *hub) add(sub *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.subs[sub] = struct{}{}
}

// tryAdd registers sub unless the hub already holds max subscribers
// (max <= 0 means unlimited). The check and the insert are one critical
// section, so concurrent connects cannot overshoot the quota.
func (h *hub) tryAdd(sub *subscriber, max int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if max > 0 && len(h.subs) >= max {
		return false
	}
	h.subs[sub] = struct{}{}
	return true
}

// addResuming registers a reconnecting subscriber and returns the frames it
// missed since lastID, oldest first, for the handler to replay before
// entering the live stream. Frames that have already left the ring are
// accounted on the first returned frame's Dropped field (or carried into
// the subscriber's loss account when nothing is left to replay), so the
// invariant "delivered count + sum of delivered Dropped = published count"
// holds across the reconnect.
func (h *hub) addResuming(sub *subscriber, lastID uint64) []frame {
	out, _ := h.tryAddResuming(sub, lastID, 0)
	return out
}

// tryAddResuming is addResuming under the same quota as tryAdd; when the
// quota rejects the subscriber no frames are replayed.
func (h *hub) tryAddResuming(sub *subscriber, lastID uint64, max int) ([]frame, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if max > 0 && len(h.subs) >= max {
		return nil, false
	}
	h.subs[sub] = struct{}{}
	if h.newest == 0 || lastID >= h.newest {
		return nil, true
	}
	oldest := uint64(1)
	if h.newest > uint64(len(h.ring)) {
		oldest = h.newest - uint64(len(h.ring)) + 1
	}
	from := lastID + 1
	var missed uint64
	if from < oldest {
		missed = oldest - from
		from = oldest
	}
	out := make([]frame, 0, h.newest-from+1)
	for eid := from; eid <= h.newest; eid++ {
		out = append(out, h.ring[(eid-1)%uint64(h.ringCap)])
	}
	if len(out) > 0 {
		out[0].setDropped(out[0].dropped() + missed)
	} else {
		sub.dropped = missed // cannot happen (missed > 0 implies frames remain); defensive
	}
	return out, true
}

func (h *hub) remove(sub *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, sub)
}

func (h *hub) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// broadcast records f in the reconnect ring and delivers it to every
// subscriber without ever blocking the event loop. A full subscriber loses
// its oldest buffered frame to make room for the newest one — the freshest
// answer is always deliverable — and the loss is surfaced on the next
// delivered frame's Dropped field. Returns the number of frames dropped
// across subscribers.
func (h *hub) broadcast(f frame) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.newest = f.eid
	if h.ringCap > 0 {
		if len(h.ring) < h.ringCap {
			h.ring = append(h.ring, f)
		} else {
			h.ring[(f.eid-1)%uint64(h.ringCap)] = f
		}
	}
	var lost uint64
	for sub := range h.subs {
		if h.occ != nil {
			h.occ.Record(uint64(len(sub.ch)))
		}
		if sub.trySend(f) {
			continue
		}
		// Full: evict the oldest (the only receiver is the subscriber's
		// handler, so draining one slot is enough room unless the handler
		// raced a receive — then the retry has room anyway). The evicted
		// frame's own Dropped account is reclaimed so the invariant
		// "delivered count + sum of delivered Dropped = published count"
		// holds however far a subscriber falls behind.
		select {
		case old := <-sub.ch:
			sub.dropped += old.dropped() + 1
			lost++
		default:
		}
		if !sub.trySend(f) {
			sub.dropped++ // cannot happen with a buffered channel; never block
			lost++
		}
	}
	return lost
}

// trySend attaches the accumulated loss count and delivers without
// blocking.
func (sub *subscriber) trySend(f frame) bool {
	f.setDropped(sub.dropped)
	select {
	case sub.ch <- f:
		sub.dropped = 0
		return true
	default:
		return false
	}
}

// handleSubscribe streams detection changes as Server-Sent Events: a
// "hello" event carrying the current State, then one "burst" event
// (Notification) per bursty-region change and — when the server maintains
// continuous top-k — one "topk" event (TopKNotification) per top-k change.
// The hello is the query's view, loaded after the subscriber is registered:
// a hello with Events = E reflects every event up to E, and the stream
// continues at exactly E+1 (modulo the accounted slow-consumer drops).
//
// A reconnecting subscriber that sends a Last-Event-ID header resumes the
// stream instead: the events it missed are replayed from a bounded ring
// (Config.NotifyRing) with their original ids, events evicted from the ring
// are counted in the first replayed event's Dropped field, and no hello is
// sent.
//
// Event ids carry the server's stream epoch ("epoch.eid"). A cursor whose
// epoch does not match this server — the process restarted, or the client
// moved between servers — cannot be resumed (the ring it points into is
// gone and eids restarted from 1), so the subscription degrades to a fresh
// one: a new hello resynchronises the client instead of replaying frames
// that happen to share the numeric id. Bare numeric cursors (pre-epoch
// clients) keep the legacy same-process resume semantics.
//
// Every query carries its own event stream: eids, the reconnect ring and
// the slow-consumer accounting are all per query, so one tenant's slow
// consumer can never displace another tenant's frames.
func (s *Server) handleSubscribe(t *tenant, w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("server: streaming unsupported"), 0)
		return
	}
	sub := &subscriber{ch: make(chan frame, s.subBuf)}
	lastEpoch, lastID, resume := lastEventID(r)
	if resume && lastEpoch != 0 && lastEpoch != s.epoch {
		resume = false // foreign-epoch cursor: resync with a fresh hello
	}
	var backlog []frame
	admitted := true
	if resume {
		backlog, admitted = t.hub.tryAddResuming(sub, lastID, s.queryMaxSubs)
	} else {
		admitted = t.hub.tryAdd(sub, s.queryMaxSubs)
	}
	if !admitted {
		writeErrorCode(w, http.StatusTooManyRequests, client.CodeQuotaExceeded, 0,
			fmt.Errorf("server: query %q is at its subscriber quota (%d)", t.id, s.queryMaxSubs), 0)
		return
	}
	defer t.hub.remove(sub)

	// The hello is the view loaded after joining the hub. publish stores a
	// view before broadcasting its frames, so every frame above the hello's
	// Events reaches sub.ch; the ones at or below it that did too are
	// skipped below, and the live stream starts at exactly Events+1.
	var st client.State
	if !resume {
		st = t.view.Load().state
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	if resume {
		for i := range backlog {
			if err := backlog[i].write(w, s.epoch); err != nil {
				return
			}
		}
	} else if err := writeEvent(w, "hello", s.epoch, st.Events, st); err != nil {
		return
	}
	fl.Flush()

	ticker := time.NewTicker(keepAliveInterval)
	defer ticker.Stop()
	ctx := r.Context()
	for {
		select {
		case f := <-sub.ch:
			if f.eid <= st.Events {
				continue // the hello covers it
			}
			if err := f.write(w, s.epoch); err != nil {
				return
			}
			fl.Flush()
			s.mSSEDeliver.Observe(time.Since(f.pub))
		case <-ticker.C:
			if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-ctx.Done():
			return
		case <-t.gone:
			return // query deleted: end the stream
		case <-s.quit:
			return
		}
	}
}

// lastEventID parses the SSE reconnect header: "epoch.eid" as stamped on
// every event this server emits, or a bare "eid" from a pre-epoch client
// (returned with epoch 0, meaning "same process assumed"). A malformed
// value is treated as a fresh subscription.
func lastEventID(r *http.Request) (epoch, id uint64, ok bool) {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		return 0, 0, false
	}
	if e, n, found := strings.Cut(v, "."); found {
		epoch, err := strconv.ParseUint(e, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		id, err := strconv.ParseUint(n, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		return epoch, id, true
	}
	id, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return 0, id, true
}

// writeEvent renders one SSE frame. The id field is "epoch.eid": eid orders
// events within one server process, epoch distinguishes processes so a
// cursor survives a restart (see handleSubscribe).
func writeEvent(w io.Writer, event string, epoch, id uint64, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\nid: %d.%d\ndata: %s\n\n", event, epoch, id, data)
	return err
}
