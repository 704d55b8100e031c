package server

import (
	"net/http"
	"time"

	"surge/client"
	"surge/internal/obs"
)

// handleStats serves the typed telemetry snapshot. Like /metrics it never
// round-trips the event loop: counters, the queries' views and histogram
// snapshots are all read lock-free, so the endpoint answers even when the
// loop is wedged — the views are then the last state the loop published,
// which is exactly what an operator debugging the wedge needs.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	dv := s.defTenant.view.Load().state
	st := client.StatsSnapshot{
		UptimeSec:        time.Since(s.start).Seconds(),
		LastIngestAgeSec: s.lastIngestAge(),
		LoopTickAgeSec:   ageSec(s.lastTickNano.Load()),
		Now:              dv.Now,
		Live:             dv.Live,
		Shards:           dv.Shards,

		Objects:       s.objects.Load(),
		Clamped:       s.clamped.Load(),
		Batches:       s.batches.Load(),
		IngestErrors:  s.ingestErr.Load(),
		Notifications: s.notifs.Load() + s.topkNotifs.Load(),
		Dropped:       s.dropped.Load(),
		TopKCommits:   obs.Default.Counter(obs.MTopKCommits, "").Value(),
		Subscribers:   s.subscriberCount(),

		IngestAck:     histSecs(s.mAck),
		IngestParse:   histSecs(s.mParse),
		IngestBatch:   histVals(s.mBatchObjs),
		LoopQueueWait: histSecs(s.mQueueWait),
		LoopApply:     histSecs(s.mApply),
		LoopLag:       histSecs(s.mLag),
		SSEDelivery:   histSecs(s.mSSEDeliver),
		SSEBuffer:     histVals(s.hubOcc),
		// The shard pipeline and top-k chain register these from
		// internal/shard; get-or-create hands back the same instances (or
		// empty ones on an unsharded server).
		ShardFlush:    histVals(obs.Default.Values(obs.MShardFlush, "")),
		TopKResolve:   histSecs(obs.Default.Duration(obs.MTopKResolve, "")),
		TopKSolveWait: histSecs(obs.Default.Duration(obs.MTopKSolveWait, "")),
		TopKShards:    histVals(obs.Default.Values(obs.MTopKShards, "")),

		Throttled: s.throttled.Load(),
	}
	tenants := s.tenantList()
	st.Queries = make([]client.QueryStats, 0, len(tenants))
	for _, t := range tenants {
		st.Queries = append(st.Queries, s.tenantStats(t))
	}
	if s.wal != nil {
		// Segment count and size come from the obs gauges the WAL mirrors on
		// every append, not from the log itself, keeping this endpoint free
		// of the WAL mutex (which an fsync can hold for milliseconds).
		st.WAL = &client.WALStats{
			SyncPolicy:       s.wal.log.Policy().String(),
			Frames:           obs.Default.Counter(obs.MWALFrames, "").Value(),
			AppendedBytes:    obs.Default.Counter(obs.MWALBytes, "").Value(),
			Segments:         int(obs.Default.Gauge(obs.MWALSegments, "").Value()),
			SizeBytes:        int64(obs.Default.Gauge(obs.MWALSize, "").Value()),
			LastSyncAgeSec:   s.wal.log.LastSyncAge(),
			Checkpoints:      s.ckpts.Load(),
			Append:           histSecs(obs.Default.Duration(obs.MWALAppend, "")),
			Fsync:            histSecs(obs.Default.Duration(obs.MWALFsync, "")),
			RecoveredBatches: s.wal.recBatches,
			RecoveredObjects: s.wal.recObjects,
			RecoverySec:      s.wal.recSec,
			TornBytes:        s.wal.torn,
			Durability:       s.durabilityString(),
			DegradedCount:    s.degradedCount.Load(),
			RepairedCount:    s.repairedCount.Load(),
			DegradedSec:      s.degradedSec(),
			CheckpointErrors: s.ckptErrs.Load(),
			ShedDegraded:     s.shedDegraded.Load(),
		}
	}
	rt := obs.ReadRuntime()
	st.Runtime = client.RuntimeStats{
		Goroutines:         rt.Goroutines,
		HeapBytes:          rt.HeapBytes,
		GCCycles:           rt.GCCycles,
		GCPauseP50Sec:      rt.GCPauseP50,
		GCPauseP99Sec:      rt.GCPauseP99,
		GCPauseMaxSec:      rt.GCPauseMax,
		SchedLatencyP50Sec: rt.SchedLatP50,
		SchedLatencyP99Sec: rt.SchedLatP99,
	}
	writeJSON(w, st)
}

// tenantStats assembles one query's telemetry block lock-free, from the
// tenant's counters and its view.
func (s *Server) tenantStats(t *tenant) client.QueryStats {
	v := t.view.Load()
	return client.QueryStats{
		ID:         t.id,
		Algorithm:  t.cfg.Algorithm.String(),
		TopK:       t.cfg.TopK,
		Continuous: true,
		Shards:     v.state.Shards,
		Now:        v.state.Now,
		Live:       v.state.Live,
		Result:     v.state.Result,

		Notifications:     t.notifs.Load(),
		TopKNotifications: t.topkNotifs.Load(),
		Dropped:           t.dropped.Load(),
		Subscribers:       t.hub.count(),
		TopKFast:          t.topkFast.Load(),
		Snapshots:         t.snapshots.Load(),
		Restores:          t.restores.Load(),
		Err:               v.err,
	}
}

// handleQueryStats serves one query's telemetry block.
func (s *Server) handleQueryStats(t *tenant, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.tenantStats(t))
}

// histSecs summarises a duration histogram in seconds for the wire.
func histSecs(h *obs.Histogram) client.HistogramStats {
	return histWire(h, 1e-9)
}

// histVals summarises a raw-value histogram for the wire.
func histVals(h *obs.Histogram) client.HistogramStats {
	return histWire(h, 1)
}

func histWire(h *obs.Histogram, scale float64) client.HistogramStats {
	snap := h.Snapshot()
	return client.HistogramStats{
		Count: snap.Count,
		Mean:  snap.Mean() * scale,
		Max:   float64(snap.Max) * scale,
		P50:   snap.Quantile(0.5) * scale,
		P90:   snap.Quantile(0.9) * scale,
		P99:   snap.Quantile(0.99) * scale,
		P999:  snap.Quantile(0.999) * scale,
	}
}
