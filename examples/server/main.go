// SURGE as a service, end to end: stand up the HTTP serving layer
// (internal/server — what `surged serve` runs) on a loopback listener,
// then drive it with the typed surge/client package:
//
//  1. subscribe to the SSE feed of bursty-region changes,
//  2. stream a planted-burst workload from two concurrent NDJSON
//     ingesters into the sharded detector,
//  3. query /v1/best and the on-demand /v1/topk,
//  4. snapshot the detector over HTTP and restore the checkpoint into a
//     second server with a different shard count — same answer,
//  5. read a few Prometheus counters from /metrics.
//
// Run with: go run ./examples/server
package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"surge"
	"surge/client"
	"surge/internal/server"
	"surge/internal/stream"
)

func main() {
	d := stream.TaxiLike(7)
	d.RatePerHour *= 0.2
	objs := d.Generate(30000)
	objs = stream.Inject(objs, stream.Burst{
		CX: 12.7, CY: 42.05,
		SX: d.QueryWidth() / 6, SY: d.QueryHeight() / 6,
		Start: objs[len(objs)-1].T * 0.7, Duration: 300, Count: 400, Seed: 7,
	})

	cfg := server.Config{
		Algorithm: surge.CellCSPOT,
		Options: surge.Options{
			Width: d.QueryWidth(), Height: d.QueryHeight(),
			Window: 300, Alpha: 0.5,
			Shards: max(2, runtime.NumCPU()),
		},
		TimePolicy: server.Clamp, // concurrent ingesters need not coordinate clocks
		BatchSize:  512,
	}
	c, shutdown := serve(cfg)
	ctx := context.Background()

	// 1. Subscribe before ingesting: every change will be seen (or
	// accounted as dropped if we were too slow).
	sub, err := c.Subscribe(ctx)
	check(err)
	changes := 0
	var lastNote, peak client.Notification
	noteDone := make(chan struct{})
	go func() {
		defer close(noteDone)
		for n := range sub.Events() {
			changes++
			lastNote = n
			if n.Result.Found && n.Result.Score > peak.Result.Score {
				peak = n
			}
			if changes <= 3 && n.Result.Found {
				fmt.Printf("sse: burst #%d at t=%.0f score %.1f region [%.3f,%.3f]x[%.3f,%.3f]\n",
					n.Seq, n.Time, n.Result.Score,
					n.Result.Region.MinX, n.Result.Region.MaxX,
					n.Result.Region.MinY, n.Result.Region.MaxY)
			}
		}
	}()

	// 2. Two concurrent ingesters, round-robin halves of the stream.
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		var part []surge.Object
		for i := g; i < len(objs); i += 2 {
			o := objs[i]
			part = append(part, surge.Object{X: o.X, Y: o.Y, Weight: o.Weight, Time: o.T})
		}
		wg.Add(1)
		go func(part []surge.Object) {
			defer wg.Done()
			accepted, clamped := 0, 0
			for lo := 0; lo < len(part); lo += 2000 {
				hi := min(lo+2000, len(part))
				var buf bytes.Buffer
				check(client.EncodeNDJSON(&buf, part[lo:hi]))
				res, err := c.IngestStream(ctx, &buf, client.NDJSON)
				check(err)
				accepted += res.Accepted
				clamped += res.Clamped
			}
			fmt.Printf("ingester: %d objects accepted (%d clamped)\n", accepted, clamped)
		}(part)
	}
	wg.Wait()

	// 3. Point-in-time queries.
	st, err := c.Best(ctx)
	check(err)
	fmt.Printf("best: t=%.0f live=%d shards=%d score %.1f\n", st.Now, st.Live, st.Shards, st.Result.Score)
	// /v1/topk is served O(1) from the continuously maintained answer.
	tk, err := c.TopK(ctx, 3)
	check(err)
	for i, r := range tk.Results {
		if r.Found {
			fmt.Printf("top-%d (%s, continuous=%v): score %.1f\n", i+1, tk.Algorithm, tk.Continuous, r.Score)
		}
	}

	// 4. Snapshot over HTTP, restore into a fresh server with another
	// shard count; the checkpoint is engine- and shard-independent.
	ckpt, err := c.Snapshot(ctx)
	check(err)
	cfg2 := cfg
	cfg2.Options.Shards = 2
	c2, shutdown2 := serve(cfg2)
	st2, err := c2.Restore(ctx, ckpt)
	check(err)
	// Clamped ingest leaves objects sharing a timestamp, which the
	// checkpoint replays in canonical rather than arrival order, so the
	// restored score can differ in the last float bits (see Restore).
	same := math.Abs(st2.Result.Score-st.Result.Score) <= 1e-9*(1+math.Abs(st.Result.Score))
	fmt.Printf("restored %d-byte checkpoint into %d shards: score %.1f (matches source: %v)\n",
		len(ckpt), st2.Shards, st2.Result.Score, same)

	// 5. A few operational counters.
	metrics, err := c.Metrics(ctx)
	check(err)
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "surge_objects_ingested_total") ||
			strings.HasPrefix(line, "surge_notifications_total") ||
			strings.HasPrefix(line, "surge_engine_events_total") {
			fmt.Println("metrics:", line)
		}
	}

	sub.Close()
	<-noteDone
	fmt.Printf("observed %d bursty-region changes over SSE (last seq %d)\n", changes, lastNote.Seq)
	if peak.Result.Found {
		fmt.Printf("peak: seq %d at t=%.0f score %.1f — the planted burst, pushed, not polled\n",
			peak.Seq, peak.Time, peak.Result.Score)
	}
	shutdown2()
	shutdown()
}

// serve starts the HTTP host on a loopback listener and returns a client
// for it plus a shutdown func.
func serve(cfg server.Config) (*client.Client, func()) {
	s, err := server.New(cfg)
	check(err)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	// Long-lived ingest/SSE connections rule out blanket read/write
	// timeouts; the header and idle timeouts still bound slow clients.
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	go hs.Serve(ln)
	fmt.Printf("serving %s shards=%d on http://%s\n", cfg.Algorithm, cfg.Options.Shards, ln.Addr())
	return client.New("http://" + ln.Addr().String()), func() {
		s.Close()
		hs.Close()
	}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
