package main

import (
	"fmt"
	"math"
	"strings"

	"surge"
	"surge/client"
	"surge/internal/core"
	"surge/internal/window"
)

var inf = math.Inf(1)

// reference is what an in-process replay of the fill says the server must
// have answered: the same detector the server builds (surge.New +
// AttachTopKBest with the same options), pushed with the same chunk
// boundaries.
type reference struct {
	acks   []client.Result // answer after each fill request
	bursts []burstRef      // every change of the default query's answer
	topk   []client.Result // maintained top-k after the fill
	best   map[string]client.Result
}

type burstRef struct {
	time   float64
	result client.Result
}

// sameResult is bitwise equality of two wire results: found, score and
// region down to the float bit patterns.
func sameResult(a, b client.Result) bool {
	if a.Found != b.Found || math.Float64bits(a.Score) != math.Float64bits(b.Score) {
		return false
	}
	if (a.Region == nil) != (b.Region == nil) {
		return false
	}
	if a.Region == nil {
		return true
	}
	bits := math.Float64bits
	return bits(a.Region.MinX) == bits(b.Region.MinX) && bits(a.Region.MinY) == bits(b.Region.MinY) &&
		bits(a.Region.MaxX) == bits(b.Region.MaxX) && bits(a.Region.MaxY) == bits(b.Region.MaxY)
}

func sameResults(a, b []client.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameResult(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameScores is sameResults without the regions.
func sameScores(a, b []client.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Found != b[i].Found || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// fmtResults renders results for a failed check's message.
func fmtResults(rs []client.Result) string {
	var sb strings.Builder
	for _, r := range rs {
		if r.Region == nil {
			fmt.Fprintf(&sb, "[found=%t score=%v]", r.Found, r.Score)
		} else {
			fmt.Fprintf(&sb, "[score=%v region=%+v]", r.Score, *r.Region)
		}
	}
	return sb.String()
}

// newServed builds the detector layout `surged serve` hosts for one query:
// the single-region engine retired, best and top-k both served by the chain.
func newServed(alg surge.Algorithm, opt surge.Options) (*surge.Detector, *surge.TopKDetector, error) {
	det, err := surge.New(alg, opt)
	if err != nil {
		return nil, nil, err
	}
	td, err := det.AttachTopKBest(alg, topK)
	if err != nil {
		det.Close()
		return nil, nil, err
	}
	return det, td, nil
}

// replayFill computes the reference for the fill requests of p.
func replayFill(p *plan) (*reference, error) {
	ref := &reference{best: map[string]client.Result{}}
	opt := p.w.options(p.ds)
	det, td, err := newServed(p.w.algo, opt)
	if err != nil {
		return nil, err
	}
	defer det.Close()
	var last surge.Result
	fill := p.objs[:p.fillEnd*p.w.reqObjs]
	for lo := 0; lo < len(fill); lo += p.w.batch {
		res, err := det.PushBatch(fill[lo : lo+p.w.batch])
		if err != nil {
			return nil, fmt.Errorf("reference replay: %w", err)
		}
		if res != last {
			last = res
			ref.bursts = append(ref.bursts, burstRef{time: det.Now(), result: client.FromResult(res)})
		}
		if (lo+p.w.batch)%p.w.reqObjs == 0 {
			ref.acks = append(ref.acks, client.FromResult(res))
		}
	}
	for _, r := range td.BestK() {
		ref.topk = append(ref.topk, client.FromResult(r))
	}
	ref.best["default"] = client.FromResult(det.Best())

	// Each named query answers like an independent detector of its own
	// size fed the same stream.
	for _, q := range p.w.queries(p.ds) {
		qd, _, err := newServed(p.w.algo, p.w.queryOptions(p.ds, q))
		if err != nil {
			return nil, err
		}
		for lo := 0; lo < len(fill); lo += p.w.batch {
			if _, err := qd.PushBatch(fill[lo : lo+p.w.batch]); err != nil {
				qd.Close()
				return nil, fmt.Errorf("reference replay of %s: %w", q.ID, err)
			}
		}
		ref.best[q.ID] = client.FromResult(qd.Best())
		qd.Close()
	}
	return ref, nil
}

// liveAfter is how many objects a replay of nothing but their timestamps
// leaves inside the two windows.
func liveAfter(times []float64) (int, error) {
	win, err := window.New(windowLen, windowLen)
	if err != nil {
		return 0, err
	}
	nop := func(core.Event) {}
	for _, t := range times {
		if _, err := win.Push(core.Object{T: t}, nop); err != nil {
			return 0, err
		}
	}
	return win.Live(), nil
}
