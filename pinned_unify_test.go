package surge_test

import (
	"encoding/json"
	"flag"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"surge"
)

// The pinned-answer fixture freezes the exact bits every engine family
// reported before the packed-cellcspot / serve-from-chain unification, so the
// refactor is provably answer-preserving: the same deterministic stream must
// keep reproducing byte-for-byte the same scores and regions. Regenerate only
// when an intentional answer change lands:
//
//	go test -run TestPinnedAnswers -update-pinned
var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/pinned_answers.json from the current engines")

const (
	pinnedBatch = 100
	pinnedK     = 5
)

// pinnedAnswer stores one recorded Best (or top-k rank) with float64 bits
// rendered as hex so the fixture pins bitwise equality, not almost-equality.
type pinnedAnswer struct {
	Found  bool      `json:"found"`
	Score  string    `json:"score,omitempty"`
	Region [4]string `json:"region,omitempty"`
}

func toPinned(r surge.Result) pinnedAnswer {
	if !r.Found {
		return pinnedAnswer{}
	}
	hx := func(f float64) string { return strconv.FormatUint(math.Float64bits(f), 16) }
	return pinnedAnswer{
		Found:  true,
		Score:  hx(r.Score),
		Region: [4]string{hx(r.Region.MinX), hx(r.Region.MinY), hx(r.Region.MaxX), hx(r.Region.MaxY)},
	}
}

// pinnedStream is the deterministic random stream the fixture was generated
// from: clustered hotspots over background noise, random weights (which keep
// exact-score ties measure-zero, so tie-break changes cannot perturb it).
func pinnedStream() []surge.Object {
	rng := rand.New(rand.NewPCG(95, 191))
	objs := make([]surge.Object, 3000)
	t := 0.0
	for i := range objs {
		t += rng.ExpFloat64() * 0.5
		o := surge.Object{
			X:      rng.Float64() * 10,
			Y:      rng.Float64() * 10,
			Weight: 1 + rng.Float64()*99,
			Time:   t,
		}
		if i%7 == 0 { // recurring hotspot: keeps the top-k ranks contested
			o.X = 4 + rng.Float64()*0.8
			o.Y = 6 + rng.Float64()*0.8
		}
		objs[i] = o
	}
	return objs
}

func pinnedOptions() surge.Options {
	return surge.Options{Width: 1.1, Height: 0.9, Window: 40, Alpha: 0.6}
}

// collectPinned replays the pinned stream through every single-engine
// algorithm plus the maintained top-k chain, recording Best after each batch.
func collectPinned(t *testing.T) map[string][]pinnedAnswer {
	t.Helper()
	objs := pinnedStream()
	out := map[string][]pinnedAnswer{}
	for _, alg := range []surge.Algorithm{
		surge.CellCSPOT, surge.StaticBound, surge.Baseline, surge.GridApprox, surge.MultiGrid,
	} {
		d, err := surge.New(alg, pinnedOptions())
		if err != nil {
			t.Fatal(err)
		}
		var recs []pinnedAnswer
		for i := 0; i < len(objs); i += pinnedBatch {
			if _, err := d.PushBatch(objs[i:min(i+pinnedBatch, len(objs))]); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, toPinned(d.Best()))
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		out[alg.String()] = recs
	}

	td, err := surge.NewTopK(surge.CellCSPOT, pinnedOptions(), pinnedK)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([][]pinnedAnswer, pinnedK)
	for i := 0; i < len(objs); i += pinnedBatch {
		top, err := td.PushBatch(objs[i:min(i+pinnedBatch, len(objs))])
		if err != nil {
			t.Fatal(err)
		}
		for r, res := range top {
			recs[r] = append(recs[r], toPinned(res))
		}
	}
	if err := td.Close(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < pinnedK; r++ {
		out["topk-CCS.r"+strconv.Itoa(r+1)] = recs[r]
	}
	return out
}

func pinnedPath() string { return filepath.Join("testdata", "pinned_answers.json") }

func TestPinnedAnswers(t *testing.T) {
	got := collectPinned(t)
	if *updatePinned {
		blob, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinnedPath(), append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", pinnedPath())
		return
	}
	blob, err := os.ReadFile(pinnedPath())
	if err != nil {
		t.Fatalf("reading fixture (regenerate with -update-pinned): %v", err)
	}
	var want map[string][]pinnedAnswer
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	for alg, wrecs := range want {
		grecs, ok := got[alg]
		if !ok {
			t.Errorf("%s: fixture algorithm no longer produced", alg)
			continue
		}
		if len(grecs) != len(wrecs) {
			t.Errorf("%s: %d records, fixture has %d", alg, len(grecs), len(wrecs))
			continue
		}
		for i := range wrecs {
			if grecs[i] != wrecs[i] {
				t.Errorf("%s step %d: got %+v, pinned %+v", alg, i, grecs[i], wrecs[i])
			}
		}
	}
	for alg := range got {
		if _, ok := want[alg]; !ok {
			t.Errorf("%s: produced but missing from fixture (regenerate with -update-pinned)", alg)
		}
	}
}
