package surge_test

import (
	"fmt"
	"testing"

	"surge"
)

// TestServeFromChainEquivalence is the guarantee behind serving a query
// from one standalone top-k chain: its rank 1 must stay bitwise identical
// to the engine-served answer — across shard counts, across a
// checkpoint→restore cycle (RestoreTopKSharded, as the server restores), and
// through the AttachTopKBest shim taking over a running detector
// mid-stream. The reference run is additionally pinned against the
// pre-change fixture (see pinned_unify_test.go), so "equivalent" means
// equivalent to the answers the dual-engine layout produced before the
// refactor, not merely self-consistent. The pinned stream has no equal-score
// ties at rank 1; under such a tie the chain may pick another region.
func TestServeFromChainEquivalence(t *testing.T) {
	objs := pinnedStream()
	nBatches := (len(objs) + pinnedBatch - 1) / pinnedBatch
	attachAt := nBatches / 3 // mid-stream attach point (batch index)
	restoreAt := 2 * nBatches / 3

	// Reference: single-engine, engine-served Best over the pinned stream —
	// itself pinned bitwise by TestPinnedAnswers.
	want := make([]surge.Result, 0, nBatches)
	ref, err := surge.New(surge.CellCSPOT, pinnedOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(objs); i += pinnedBatch {
		if _, err := ref.PushBatch(objs[i:min(i+pinnedBatch, len(objs))]); err != nil {
			t.Fatal(err)
		}
		want = append(want, ref.Best())
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 4, 7} {
		shards := shards
		opts := pinnedOptions()
		opts.Shards = shards

		t.Run(fmt.Sprintf("chain-attached-at-boot/shards=%d", shards), func(t *testing.T) {
			td, err := surge.NewTopK(surge.CellCSPOT, opts, pinnedK)
			if err != nil {
				t.Fatal(err)
			}
			defer td.Close()
			for b, i := 0, 0; i < len(objs); b, i = b+1, i+pinnedBatch {
				top, err := td.PushBatch(objs[i:min(i+pinnedBatch, len(objs))])
				if err != nil {
					t.Fatal(err)
				}
				if top[0] != want[b] {
					t.Fatalf("batch %d: chain rank-1 %+v != engine-served %+v", b, top[0], want[b])
				}
			}
		})

		t.Run(fmt.Sprintf("attach-mid-stream/shards=%d", shards), func(t *testing.T) {
			d, err := surge.New(surge.CellCSPOT, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			for b, i := 0, 0; i < len(objs); b, i = b+1, i+pinnedBatch {
				if b == attachAt {
					// The shim restores the live windows into a chain that
					// serves Best from this point on.
					td, err := d.AttachTopKBest(surge.CellCSPOT, pinnedK)
					if err != nil {
						t.Fatal(err)
					}
					defer td.Close()
					if got := d.Best(); got != want[b-1] {
						t.Fatalf("attach at batch %d: takeover answer %+v != engine-served %+v", b, got, want[b-1])
					}
				}
				if _, err := d.PushBatch(objs[i:min(i+pinnedBatch, len(objs))]); err != nil {
					t.Fatal(err)
				}
				if got := d.Best(); got != want[b] {
					t.Fatalf("batch %d (attach at %d): %+v != engine-served %+v", b, attachAt, got, want[b])
				}
			}
		})

		t.Run(fmt.Sprintf("snapshot-restore/shards=%d", shards), func(t *testing.T) {
			td, err := surge.NewTopK(surge.CellCSPOT, opts, pinnedK)
			if err != nil {
				t.Fatal(err)
			}
			for b, i := 0, 0; i < len(objs); b, i = b+1, i+pinnedBatch {
				if b == restoreAt {
					// Checkpoint the serving chain, rebuild it from the bytes
					// with the same shard count and keep streaming: answers
					// must not notice.
					ckpt, err := td.Checkpoint()
					td.Close()
					if err != nil {
						t.Fatal(err)
					}
					td, err = surge.RestoreTopKSharded(surge.CellCSPOT, ckpt, pinnedK, shards, 0)
					if err != nil {
						t.Fatal(err)
					}
					if got := td.BestK()[0]; got != want[b-1] {
						td.Close()
						t.Fatalf("restore at batch %d: %+v != engine-served %+v", b, got, want[b-1])
					}
				}
				top, err := td.PushBatch(objs[i:min(i+pinnedBatch, len(objs))])
				if err != nil {
					td.Close()
					t.Fatal(err)
				}
				if top[0] != want[b] {
					td.Close()
					t.Fatalf("batch %d (restore at %d): %+v != engine-served %+v", b, restoreAt, top[0], want[b])
				}
			}
			td.Close()
		})
	}
}
