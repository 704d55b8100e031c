package server

import (
	"encoding/binary"
	"math"
	"testing"

	"surge"
)

// FuzzDecodeWALRecord checks the WAL record decoder two ways. Round trip:
// a record encoded from (source, sequence, chunk, objects) decodes to
// exactly that input, float bit patterns included (NaN payloads too: the
// log stores bits, not values). Arbitrary bytes: decoding never panics,
// and never needs more than len(b)/32 objects of buffer — a buffer sized
// for that bound is never reallocated, whatever count the record claims.
func FuzzDecodeWALRecord(f *testing.F) {
	f.Add("", uint64(0), uint32(0), []byte{})
	f.Add("feeder", uint64(7), uint32(2), make([]byte, 64))
	f.Add("s", uint64(1)<<63, uint32(math.MaxUint32), []byte{1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 2})
	f.Fuzz(func(t *testing.T, src string, seq uint64, chunk uint32, raw []byte) {
		objs := make([]surge.Object, len(raw)/32)
		for i := range objs {
			w := raw[32*i:]
			objs[i] = surge.Object{
				Time:   math.Float64frombits(binary.LittleEndian.Uint64(w[0:8])),
				X:      math.Float64frombits(binary.LittleEndian.Uint64(w[8:16])),
				Y:      math.Float64frombits(binary.LittleEndian.Uint64(w[16:24])),
				Weight: math.Float64frombits(binary.LittleEndian.Uint64(w[24:32])),
			}
		}
		rec := encodeWALRecord(nil, src, seq, chunk, objs)
		gsrc, gseq, gchunk, got, err := decodeWALRecord(rec, nil)
		if err != nil {
			t.Fatalf("decoding an encoded record: %v", err)
		}
		if gsrc != src || gseq != seq || gchunk != chunk || len(got) != len(objs) {
			t.Fatalf("round trip: (%q, %d, %d, %d objects), want (%q, %d, %d, %d objects)",
				gsrc, gseq, gchunk, len(got), src, seq, chunk, len(objs))
		}
		bits := math.Float64bits
		for i, o := range got {
			w := objs[i]
			if bits(o.Time) != bits(w.Time) || bits(o.X) != bits(w.X) || bits(o.Y) != bits(w.Y) || bits(o.Weight) != bits(w.Weight) {
				t.Fatalf("round trip: object %d is %+v, want %+v", i, o, w)
			}
		}

		// The fuzzer's raw bytes as a record, into a buffer sized for the
		// bound and into none.
		buf := make([]surge.Object, 0, len(raw)/32)
		_, _, _, out, err := decodeWALRecord(raw, buf)
		if len(out) > len(raw)/32 || cap(out) != cap(buf) {
			t.Fatalf("decoding %d bytes gave %d objects in a buffer of %d, want at most %d in the one passed",
				len(raw), len(out), cap(out), len(raw)/32)
		}
		if err != nil && len(out) != 0 {
			t.Fatalf("a rejected record left %d objects", len(out))
		}
		decodeWALRecord(raw, nil)
	})
}
