package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// Every representable value must land in a bucket whose [low, low+width)
// range contains it, with relative width <= 1/nSub past the exact range.
func TestBucketCorrectness(t *testing.T) {
	vals := []uint64{0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 63, 64, 100, 1000, 1023, 1024,
		1<<20 - 1, 1 << 20, 1<<40 + 12345, 1<<63 - 1, 1 << 63, math.MaxUint64}
	for _, v := range vals {
		idx := bucketIdx(v)
		if idx < 0 || idx >= nBuckets {
			t.Fatalf("bucketIdx(%d) = %d out of range", v, idx)
		}
		low, width := bucketBounds(idx)
		if v < low || (width < math.MaxUint64 && v >= low+width && low+width > low) {
			t.Errorf("value %d in bucket %d [%d, %d+%d)", v, idx, low, low, width)
		}
		if v >= 2*nSub && float64(width)/float64(low) > 1.0/nSub+1e-9 {
			t.Errorf("bucket %d width %d too wide for low %d", idx, width, low)
		}
	}
}

// Bucket lower bounds must be strictly increasing and adjacent buckets
// contiguous: low(i+1) == low(i) + width(i).
func TestBucketMonotonicContiguous(t *testing.T) {
	prevLow, prevWidth := bucketBounds(0)
	for i := 1; i < nBuckets; i++ {
		low, width := bucketBounds(i)
		if low <= prevLow {
			t.Fatalf("bucket %d low %d <= previous low %d", i, low, prevLow)
		}
		if prevLow+prevWidth != low && prevLow+prevWidth > prevLow {
			t.Fatalf("gap before bucket %d: prev [%d,+%d), next low %d", i, prevLow, prevWidth, low)
		}
		prevLow, prevWidth = low, width
	}
	if idx := bucketIdx(math.MaxUint64); idx != nBuckets-1 {
		t.Fatalf("MaxUint64 lands in bucket %d, want %d", idx, nBuckets-1)
	}
}

func TestQuantiles(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if s.Sum != 1000*1001/2 {
		t.Fatalf("sum = %d, want %d", s.Sum, 1000*1001/2)
	}
	if s.Max != 1000 {
		t.Fatalf("max = %d, want 1000", s.Max)
	}
	// Log-linear resolution bounds the error at 1/nSub relative.
	checks := []struct{ q, want float64 }{{0.5, 500}, {0.9, 900}, {0.99, 990}, {0.999, 999}}
	for _, c := range checks {
		got := s.Quantile(c.q)
		if math.Abs(got-c.want)/c.want > 1.0/nSub {
			t.Errorf("q%g = %g, want %g within %.1f%%", c.q, got, c.want, 100.0/nSub)
		}
	}
	if m := s.Mean(); math.Abs(m-500.5) > 1e-9 {
		t.Errorf("mean = %g, want 500.5", m)
	}
	// Quantiles never exceed the recorded max.
	if got := s.Quantile(1); got > float64(s.Max) {
		t.Errorf("q1 = %g beyond max %d", got, s.Max)
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty histogram should answer 0")
	}
	h.Record(7)
	s = h.Snapshot()
	if got := s.Quantile(0.5); got != 7 {
		t.Fatalf("single-value q0.5 = %g, want 7 (exact range)", got)
	}
}

// Concurrent recorders under -race must neither race nor lose counts.
func TestConcurrentRecorders(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(uint64(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	if s.Max != goroutines*per-1 {
		t.Fatalf("max = %d, want %d", s.Max, goroutines*per-1)
	}
}

// The record path — the exact sequence the ingest hot path runs — must not
// allocate.
func TestRecordZeroAlloc(t *testing.T) {
	r := NewRegistry()
	h := r.Duration("surge_test_seconds", "test")
	c := r.Counter("surge_test_total", "test")
	g := r.Gauge("surge_test_gauge", "test")
	allocs := testing.AllocsPerRun(1000, func() {
		t0 := time.Now()
		h.Observe(time.Since(t0))
		h.Record(1)
		c.Inc()
		g.Set(42)
	})
	if allocs != 0 {
		t.Fatalf("record path allocates %.1f/op, want 0", allocs)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("surge_x_total", "help")
	b := r.Counter("surge_x_total", "help")
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	c := r.Counter("surge_x_total", "help", "shard", "0")
	if a == c {
		t.Fatal("different labels must return distinct counters")
	}
	h1 := r.Duration("surge_y_seconds", "help")
	h2 := r.Duration("surge_y_seconds", "help")
	if h1 != h2 {
		t.Fatal("same (name, labels) must return the same histogram")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("surge_x_total", "help")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("surge_t_events_total", "Events.").Add(5)
	r.Gauge("surge_t_depth", "Depth.", "shard", "0").Set(3)
	r.Gauge("surge_t_depth", "Depth.", "shard", "1").Set(4)
	h := r.Duration("surge_t_lat_seconds", "Latency.")
	h.Observe(1500 * time.Microsecond)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE surge_t_events_total counter",
		"surge_t_events_total 5",
		`surge_t_depth{shard="0"} 3`,
		`surge_t_depth{shard="1"} 4`,
		"# TYPE surge_t_lat_seconds summary",
		`surge_t_lat_seconds{quantile="0.5"}`,
		`surge_t_lat_seconds{quantile="0.999"}`,
		"surge_t_lat_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE surge_t_depth gauge"); n != 1 {
		t.Errorf("TYPE header for labeled gauge family emitted %d times, want 1", n)
	}
	// Duration render is in seconds: the q0.5 of a single 1.5ms sample must
	// be ~0.0015, not 1.5e6 (ns).
	s := h.Snapshot()
	if q := s.Quantile(0.5) * 1e-9; q > 0.01 {
		t.Errorf("rendered quantile not scaled to seconds: %g", q)
	}
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("surge_r_total", "help")
	h := r.Values("surge_r_sizes", "help")
	c.Add(3)
	h.Record(10)
	r.Reset()
	if c.Value() != 0 || h.Count() != 0 {
		t.Fatal("Reset must zero metrics")
	}
}

func TestReadRuntime(t *testing.T) {
	rs := ReadRuntime()
	if rs.Goroutines <= 0 {
		t.Errorf("goroutines = %d, want > 0", rs.Goroutines)
	}
	if rs.HeapBytes == 0 {
		t.Errorf("heap bytes = 0, want > 0")
	}
	var b strings.Builder
	rs.WritePrometheus(&b)
	for _, want := range []string{
		"surge_runtime_goroutines",
		"surge_runtime_heap_bytes",
		"surge_runtime_gc_pause_seconds{quantile=\"0.99\"}",
		"surge_runtime_sched_latency_seconds",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("missing %q in runtime render", want)
		}
	}
}
