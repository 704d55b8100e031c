// Package obs is the pipeline observability substrate: lock-free
// fixed-bucket log-scale latency histograms plus a counter/gauge registry,
// all recordable with zero allocations so instrumentation can live inside
// the zero-allocation ingest hot path. Metrics register get-or-create by
// (name, labels) on a Registry — normally the process-wide Default — and
// render two ways: Prometheus text via WritePrometheus and typed snapshots
// via Snapshot/HistSnapshot for JSON stats endpoints.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable float64 (stored as bits, so Set/Value are atomic).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last value Set.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindDuration // histogram of nanoseconds, rendered in seconds
	kindValues   // histogram of raw units
)

type metric struct {
	name   string
	help   string
	labels []string // alternating key, value
	kind   kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds metrics get-or-create by (name, labels). All methods are
// safe for concurrent use; the lookup takes a mutex, so callers should hold
// on to the returned handles rather than re-resolving on hot paths.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric // registration order, preserved in renders
	byKey   map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// Default is the process-wide registry every pipeline stage records into.
var Default = NewRegistry()

func key(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	return name + "\x00" + strings.Join(labels, "\x00")
}

func (r *Registry) get(name, help string, k kind, labels []string) *metric {
	if len(labels)%2 != 0 {
		panic("obs: labels must be alternating key, value pairs")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key(name, labels)]; ok {
		if m.kind != k {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return m
	}
	m := &metric{name: name, help: help, labels: labels, kind: k}
	switch k {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	default:
		m.h = &Histogram{}
	}
	r.metrics = append(r.metrics, m)
	r.byKey[key(name, labels)] = m
	return m
}

// Counter returns the counter registered under (name, labels), creating it
// on first use.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.get(name, help, kindCounter, labels).c
}

// Gauge returns the gauge registered under (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.get(name, help, kindGauge, labels).g
}

// Duration returns a latency histogram registered under (name, labels):
// observations are nanoseconds, renders are in seconds. The name should
// carry a _seconds suffix by Prometheus convention.
func (r *Registry) Duration(name, help string, labels ...string) *Histogram {
	return r.get(name, help, kindDuration, labels).h
}

// Values returns a histogram of raw (unit-less) values registered under
// (name, labels) — batch sizes, buffer occupancies, shard counts.
func (r *Registry) Values(name, help string, labels ...string) *Histogram {
	return r.get(name, help, kindValues, labels).h
}

// Reset zeroes every registered metric (handles stay valid). Meant for
// benchmark harnesses that reuse the Default registry across runs.
func (r *Registry) Reset() {
	r.mu.Lock()
	ms := r.metrics
	r.mu.Unlock()
	for _, m := range ms {
		switch m.kind {
		case kindCounter:
			m.c.v.Store(0)
		case kindGauge:
			m.g.Set(0)
		default:
			m.h.Reset()
		}
	}
}

// quantiles rendered for every histogram, in render order.
var summaryQs = []float64{0.5, 0.9, 0.99, 0.999}

// WritePrometheus renders every registered metric in Prometheus text
// format. Histograms render as summaries (quantile series plus _sum and
// _count); duration histograms are converted from nanoseconds to seconds.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()

	// Same-name metrics (per-shard label variants) must share one
	// HELP/TYPE header and be contiguous in the output.
	byName := make(map[string][]*metric, len(ms))
	var names []string
	for _, m := range ms {
		if _, ok := byName[m.name]; !ok {
			names = append(names, m.name)
		}
		byName[m.name] = append(byName[m.name], m)
	}
	sort.Strings(names)

	for _, name := range names {
		group := byName[name]
		fmt.Fprintf(w, "# HELP %s %s\n", name, group[0].help)
		fmt.Fprintf(w, "# TYPE %s %s\n", name, promType(group[0].kind))
		for _, m := range group {
			switch m.kind {
			case kindCounter:
				fmt.Fprintf(w, "%s%s %d\n", m.name, labelStr(m.labels, ""), m.c.Value())
			case kindGauge:
				fmt.Fprintf(w, "%s%s %s\n", m.name, labelStr(m.labels, ""), fmtFloat(m.g.Value()))
			default:
				scale := 1.0
				if m.kind == kindDuration {
					scale = 1e-9
				}
				s := m.h.Snapshot()
				for _, q := range summaryQs {
					fmt.Fprintf(w, "%s%s %s\n", m.name,
						labelStr(m.labels, strconv.FormatFloat(q, 'g', -1, 64)),
						fmtFloat(s.Quantile(q)*scale))
				}
				fmt.Fprintf(w, "%s_sum%s %s\n", m.name, labelStr(m.labels, ""), fmtFloat(float64(s.Sum)*scale))
				fmt.Fprintf(w, "%s_count%s %d\n", m.name, labelStr(m.labels, ""), s.Count)
			}
		}
	}
}

func promType(k kind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "summary"
	}
}

// labelStr renders `{k="v",...}` with an optional trailing quantile label;
// empty when there is nothing to render.
func labelStr(labels []string, quantile string) string {
	if len(labels) == 0 && quantile == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	if quantile != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "quantile=%q", quantile)
	}
	b.WriteByte('}')
	return b.String()
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// LabeledValue is one sample of a dynamically labelled metric family for
// WriteLabeled: Labels is a flat key,value,... list.
type LabeledValue struct {
	Labels []string
	Value  float64
}

// WriteLabeled writes one Prometheus metric family with per-row labels,
// assembled at scrape time. Unlike registry metrics, the rows are not
// retained between scrapes — the family tracks a dynamic population (e.g.
// per-query series) without leaking series for members that disappeared.
// kind is "counter" or "gauge". No output when rows is empty.
func WriteLabeled(w io.Writer, name, kind, help string, rows []LabeledValue) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
	for _, r := range rows {
		fmt.Fprintf(w, "%s%s %s\n", name, labelStr(r.Labels, ""), fmtFloat(r.Value))
	}
}
