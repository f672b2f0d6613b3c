// Package metrics is a zero-dependency metrics subsystem: a lock-cheap
// registry of counters, gauges and fixed-bucket histograms with
// Prometheus text-format exposition.
//
// Design goals, in order:
//
//  1. Hot-path updates are allocation-free and wait-free. Counter.Add,
//     Gauge.Set and Histogram.Observe are single atomic operations on
//     cells resolved at registration time. Label sets are interned when
//     the instrument is created, never on update, so the ingest batch
//     paths and the propagator run loop can bump instruments without
//     regressing their 0 allocs/op budgets.
//  2. Scrapes never block updates. The registry mutex guards only the
//     family/series indexes (touched at registration and gather time);
//     samples are atomic loads.
//  3. One formatting path. WritePrometheus renders the full exposition
//     (HELP/TYPE + samples) and WriteValues renders the same samples
//     without preamble for periodic log dumps, both on top of Gather,
//     so logs, /metrics and bench JSON attribution cannot drift.
//
// Sampled values that live in subsystem-owned atomics (pool queue
// depths, outbox length, checkpoint age) are exported through GaugeFunc
// and CounterFunc, evaluated at gather time only — the owning hot paths
// keep their existing counters untouched.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the exposition type of a metric family.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing value. The zero value is not
// usable; obtain one from Registry.Counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Allocation-free.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one. Allocation-free.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. Obtain from Registry.Gauge.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value. Allocation-free.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (may be negative). Allocation-free.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed buckets chosen at
// registration. Observe is a binary search plus one atomic add — no
// allocation, no locks. Obtain from Registry.Histogram.
type Histogram struct {
	bounds  []float64       // upper bounds, ascending; +Inf implicit
	cells   []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// Observe records one observation. Allocation-free.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.cells[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sample is one exposition sample: a family member with its resolved
// label set. Histograms expand into multiple samples (buckets, sum,
// count) at gather time.
type Sample struct {
	Name   string // family name, or family+"_bucket"/"_sum"/"_count"
	Labels string // pre-rendered `k1="v1",k2="v2"` fragment, "" if none
	Value  float64
}

// series is one registered instrument within a family.
type series struct {
	labels string // pre-rendered label fragment
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64 // CounterFunc/GaugeFunc
}

type family struct {
	name   string
	help   string
	kind   Kind
	order  int // registration order of the family
	series []*series
	byKey  map[string]*series // label fragment -> series
}

// Registry holds metric families. Registration takes the registry
// lock; updates on returned instruments are lock-free.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind Kind) *family {
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, order: len(r.fams), byKey: make(map[string]*series)}
		r.fams[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("metrics: %q re-registered as %v, was %v", name, kind, f.kind))
	}
	return f
}

func (r *Registry) add(name, help string, kind Kind, labels string, s *series) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kind)
	if prev, ok := f.byKey[labels]; ok {
		// Idempotent re-registration returns the existing instrument
		// for plain cells; func-backed series are replaced so a
		// re-registered collector binds to the live object.
		if s.fn == nil {
			return prev
		}
		prev.fn = s.fn
		return prev
	}
	s.labels = labels
	f.series = append(f.series, s)
	f.byKey[labels] = s
	return s
}

// LabelSet pre-renders an ordered label fragment. Pairs must be given
// as k, v, k, v, ...; keys are sorted so the same logical set always
// produces the same series regardless of argument order. Call at
// registration time only.
func LabelSet(pairs ...string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("metrics: odd label pair count")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

// Counter registers (or returns the existing) counter for name and the
// given label pairs.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	s := r.add(name, help, KindCounter, LabelSet(labelPairs...), &series{c: &Counter{}})
	return s.c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labelPairs ...string) *Gauge {
	s := r.add(name, help, KindGauge, LabelSet(labelPairs...), &series{g: &Gauge{}})
	return s.g
}

// Histogram registers (or returns the existing) histogram with the
// given ascending upper bucket bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labelPairs ...string) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	b := append([]float64(nil), bounds...)
	h := &Histogram{bounds: b, cells: make([]atomic.Uint64, len(b)+1)}
	s := r.add(name, help, KindHistogram, LabelSet(labelPairs...), &series{h: h})
	return s.h
}

// GaugeFunc registers a gauge whose value is computed by fn at gather
// time. Use for sampled values owned by subsystem atomics (queue
// depths, ages) so hot paths stay untouched.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.add(name, help, KindGauge, LabelSet(labelPairs...), &series{fn: fn})
}

// CounterFunc registers a counter whose value is read from fn at
// gather time. fn must be monotonic.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.add(name, help, KindCounter, LabelSet(labelPairs...), &series{fn: fn})
}

// Unregister removes a whole family (all series). Used when a
// dynamically labeled source (e.g. a push upstream) goes away in tests.
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.fams, name)
}

// Family is a gathered metric family: metadata plus its expanded
// samples. Histogram families expand into _bucket/_sum/_count samples.
type Family struct {
	Name    string
	Help    string
	Kind    Kind
	Samples []Sample
}

// GatherFamilies snapshots every family, ordered by registration
// order, with series in registration order inside each family. This is
// the single collection path under /metrics, log dumps and bench
// attribution.
func (r *Registry) GatherFamilies() []Family {
	r.mu.Lock()
	// Copy the series so func evaluation happens outside the lock: a
	// GaugeFunc may itself take subsystem locks and must not be able to
	// deadlock against a concurrent registration. They are copied by
	// value because a re-registration replaces a series' fn under the
	// lock.
	type famSnap struct {
		f      *family
		series []series
	}
	snaps := make([]famSnap, 0, len(r.fams))
	for _, f := range r.fams {
		ss := make([]series, len(f.series))
		for i, s := range f.series {
			ss[i] = *s
		}
		snaps = append(snaps, famSnap{f, ss})
	}
	r.mu.Unlock()

	sort.Slice(snaps, func(i, j int) bool { return snaps[i].f.order < snaps[j].f.order })
	out := make([]Family, 0, len(snaps))
	for _, sn := range snaps {
		fam := Family{Name: sn.f.name, Help: sn.f.help, Kind: sn.f.kind}
		for _, s := range sn.series {
			switch {
			case s.h != nil:
				cum := uint64(0)
				for i, b := range s.h.bounds {
					cum += s.h.cells[i].Load()
					fam.Samples = append(fam.Samples, Sample{fam.Name + "_bucket", joinLabels(s.labels, `le="`+formatFloat(b)+`"`), float64(cum)})
				}
				cum += s.h.cells[len(s.h.bounds)].Load()
				fam.Samples = append(fam.Samples, Sample{fam.Name + "_bucket", joinLabels(s.labels, `le="+Inf"`), float64(cum)})
				fam.Samples = append(fam.Samples, Sample{fam.Name + "_sum", s.labels, s.h.Sum()})
				fam.Samples = append(fam.Samples, Sample{fam.Name + "_count", s.labels, float64(cum)})
			case s.c != nil:
				fam.Samples = append(fam.Samples, Sample{fam.Name, s.labels, float64(s.c.Value())})
			case s.g != nil:
				fam.Samples = append(fam.Samples, Sample{fam.Name, s.labels, float64(s.g.Value())})
			case s.fn != nil:
				fam.Samples = append(fam.Samples, Sample{fam.Name, s.labels, s.fn()})
			}
		}
		out = append(out, fam)
	}
	return out
}

// Gather flattens GatherFamilies into a single sample slice.
func (r *Registry) Gather() []Sample {
	var out []Sample
	for _, f := range r.GatherFamilies() {
		out = append(out, f.Samples...)
	}
	return out
}

// Values flattens Gather into a name{labels} -> value map. Used by
// the benchmark (benchmark/) to read per-layer counters.
func (r *Registry) Values() map[string]float64 {
	samples := r.Gather()
	m := make(map[string]float64, len(samples))
	for _, s := range samples {
		k := s.Name
		if s.Labels != "" {
			k += "{" + s.Labels + "}"
		}
		m[k] = s.Value
	}
	return m
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
