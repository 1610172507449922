package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension. Values must be stable strings (job
// ids, protocol names); unbounded-cardinality values belong in logs,
// not labels.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotone atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; counters are monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (compare-and-swap loop; gauges move both ways).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram (Prometheus
// semantics: each bucket counts observations <= its upper bound, and
// the exposition appends the +Inf bucket, sum, and count).
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // one per bound, plus +Inf at the end
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// DefTimeBuckets are the default wall-time buckets (seconds),
// log-spaced from 1ms to ~4 minutes — simulation jobs span fast quick
// cells to million-node campaigns.
var DefTimeBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60, 240}

// series is one exposed time series: a family member with a fixed
// label set.
type series struct {
	labels  string // rendered label block, "" or `{k="v",...}`
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family groups the series of one metric name under a TYPE/HELP pair.
type family struct {
	name, help, typ string
	order           []string // series keys in registration order
	series          map[string]*series
}

// Registry holds metric families and renders them in the Prometheus
// text format. Series handles are cached: asking for the same
// (name, labels) twice returns the same Counter/Gauge/Histogram, so
// callers can resolve labelled series on the hot path without
// registration bookkeeping. The zero value is NOT usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// renderLabels produces the canonical label block. Labels render in
// the given order (callers pass a fixed order, keeping series keys
// stable); values are escaped per the text format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		v := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`).Replace(l.Value)
		fmt.Fprintf(&b, `%s="%s"`, l.Key, v)
	}
	b.WriteByte('}')
	return b.String()
}

// getSeries resolves (or creates) the series for (name, labels) in a
// family of the given type, panicking on a type conflict — registering
// one name as both counter and gauge is a programming error worth
// failing loudly on. Callers must hold r.mu: the instrument fields are
// initialized under the same critical section that creates the series,
// so concurrent first resolutions return one shared handle.
func (r *Registry) getSeries(name, help, typ string, labels []Label) *series {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: map[string]*series{}}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	key := renderLabels(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter returns the counter for (name, labels), creating it on first
// use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getSeries(name, help, "counter", labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge returns the gauge for (name, labels), creating it on first
// use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getSeries(name, help, "gauge", labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is sampled by fn at scrape
// time (live-heap, goroutine counts, queue depths).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getSeries(name, help, "gauge", labels)
	s.gaugeFn = fn
}

// Histogram returns the histogram for (name, labels) with the given
// upper bounds (ascending; +Inf is implicit), creating it on first
// use. Later calls reuse the first bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.getSeries(name, help, "histogram", labels)
	if s.hist == nil {
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Int64, len(h.bounds)+1)
		s.hist = h
	}
	return s.hist
}

// WritePrometheus renders every family in the Prometheus text format,
// families in registration order, series in registration order within
// a family — a deterministic scrape for a deterministic system.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, key := range f.order {
			s := f.series[key]
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch {
	case s.counter != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.counter.Value())
		return err
	case s.gaugeFn != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.gaugeFn()))
		return err
	case s.gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.gauge.Value()))
		return err
	case s.hist != nil:
		return writeHistogram(w, f, s)
	}
	return nil
}

// writeHistogram renders the cumulative bucket series plus _sum and
// _count. Bucket labels splice le into the series' label block.
func writeHistogram(w io.Writer, f *family, s *series) error {
	h := s.hist
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			f.name, spliceLabel(s.labels, "le", formatFloat(bound)), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, spliceLabel(s.labels, "le", "+Inf"), cum); err != nil {
		return err
	}
	sum := math.Float64frombits(h.sum.Load())
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, s.labels, formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, s.labels, cum)
	return err
}

// spliceLabel adds one label pair to a rendered label block.
func spliceLabel(block, key, value string) string {
	pair := fmt.Sprintf(`%s=%q`, key, value)
	if block == "" {
		return "{" + pair + "}"
	}
	return block[:len(block)-1] + "," + pair + "}"
}

// formatFloat renders a float the way Prometheus expects: integers
// without a decimal point, everything else in shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
