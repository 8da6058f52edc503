package metrics

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Family types, as the TYPE line renders them.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// ContentType is the exposition content type served by Handler.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one name="value" pair on a series. Label names must be fixed at
// registration; values are escaped at render time.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Emit is the callback a Sampler uses to produce one sample.
type Emit func(value float64, labels ...Label)

// series is one labeled time series inside a family. Exactly one of the
// value sources is set.
type series struct {
	labels    string // pre-rendered `k="v",...` (no braces), "" if unlabeled
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
	counterFn func() uint64
	gaugeFn   func() float64
}

// family is one metric family: a name, HELP/TYPE metadata, and either a
// static series list or a scrape-time sampler.
type family struct {
	name, help, typ string
	series          []*series
	sampler         func(Emit)
}

// Registry holds metric families and renders them in the Prometheus text
// format. Registration is cheap but synchronized; reads of registered
// instruments are lock-free.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// lookup returns the family, creating it on first registration and
// panicking on metadata disagreement (a programming error, not a runtime
// condition).
func (r *Registry) lookup(name, help, typ string) *family {
	if name == "" {
		panic("metrics: empty family name")
	}
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.fams[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: family %s registered as %s and %s", name, f.typ, typ))
	}
	if f.sampler != nil {
		panic(fmt.Sprintf("metrics: family %s already has a sampler", name))
	}
	return f
}

// Counter registers (or extends) a counter family and returns the series'
// counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &Counter{}
	f := r.lookup(name, help, TypeCounter)
	f.series = append(f.series, &series{labels: renderLabels(labels), counter: c})
	return c
}

// Gauge registers (or extends) a gauge family and returns the series' gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := &Gauge{}
	f := r.lookup(name, help, TypeGauge)
	f.series = append(f.series, &series{labels: renderLabels(labels), gauge: g})
	return g
}

// Histogram registers a histogram family (one series per call) and returns
// the instrument.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := NewHistogram(bounds)
	f := r.lookup(name, help, TypeHistogram)
	f.series = append(f.series, &series{labels: renderLabels(labels), hist: h})
	return h
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — the bridge to counters that already live in another
// subsystem's atomics.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, TypeCounter)
	f.series = append(f.series, &series{labels: renderLabels(labels), counterFn: fn})
}

// GaugeFunc registers a gauge series read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, TypeGauge)
	f.series = append(f.series, &series{labels: renderLabels(labels), gaugeFn: fn})
}

// Sampler registers a whole family (counter or gauge typed) whose series
// are produced fresh on every scrape — the shape for per-partition stats,
// where the partition set changes under failover.
func (r *Registry) Sampler(name, help, typ string, sample func(Emit)) {
	if typ != TypeCounter && typ != TypeGauge {
		panic("metrics: sampler families must be counter or gauge typed")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[name]; dup {
		panic(fmt.Sprintf("metrics: family %s already registered", name))
	}
	r.fams[name] = &family{name: name, help: help, typ: typ, sampler: sample}
}

// Render writes the whole registry in exposition format, families sorted by
// name, series in registration (or emission) order.
func (r *Registry) Render(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		// Copied under mu: registering a new label set appends to series.
		fams = append(fams, *r.fams[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for i := range fams {
		b.Reset()
		renderFamily(&b, &fams[i])
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func renderFamily(b *strings.Builder, f *family) {
	b.WriteString("# HELP ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(f.help))
	b.WriteString("\n# TYPE ")
	b.WriteString(f.name)
	b.WriteByte(' ')
	b.WriteString(f.typ)
	b.WriteByte('\n')

	if f.sampler != nil {
		f.sampler(func(value float64, labels ...Label) {
			writeSample(b, f.name, renderLabels(labels), value)
		})
		return
	}
	for _, s := range f.series {
		switch {
		case s.counter != nil:
			writeUintSample(b, f.name, s.labels, s.counter.Value())
		case s.counterFn != nil:
			writeUintSample(b, f.name, s.labels, s.counterFn())
		case s.gauge != nil:
			writeSample(b, f.name, s.labels, s.gauge.Value())
		case s.gaugeFn != nil:
			writeSample(b, f.name, s.labels, s.gaugeFn())
		case s.hist != nil:
			writeHistogram(b, f.name, s.labels, s.hist)
		}
	}
}

// writeHistogram renders the _bucket/_sum/_count triplet with cumulative
// bucket counts, per the exposition invariants (le is cumulative and ends
// at +Inf; _count equals the +Inf bucket). Buckets that captured an
// exemplar get a trailing comment line — text-format 0.0.4 parsers skip
// comments, and operators get the trace ID of each bucket's slowest recent
// op for free on every scrape.
func writeHistogram(b *strings.Builder, name, labels string, h *Histogram) {
	counts, count, sum := h.Snapshot()
	exemplars := h.Exemplars()
	var cum uint64
	for i, bound := range h.bounds {
		cum += counts[i]
		le := joinLabels(labels, `le="`+formatFloat(bound)+`"`)
		writeUintSample(b, name+"_bucket", le, cum)
		writeExemplar(b, name, le, exemplars[i])
	}
	leInf := joinLabels(labels, `le="+Inf"`)
	writeUintSample(b, name+"_bucket", leInf, count)
	writeExemplar(b, name, leInf, exemplars[len(h.bounds)])
	writeSample(b, name+"_sum", labels, sum.Seconds())
	writeUintSample(b, name+"_count", labels, count)
}

// writeExemplar renders one bucket exemplar as an exposition comment:
//
//	# exemplar la_acquire_latency_seconds_bucket{le="0.002"} rid=la-1a2b-3 duration_ns=1830211
func writeExemplar(b *strings.Builder, name, le string, e *Exemplar) {
	if e == nil {
		return
	}
	b.WriteString("# exemplar ")
	b.WriteString(name)
	b.WriteString("_bucket{")
	b.WriteString(le)
	b.WriteString("} rid=")
	b.WriteString(e.RID)
	b.WriteString(" duration_ns=")
	b.WriteString(strconv.FormatInt(e.DurationNanos, 10))
	b.WriteByte('\n')
}

func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func writeUintSample(b *strings.Builder, name, labels string, v uint64) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(v, 10))
	b.WriteByte('\n')
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

// renderLabels pre-renders a label set to `k="v",...`, escaping values.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeHelp escapes backslash and newline, per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabelValue escapes backslash, double quote and newline.
func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler serves the registry as GET /metrics content.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = r.Render(w)
	})
}

// RegisterRuntime adds the stock Go process gauges every scrape target is
// expected to carry (goroutines, heap, GC totals).
func RegisterRuntime(r *Registry) {
	r.GaugeFunc("go_goroutines", "Number of live goroutines.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	var mu sync.Mutex
	var ms runtime.MemStats
	var last time.Time
	read := func(f func(*runtime.MemStats) float64) func() float64 {
		return func() float64 {
			mu.Lock()
			defer mu.Unlock()
			// One ReadMemStats per scrape, shared by the mem gauges.
			if now := time.Now(); now.Sub(last) > 100*time.Millisecond {
				runtime.ReadMemStats(&ms)
				last = now
			}
			return f(&ms)
		}
	}
	r.GaugeFunc("go_heap_alloc_bytes", "Bytes of allocated heap objects.",
		read(func(ms *runtime.MemStats) float64 { return float64(ms.HeapAlloc) }))
	r.CounterFunc("go_gc_cycles_total", "Completed GC cycles.", func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		runtime.ReadMemStats(&ms)
		last = time.Now()
		return uint64(ms.NumGC)
	})
}
