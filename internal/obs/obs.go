// Package obs is a dependency-free metrics registry for the service
// layer: atomic counters, gauges and fixed-bucket histograms with
// Prometheus text exposition. The paper's core argument is that a
// runtime must continuously observe its own execution rates to detect
// dynamic asymmetry; obs applies the same discipline to the fleet
// itself — every hot-path update is a handful of atomic operations and
// zero allocations, so instrumentation never becomes the interference
// it is supposed to measure.
//
// Metrics are registered get-or-create by (name, labels): registering
// the same series twice returns the same instance, so a re-wrapped
// backend fleet (tests swap fleets freely) never panics or double
// counts. All metric methods are nil-tolerant, so call sites can run
// unconditionally even when a component was built without a registry.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one exposition label pair.
type Label struct {
	Key, Val string
}

// L is shorthand for a Label.
func L(key, val string) Label { return Label{Key: key, Val: val} }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n < 0 is a programming error and is ignored).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count. Zero on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. Safe on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// add adds delta (may be negative).
func (g *Gauge) add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.add(-1) }

// value returns the current value. Zero on nil.
func (g *Gauge) value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram. Bucket bounds are
// upper-inclusive (Prometheus "le" semantics); an implicit +Inf bucket
// catches the rest. Observe is wait-free except for the sum, which is a
// CAS loop over float bits.
type Histogram struct {
	bounds []float64 // sorted upper bounds, exclusive of +Inf
	counts []atomic.Int64
	inf    atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value. Safe on a nil histogram; zero allocations.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bucket counts are small (≤ ~20) and the branch-free
	// alternative buys nothing at this scale.
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// loadCount returns the number of observations. Zero on nil.
func (h *Histogram) loadCount() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// loadSum returns the sum of observed values. Zero on nil.
func (h *Histogram) loadSum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ExpBuckets returns n upper bounds starting at start, each factor times
// the previous — the usual latency ladder (e.g. 1ms..~1000s).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("obs: ExpBuckets(%g, %g, %d): need start > 0, factor > 1, n >= 1", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metricKind discriminates the exposition TYPE.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("metricKind(%d)", int(k))
	}
}

// series is one registered (name, labels) instance.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every series of one metric name under a single
// HELP/TYPE block.
type family struct {
	name   string
	help   string
	kind   metricKind
	bounds []float64 // histogram families only
	series []*series
	byKey  map[string]*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // sorted registration names, for stable exposition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName is the Prometheus metric-name grammar; labels use the same
// minus the colon.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, l := range labels {
		sb.WriteString(l.Key)
		sb.WriteByte(0)
		sb.WriteString(l.Val)
		sb.WriteByte(0)
	}
	return sb.String()
}

// lookup get-or-creates the (name, labels) series of the given kind.
func (r *Registry) lookup(name, help string, kind metricKind, bounds []float64, labels []Label) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) || strings.ContainsRune(l.Key, ':') {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l.Key, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, byKey: make(map[string]*series)}
		r.families[name] = f
		i := sort.SearchStrings(r.names, name)
		r.names = append(r.names, "")
		copy(r.names[i+1:], r.names[i:])
		r.names[i] = name
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, f.kind))
	}
	key := labelKey(labels)
	s, ok := f.byKey[key]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...)}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = &Histogram{bounds: append([]float64(nil), f.bounds...), counts: make([]atomic.Int64, len(f.bounds))}
		}
		f.byKey[key] = s
		f.series = append(f.series, s)
	}
	return s
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, kindCounter, nil, labels).c
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, kindGauge, nil, labels).g
}

// Histogram registers (or returns the existing) histogram series. The
// bucket bounds of the first registration win for the whole family; they
// must be sorted ascending.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds are not sorted", name))
	}
	return r.lookup(name, help, kindHistogram, bounds, labels).h
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// writeLabels renders {k="v",...}; extra, when non-empty, is appended as
// a pre-rendered pair (the histogram "le").
func writeLabels(sb *strings.Builder, labels []Label, extra string) {
	if len(labels) == 0 && extra == "" {
		return
	}
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Val))
		sb.WriteByte('"')
	}
	if extra != "" {
		if len(labels) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extra)
	}
	sb.WriteByte('}')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writePrometheus renders every registered series in the Prometheus text
// exposition format (version 0.0.4), families sorted by name.
func (r *Registry) writePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.names))
	for i, n := range r.names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var sb strings.Builder
	for _, f := range fams {
		// Families and their series lists are append-only; reading them
		// outside the lock races only with growth, and the slice header
		// was copied above.
		r.mu.Lock()
		ss := append([]*series(nil), f.series...)
		r.mu.Unlock()
		if f.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range ss {
			switch f.kind {
			case kindCounter:
				sb.WriteString(f.name)
				writeLabels(&sb, s.labels, "")
				sb.WriteByte(' ')
				sb.WriteString(strconv.FormatInt(s.c.Value(), 10))
				sb.WriteByte('\n')
			case kindGauge:
				sb.WriteString(f.name)
				writeLabels(&sb, s.labels, "")
				sb.WriteByte(' ')
				sb.WriteString(strconv.FormatInt(s.g.value(), 10))
				sb.WriteByte('\n')
			case kindHistogram:
				cum := int64(0)
				for i, b := range s.h.bounds {
					cum += s.h.counts[i].Load()
					sb.WriteString(f.name)
					sb.WriteString("_bucket")
					writeLabels(&sb, s.labels, `le="`+formatFloat(b)+`"`)
					sb.WriteByte(' ')
					sb.WriteString(strconv.FormatInt(cum, 10))
					sb.WriteByte('\n')
				}
				sb.WriteString(f.name)
				sb.WriteString("_bucket")
				writeLabels(&sb, s.labels, `le="+Inf"`)
				sb.WriteByte(' ')
				sb.WriteString(strconv.FormatInt(cum+s.h.inf.Load(), 10))
				sb.WriteByte('\n')
				sb.WriteString(f.name)
				sb.WriteString("_sum")
				writeLabels(&sb, s.labels, "")
				sb.WriteByte(' ')
				sb.WriteString(formatFloat(s.h.loadSum()))
				sb.WriteByte('\n')
				sb.WriteString(f.name)
				sb.WriteString("_count")
				writeLabels(&sb, s.labels, "")
				sb.WriteByte(' ')
				sb.WriteString(strconv.FormatInt(s.h.loadCount(), 10))
				sb.WriteByte('\n')
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Handler serves the registry at GET on any path (mount it at /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.writePrometheus(w)
	})
}
