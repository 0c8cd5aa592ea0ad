// Package obs is the repository's stdlib-only observability layer: a
// concurrency-safe metrics registry (counters, gauges, histograms) with
// Prometheus text-format exposition and an expvar bridge, plus structured
// logging built on log/slog. Every subsystem — training, serving,
// experiments — reports through it, so operational questions ("how slow
// are forecasts right now, and why") have one answer surface:
// GET /metrics on the serving path.
//
// The registry deliberately implements only what the repo needs and
// nothing that would require a dependency: metric families keyed by name,
// per-family label sets, monotone counters, gauges, and bucketed
// histograms with quantile estimation.
package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value metric dimension. Families sort and serialize
// label sets deterministically, so {path,code} and {code,path} address
// the same series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// kind discriminates metric families for exposition.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is any concrete metric instance living inside a family.
type series interface {
	// write emits the exposition lines for this series. name is the
	// family name and lbl the pre-rendered label block (may be empty).
	write(w io.Writer, name, lbl string)
	// snapshotValue returns the point-in-time value for Snapshot.
	snapshotValue() SnapshotValue
}

// family groups all label variants of one metric name.
type family struct {
	name    string
	help    string
	typ     kind
	buckets []float64 // histogram families share bucket layout

	mu     sync.Mutex
	series map[string]series // keyed by canonical label string
	keys   []string          // insertion order for stable exposition
}

// Registry is a concurrency-safe collection of metric families. The zero
// value is not usable; construct with NewRegistry or use Default.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string // registration order for stable exposition

	// collectors run before every WriteTo/Snapshot to refresh gauges
	// whose source of truth lives outside the registry (see
	// RegisterCollector and RegisterRuntimeMetrics in runtime.go).
	collectorMu sync.Mutex
	collectors  []func()

	// "Registered once" state of RegisterBuildInfo and
	// RegisterRuntimeMetrics lives here, not in a package-level table
	// keyed by registry: such a table would keep every registry — and
	// through its collectors whatever they close over — alive forever.
	buildInfoOnce, runtimeOnce sync.Once
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry used by Default.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Commands and long-lived
// servers report here; tests should construct their own via NewRegistry.
func Default() *Registry { return defaultRegistry }

// family returns the family for name, creating it with the given type on
// first use. Re-registering a name with a different type panics: that is
// always a programming error, and silently merging would corrupt the
// exposition output.
func (r *Registry) family(name, help string, typ kind, buckets []float64) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{name: name, help: help, typ: typ, buckets: buckets, series: make(map[string]series)}
			r.families[name] = f
			r.order = append(r.order, name)
		}
		r.mu.Unlock()
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	return f
}

// get returns the series for the given label set, creating it via mk.
func (f *family) get(labels []Label, mk func() series) series {
	key := labelKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = mk()
		f.series[key] = s
		f.keys = append(f.keys, key)
	}
	return s
}

// labelKey canonicalizes a label set: sorted by key, rendered as the
// Prometheus label block ({k="v",...}), empty string for no labels.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the Prometheus text-format label escapes.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Counter is a monotonically increasing value. Safe for concurrent use.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v, which must be non-negative; negative deltas are dropped to
// preserve monotonicity.
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current total.
func (c *Counter) Value() float64 { return loadFloat(&c.bits) }

func (c *Counter) write(w io.Writer, name, lbl string) {
	fmt.Fprintf(w, "%s%s %s\n", name, lbl, formatFloat(c.Value()))
}

func (c *Counter) snapshotValue() SnapshotValue { return SnapshotValue{Value: c.Value()} }

// Gauge is a value that can go up and down. Safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) { addFloat(&g.bits, v) }

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return loadFloat(&g.bits) }

func (g *Gauge) write(w io.Writer, name, lbl string) {
	fmt.Fprintf(w, "%s%s %s\n", name, lbl, formatFloat(g.Value()))
}

func (g *Gauge) snapshotValue() SnapshotValue { return SnapshotValue{Value: g.Value()} }

// Counter returns the counter series for name and labels, registering the
// family on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.family(name, help, kindCounter, nil)
	return f.get(labels, func() series { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge series for name and labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.family(name, help, kindGauge, nil)
	return f.get(labels, func() series { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram series for name and labels. The first
// registration of a name fixes its bucket layout; later calls may pass
// nil buckets to reuse it.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	f := r.family(name, help, kindHistogram, normalizeBuckets(buckets))
	return f.get(labels, func() series { return newHistogram(f.buckets) }).(*Histogram)
}

// SnapshotValue is the point-in-time state of one series. Histograms fill
// Count/Sum/Buckets; counters and gauges fill Value.
type SnapshotValue struct {
	Value   float64
	Count   uint64
	Sum     float64
	Buckets []BucketCount
}

// BucketCount is one cumulative histogram bucket: observations ≤ Upper.
type BucketCount struct {
	Upper float64
	Count uint64
}

// Snapshot is the state of one series at one instant.
type Snapshot struct {
	Name   string
	Type   string
	Labels string // canonical label block, "" when unlabeled
	SnapshotValue
}

// Snapshot returns every series in the registry, ordered by family
// registration then series creation. It is safe to call concurrently with
// metric updates; each series is read atomically but the set as a whole
// is not a consistent cut.
func (r *Registry) Snapshot() []Snapshot {
	r.collect()
	r.mu.RLock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()

	var out []Snapshot
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, len(f.keys))
		copy(keys, f.keys)
		ss := make([]series, 0, len(keys))
		for _, k := range keys {
			ss = append(ss, f.series[k])
		}
		typ := f.typ.String()
		f.mu.Unlock()
		for i, s := range ss {
			out = append(out, Snapshot{Name: f.name, Type: typ, Labels: keys[i], SnapshotValue: s.snapshotValue()})
		}
	}
	return out
}

// WriteTo renders the registry in the Prometheus text exposition format
// (version 0.0.4). It implements io.WriterTo.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.collect()
	cw := &countingWriter{w: w}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.order))
	for _, n := range r.order {
		fams = append(fams, r.families[n])
	}
	r.mu.RUnlock()
	for _, f := range fams {
		f.mu.Lock()
		keys := make([]string, len(f.keys))
		copy(keys, f.keys)
		ss := make([]series, 0, len(keys))
		for _, k := range keys {
			ss = append(ss, f.series[k])
		}
		f.mu.Unlock()
		if len(ss) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(cw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(cw, "# TYPE %s %s\n", f.name, f.typ)
		for i, s := range ss {
			s.write(cw, f.name, keys[i])
		}
		if cw.err != nil {
			return cw.n, cw.err
		}
	}
	return cw.n, cw.err
}

func escapeHelp(h string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(h)
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.err = err
	return n, err
}

// expvarOnce guards the process-wide expvar name, which panics on
// duplicate registration.
var expvarOnce sync.Once

// PublishExpvar exposes the registry under the given expvar name (on the
// standard /debug/vars page). Repeated calls are no-ops: expvar names are
// process-global, so only the first registry wins.
func (r *Registry) PublishExpvar(name string) {
	expvarOnce.Do(func() {
		expvar.Publish(name, expvar.Func(func() any {
			snaps := r.Snapshot()
			m := make(map[string]any, len(snaps))
			for _, s := range snaps {
				key := s.Name + s.Labels
				if s.Type == "histogram" {
					m[key] = map[string]any{"count": s.Count, "sum": s.Sum}
				} else {
					m[key] = s.Value
				}
			}
			return m
		}))
	})
}

// float helpers: atomics over float64 bit patterns.

func floatBits(v float64) uint64 { return math.Float64bits(v) }

func loadFloat(a *atomic.Uint64) float64 { return math.Float64frombits(a.Load()) }

func addFloat(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.CompareAndSwap(old, next) {
			return
		}
	}
}

// formatFloat renders metric values the way Prometheus expects: integers
// without a decimal point, everything else in shortest form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
