package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric: its own atomic
// count plus the current values of the views registered on it (see
// Registry.CounterView). Increments are atomic so counters shared across
// engine workers stay exact; integer addition is commutative, so totals are
// independent of worker scheduling and of view registration order.
//
// A view is a plain int its component increments without synchronization,
// so Value (and any snapshot) must run on the goroutine that owns the
// scheduler of every component viewed by the counter, or after those
// schedulers have stopped: WriteJSON after a run, a TimeSeries sampling on
// the kernel goroutine and a check between Scheduler.RunFor calls all do.
type Counter struct {
	v     atomic.Int64
	mu    sync.Mutex
	views map[*int]struct{} // guarded by mu
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reports the current count: the counter's own increments plus the
// sum of its views.
func (c *Counter) Value() int64 {
	n := c.v.Load()
	c.mu.Lock()
	defer c.mu.Unlock()
	for src := range c.views {
		n += int64(*src)
	}
	return n
}

// Gauge is a last-write-wins float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reports the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Buckets, count and sum update
// and snapshot under one lock, so a snapshot never reports a combination no
// real instant produced: Σ buckets always equals count (the torn-read test
// pins this). Observe must still be called from deterministic call sites (a
// kernel goroutine, or the caller side of an engine sweep) when snapshots
// need to be byte-identical across runs — which is how every histogram in
// this repository is fed.
type Histogram struct {
	bounds  []float64 // inclusive upper bounds, ascending; implicit +Inf last
	nan     atomic.Int64
	mu      sync.Mutex
	buckets []int64 // guarded by mu
	count   int64   // guarded by mu
	sum     float64 // guarded by mu
}

// Observe records one sample. NaN is not a measurement: it would poison
// the running sum for good and has no bucket it meaningfully belongs to,
// so NaN samples are dropped and tallied in a dedicated counter
// (NaNDropped, the "nan" field of the snapshot) instead.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		h.nan.Add(1)
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.buckets[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum reports the total of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// NaNDropped reports how many NaN samples Observe discarded.
func (h *Histogram) NaNDropped() int64 { return h.nan.Load() }

// snapshot reads buckets, count and sum in one critical section, so the
// three always belong to the same observation prefix even when a snapshot
// races an Observe — Σ buckets equals count in every snapshot.
func (h *Histogram) snapshot() (count int64, sum float64, buckets []int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count, h.sum, append([]int64(nil), h.buckets...)
}

// Registry is a named collection of metrics. Metric constructors are
// get-or-create, so independent components that agree on a name (every
// mac.Port wired to the registry, say) share one aggregate metric. A
// Registry is safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	names []string       // registration order; snapshots sort; guarded by mu
	items map[string]any // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{items: make(map[string]any)}
}

// Counter returns the named counter, creating it on first use. Registering
// a name twice with different metric kinds panics: it is always a wiring
// bug, and silently returning a fresh metric would split the series.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if it, ok := r.items[name]; ok {
		c, ok := it.(*Counter)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q already registered as %T", name, it))
		}
		return c
	}
	c := &Counter{}
	r.register(name, c)
	return c
}

// CounterView registers *src as a view of the named counter, creating the
// counter on first use: from then on the counter's Value includes whatever
// *src holds when it is read. This is how components export their Stats
// fields without counting anything twice. Registering the same src again
// is a no-op, so a component may Observe the same registry any number of
// times; registration is O(1) however many views a counter has.
func (r *Registry) CounterView(name string, src *int) {
	c := r.Counter(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.views == nil {
		c.views = make(map[*int]struct{})
	}
	c.views[src] = struct{}{}
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if it, ok := r.items[name]; ok {
		g, ok := it.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q already registered as %T", name, it))
		}
		return g
	}
	g := &Gauge{}
	r.register(name, g)
	return g
}

// Histogram returns the named histogram with the given ascending upper
// bucket bounds (an implicit +Inf bucket is appended), creating it on
// first use. Re-registration returns the existing histogram; the bounds of
// the first registration win.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if it, ok := r.items[name]; ok {
		h, ok := it.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("obs: metric %q already registered as %T", name, it))
		}
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending at %d", name, i))
		}
	}
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]int64, len(bounds)+1),
	}
	r.register(name, h)
	return h
}

// register records the metric; the caller holds r.mu.
//
//wile:holds r.mu
func (r *Registry) register(name string, it any) {
	r.items[name] = it
	r.names = append(r.names, name)
}

// Names reports the registered metric names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]string(nil), r.names...)
	sort.Strings(out)
	return out
}

// WriteJSON snapshots every metric as a single JSON object, grouped by
// kind and sorted by name — a deterministic serialization of deterministic
// values, so two identical runs snapshot byte-identically.
func (r *Registry) WriteJSON(w io.Writer) error {
	names := r.Names()
	r.mu.Lock()
	items := make(map[string]any, len(r.items))
	for k, v := range r.items {
		items[k] = v
	}
	r.mu.Unlock()

	bw := &errWriter{w: w}
	bw.printf("{\n  \"counters\": {")
	writeKind(bw, names, func(name string) (string, bool) {
		c, ok := items[name].(*Counter)
		if !ok {
			return "", false
		}
		return strconv.FormatInt(c.Value(), 10), true
	})
	bw.printf("},\n  \"gauges\": {")
	writeKind(bw, names, func(name string) (string, bool) {
		g, ok := items[name].(*Gauge)
		if !ok {
			return "", false
		}
		var buf [32]byte
		return string(appendValue(buf[:0], g.Value())), true
	})
	bw.printf("},\n  \"histograms\": {")
	writeKind(bw, names, func(name string) (string, bool) {
		h, ok := items[name].(*Histogram)
		if !ok {
			return "", false
		}
		count, sum, buckets := h.snapshot()
		var b []byte
		b = append(b, `{"count":`...)
		b = strconv.AppendInt(b, count, 10)
		b = append(b, `,"sum":`...)
		b = appendValue(b, sum)
		b = append(b, `,"nan":`...)
		b = strconv.AppendInt(b, h.NaNDropped(), 10)
		b = append(b, `,"buckets":[`...)
		for i := range buckets {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"le":`...)
			if i < len(h.bounds) {
				b = appendValue(b, h.bounds[i])
			} else {
				b = append(b, `"+Inf"`...)
			}
			b = append(b, `,"count":`...)
			b = strconv.AppendInt(b, buckets[i], 10)
			b = append(b, '}')
		}
		b = append(b, `]}`...)
		return string(b), true
	})
	bw.printf("}\n}\n")
	return bw.err
}

// writeKind emits the "name": value pairs of one metric kind.
func writeKind(bw *errWriter, names []string, value func(name string) (string, bool)) {
	first := true
	for _, name := range names {
		v, ok := value(name)
		if !ok {
			continue
		}
		if !first {
			bw.printf(",")
		}
		first = false
		bw.printf("\n    %s: %s", quote(name), v)
	}
	if !first {
		bw.printf("\n  ")
	}
}
