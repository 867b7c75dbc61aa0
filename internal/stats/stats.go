// Package stats provides the lightweight counters and latency accumulators
// used throughout the simulator to produce the paper's metrics: average L2
// hit latency, migration counts, IPC inputs, and network traffic.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.n++ }

// Add adds delta to the counter.
func (c *Counter) Add(delta uint64) { c.n += delta }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Latency accumulates per-event latencies (in cycles) and reports their
// mean, extremes, and total.
type Latency struct {
	count uint64
	sum   uint64
	min   uint64
	max   uint64
}

// Observe records one latency sample.
func (l *Latency) Observe(cycles uint64) {
	if l.count == 0 || cycles < l.min {
		l.min = cycles
	}
	if cycles > l.max {
		l.max = cycles
	}
	l.count++
	l.sum += cycles
}

// Count returns the number of samples observed.
func (l *Latency) Count() uint64 { return l.count }

// Sum returns the total of all samples.
func (l *Latency) Sum() uint64 { return l.sum }

// Mean returns the average sample, or 0 with no samples.
func (l *Latency) Mean() float64 {
	if l.count == 0 {
		return 0
	}
	return float64(l.sum) / float64(l.count)
}

// Min returns the smallest sample observed. With no samples it returns 0,
// which is indistinguishable from a true 0-cycle minimum — callers that
// may see an empty accumulator should check Count first.
func (l *Latency) Min() uint64 { return l.min }

// Max returns the largest sample observed, or 0 with no samples.
func (l *Latency) Max() uint64 { return l.max }

// Reset clears all samples.
func (l *Latency) Reset() { *l = Latency{} }

// String summarizes the accumulator. An empty accumulator says so instead
// of printing a misleading min=0 max=0.
func (l *Latency) String() string {
	if l.count == 0 {
		return "n=0 (no samples)"
	}
	return fmt.Sprintf("n=%d mean=%.2f min=%d max=%d", l.count, l.Mean(), l.min, l.max)
}

// Histogram is a fixed-bucket histogram for cycle-valued samples. Bucket i
// holds samples in [i*width, (i+1)*width); the final bucket is open-ended.
// The largest sample ever observed is tracked separately, so percentiles
// that land in the open-ended bucket report a real value instead of the
// bucket's fabricated lower edge.
type Histogram struct {
	width   uint64
	buckets []uint64
	total   uint64
	max     uint64
}

// NewHistogram creates a histogram with n buckets of the given width.
// Width must be at least 1 and n at least 1.
func NewHistogram(n int, width uint64) *Histogram {
	if n < 1 || width < 1 {
		panic("stats: histogram needs n >= 1 and width >= 1")
	}
	return &Histogram{width: width, buckets: make([]uint64, n)}
}

// Observe adds a sample to the appropriate bucket.
func (h *Histogram) Observe(v uint64) {
	i := int(v / h.width)
	if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
	h.total++
	if v > h.max {
		h.max = v
	}
}

// Max returns the largest sample observed, or 0 with no samples.
func (h *Histogram) Max() uint64 { return h.max }

// Total returns the number of samples.
func (h *Histogram) Total() uint64 { return h.total }

// Width returns the bucket width.
func (h *Histogram) Width() uint64 { return h.width }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) uint64 { return h.buckets[i] }

// NumBuckets returns the number of buckets.
func (h *Histogram) NumBuckets() int { return len(h.buckets) }

// Percentile returns the smallest bucket upper bound at or below which at
// least p (0..100) percent of the samples fall. Returns 0 for an empty
// histogram. When the answer lands in the open-ended last bucket, whose
// upper bound is unknown, the observed maximum is reported instead of the
// fabricated edge n*width — large tail samples are no longer understated.
func (h *Histogram) Percentile(p float64) uint64 {
	return PercentileFromBuckets(h.buckets, h.width, h.max, p)
}

// PercentileFromBuckets is the percentile computation shared by Histogram,
// the sampler's interval deltas, and the span breakdown: given fixed-width
// bucket counts (the last bucket open-ended) and the largest sample
// observed, it returns the smallest bucket upper bound at or below which at
// least p (0..100) percent of the samples fall, substituting max for the
// open bucket's unknown edge. Returns 0 when the buckets are empty.
func PercentileFromBuckets(buckets []uint64, width, max uint64, p float64) uint64 {
	var total uint64
	for _, b := range buckets {
		total += b
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(float64(total) * p / 100))
	var cum uint64
	for i, b := range buckets {
		cum += b
		if cum >= target {
			if i == len(buckets)-1 {
				return max
			}
			return uint64(i+1) * width
		}
	}
	return max
}

// Dist couples a Latency accumulator with a Histogram so a metric can
// report both moments (mean, min, max) and percentiles from one Observe
// call. It is the building block of the span recorder's per-component
// breakdown and anywhere else a "mean + P95" summary is wanted.
type Dist struct {
	lat  Latency
	hist *Histogram
}

// NewDist returns a distribution with n histogram buckets of the given
// width.
func NewDist(n int, width uint64) Dist {
	return Dist{hist: NewHistogram(n, width)}
}

// Observe records one sample.
func (d *Dist) Observe(v uint64) {
	d.lat.Observe(v)
	d.hist.Observe(v)
}

// Count returns the number of samples observed.
func (d *Dist) Count() uint64 { return d.lat.Count() }

// Sum returns the total of all samples.
func (d *Dist) Sum() uint64 { return d.lat.Sum() }

// Mean returns the average sample, or 0 with no samples.
func (d *Dist) Mean() float64 { return d.lat.Mean() }

// Max returns the largest sample observed, or 0 with no samples.
func (d *Dist) Max() uint64 { return d.lat.Max() }

// Percentile returns the p-th percentile (see Histogram.Percentile).
func (d *Dist) Percentile(p float64) uint64 { return d.hist.Percentile(p) }

// P95 returns the 95th percentile, the summary used throughout the
// breakdown tables.
func (d *Dist) P95() uint64 { return d.hist.Percentile(95) }

// Reset clears all samples. The histogram keeps its shape.
func (d *Dist) Reset() {
	d.lat.Reset()
	clear(d.hist.buckets)
	d.hist.total = 0
	d.hist.max = 0
}

// Set is a named collection of counters, handy for dumping simulator
// summaries in a stable order. Entries are either Counters owned
// elsewhere (Register) or read-only closures (RegisterFunc) for derived
// counts that exist only as computations.
type Set struct {
	counters map[string]*Counter
	funcs    map[string]func() uint64
}

// NewSet returns an empty counter set.
func NewSet() *Set {
	return &Set{counters: make(map[string]*Counter), funcs: make(map[string]func() uint64)}
}

// Names returns all counter names in sorted order.
func (s *Set) Names() []string {
	names := make([]string, 0, len(s.counters)+len(s.funcs))
	for n := range s.counters {
		names = append(names, n)
	}
	for n := range s.funcs {
		if _, dup := s.counters[n]; !dup {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Register installs an existing counter under the given name, so a
// component can expose counters it already owns (struct fields, hot-path
// increments untouched) through the set's Names/Value snapshot interface.
// Registering a name twice replaces the earlier counter.
func (s *Set) Register(name string, c *Counter) { s.counters[name] = c }

// RegisterFunc installs a derived counter: a closure evaluated at every
// Value call. It covers counts that exist only as computations — e.g. a
// total summed over components (fabric bus flits) — so they flow through
// the same Names/Value snapshot interface the Sampler's per-interval
// deltas use. A *Counter registered under the same name wins.
func (s *Set) RegisterFunc(name string, fn func() uint64) { s.funcs[name] = fn }

// NameValue is one counter's name and value, the element of a Snapshot.
type NameValue struct {
	Name  string
	Value uint64
}

// Snapshot evaluates every counter (owned and derived) and returns the
// values as a self-contained slice in sorted name order. The counters
// themselves are not synchronized — Snapshot must be called from the
// goroutine that owns them (for a simulation, the goroutine stepping the
// engine) — but the returned slice shares no memory with the set, so it
// is safe to publish to other goroutines; this is how the serving tier
// exposes a running job's counters on /metrics without racing the
// simulator's hot-path increments.
func (s *Set) Snapshot() []NameValue {
	names := s.Names()
	snap := make([]NameValue, len(names))
	for i, n := range names {
		snap[i] = NameValue{Name: n, Value: s.Value(n)}
	}
	return snap
}

// Value returns the value of the named counter, or 0 if absent.
func (s *Set) Value(name string) uint64 {
	if c, ok := s.counters[name]; ok {
		return c.Value()
	}
	if fn, ok := s.funcs[name]; ok {
		return fn()
	}
	return 0
}
