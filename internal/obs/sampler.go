package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/stats"
)

// TimeSeries is a sampled metrics table: one row per sampling instant,
// first column always "cycle", strictly increasing down the rows.
type TimeSeries struct {
	Header []string
	Rows   [][]float64

	// DroppedEvents mirrors the trace ring's drop count when the series
	// was captured alongside an event trace (parity with the Chrome-trace
	// otherData metadata): non-zero marks the companion trace as partial.
	// It rides the exports — an otherData section in JSON, a trailing
	// comment line in CSV — only when non-zero.
	DroppedEvents uint64
}

// WriteCSV writes the series as an RFC-4180 CSV with a header row.
// Integral values print without a decimal point. A non-zero drop count
// appends a "# dropped_events=N" comment line after the data.
func (ts *TimeSeries) WriteCSV(w io.Writer) error {
	for i, h := range ts.Header {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, h); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, row := range ts.Rows {
		for i, v := range row {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, formatSample(v)); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	if ts.DroppedEvents > 0 {
		if _, err := fmt.Fprintf(w, "# dropped_events=%d\n", ts.DroppedEvents); err != nil {
			return err
		}
	}
	return nil
}

// formatSample renders a sample compactly: integers without a fraction,
// everything else with four significant decimals.
func formatSample(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 4, 64)
}

// WriteJSON writes the series as a JSON object {"header":[...],"rows":[...]},
// plus an otherData section carrying the drop count when non-zero (the
// same shape the Chrome-trace export uses).
func (ts *TimeSeries) WriteJSON(w io.Writer) error {
	var other map[string]any
	if ts.DroppedEvents > 0 {
		other = map[string]any{"dropped_events": ts.DroppedEvents}
	}
	return json.NewEncoder(w).Encode(struct {
		Header    []string       `json:"header"`
		Rows      [][]float64    `json:"rows"`
		OtherData map[string]any `json:"otherData,omitempty"`
	}{ts.Header, ts.Rows, other})
}

// column is one sampled metric: a name and a closure producing the value
// for the current row.
type column struct {
	name   string
	sample func(cycle uint64) float64
}

// Sampler takes periodic metric snapshots: every Interval cycles it
// evaluates each registered column and appends one row to its TimeSeries.
// It implements sim.Ticker; register it with the engine to drive it. An
// unattached simulation never constructs one, so sampling costs nothing
// by default.
type Sampler struct {
	interval uint64
	cols     []column
	series   TimeSeries

	// primed reports whether the delta baselines have been established:
	// the first Tick evaluates every column once and discards the values,
	// so the first emitted row measures a real interval instead of
	// "everything since machine construction".
	primed bool

	// lastSet holds the previous cumulative value per counter-set column,
	// for per-interval deltas.
	lastSet map[string]uint64
}

// NewSampler creates a sampler with the given period in cycles (>= 1).
func NewSampler(interval uint64) *Sampler {
	if interval < 1 {
		panic("obs: sampler interval must be >= 1")
	}
	return &Sampler{interval: interval, lastSet: make(map[string]uint64)}
}

// Interval returns the sampling period in cycles.
func (s *Sampler) Interval() uint64 { return s.interval }

// AddGauge registers an instantaneous column: fn is evaluated at each
// sampling instant and its value recorded as-is.
func (s *Sampler) AddGauge(name string, fn func(cycle uint64) float64) {
	s.cols = append(s.cols, column{name: name, sample: fn})
}

// AddCounterSet registers one per-interval-delta column for every counter
// currently in the set (stats.Set is the counter registry backing the
// sampler). Each row reports how much each counter grew since the previous
// row; a counter reset mid-run (ResetStats) restarts its delta from the
// new cumulative value instead of going negative.
func (s *Sampler) AddCounterSet(set *stats.Set) {
	for _, name := range set.Names() {
		name := name
		s.cols = append(s.cols, column{name: name, sample: func(uint64) float64 {
			cur := set.Value(name)
			last := s.lastSet[name]
			s.lastSet[name] = cur
			if cur < last { // counter was reset since the previous row
				last = 0
			}
			return float64(cur - last)
		}})
	}
}

// Tick samples one row whenever the cycle reaches an interval boundary.
// It is cheap on non-boundary cycles: one modulo and one branch. The very
// first Tick after attachment only primes the delta baselines (no row), so
// attaching mid-run — e.g. right after ResetStats — starts a fresh window
// instead of reporting cumulative totals as the first "interval".
func (s *Sampler) Tick(cycle uint64) {
	if !s.primed {
		s.primed = true
		for _, c := range s.cols {
			c.sample(cycle)
		}
		return
	}
	if cycle == 0 || cycle%s.interval != 0 {
		return
	}
	if s.series.Header == nil {
		s.series.Header = make([]string, 1, len(s.cols)+1)
		s.series.Header[0] = "cycle"
		for _, c := range s.cols {
			s.series.Header = append(s.series.Header, c.name)
		}
	}
	row := make([]float64, 0, len(s.cols)+1)
	row = append(row, float64(cycle))
	for _, c := range s.cols {
		row = append(row, c.sample(cycle))
	}
	s.series.Rows = append(s.series.Rows, row)
}

// Series returns the accumulated time series. The header materializes on
// the first sampled row; an empty run yields a header-only series. The
// sampler only appends rows, and never changes a row or the header once
// made, so a caller may keep the slices of an earlier Series while
// sampling goes on; the serving tier streams a running job's rows that
// way.
func (s *Sampler) Series() *TimeSeries {
	if s.series.Header == nil {
		hdr := make([]string, 1, len(s.cols)+1)
		hdr[0] = "cycle"
		for _, c := range s.cols {
			hdr = append(hdr, c.name)
		}
		return &TimeSeries{Header: hdr}
	}
	return &s.series
}

// Check verifies internal consistency (row widths and cycle monotonicity);
// it is for tests.
func (s *Sampler) Check() error {
	ts := s.Series()
	var prev float64 = -1
	for i, row := range ts.Rows {
		if len(row) != len(ts.Header) {
			return fmt.Errorf("obs: row %d has %d fields, header has %d", i, len(row), len(ts.Header))
		}
		if row[0] <= prev {
			return fmt.Errorf("obs: row %d cycle %v not after %v", i, row[0], prev)
		}
		prev = row[0]
	}
	return nil
}
