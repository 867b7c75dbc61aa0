package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// traceEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Instant events ("ph":"i") carry the cycle in ts; complete events
// ("ph":"X") additionally carry a duration; metadata events ("ph":"M")
// name the processes (device layers) and threads (routers).
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	Scope string         `json:"s,omitempty"`
	TS    uint64         `json:"ts"`
	Dur   uint64         `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container form, which both
// chrome://tracing and Perfetto accept. OtherData carries export-level
// metadata (for example the ring-buffer drop count); Perfetto shows it in
// the trace-info view.
type chromeTrace struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// TraceMeta is export-level metadata embedded in the written trace.
type TraceMeta struct {
	// DroppedEvents is how many events the capture buffer discarded before
	// export (RingSink.Dropped()): non-zero means the trace is partial,
	// covering only the most recent window.
	DroppedEvents uint64
}

// spanPID is the synthetic Perfetto "process" holding the per-CPU
// transaction-span tracks. Device layers use their layer index as pid;
// chips have far fewer layers than this, so it cannot collide.
const spanPID = 1 << 10

// counterPID is the synthetic Perfetto "process" holding the sampled
// counter tracks (WriteCounterTrace).
const counterPID = 1 << 11

// tidOf packs an in-plane position into a stable thread id. Chip widths
// are far below 4096, so the packing cannot collide.
func tidOf(x, y int) int { return x<<12 | y }

// WriteChromeTraceMeta exports events as Chrome trace-event JSON. Each
// device layer becomes a "process" and each emitting node a "thread"
// within it, so Perfetto groups activity spatially; the simulation cycle
// is mapped onto the microsecond timestamp axis (1 cycle = 1 us of trace
// time). EvSpan events render differently: each becomes a complete slice
// ("ph":"X", named after its latency component, lasting its duration) on a
// per-CPU track under a synthetic "transactions" process, so a
// transaction's lifetime reads as a Perfetto span chain rather than a
// point. Events must be what a Sink received in order; the exporter sorts
// by cycle to tolerate ring-buffer wrap seams. A non-zero meta is embedded
// in the trace's otherData section.
func WriteChromeTraceMeta(w io.Writer, events []Event, meta TraceMeta) error {
	sorted := make([]Event, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Cycle < sorted[j].Cycle })

	type nodeKey struct{ layer, tid int }
	layers := map[int]bool{}
	nodes := map[nodeKey][2]int{}
	spanCPUs := map[int]bool{}
	out := make([]traceEvent, 0, len(sorted)+16)
	for _, e := range sorted {
		if e.Kind == EvSpan {
			spanCPUs[e.X] = true
			out = append(out, traceEvent{
				Name:  Component(e.A).String(),
				Cat:   CatSpan.String(),
				Phase: "X",
				TS:    e.Cycle,
				Dur:   e.B,
				PID:   spanPID,
				TID:   e.X,
				Args:  map[string]any{"txn": e.ID},
			})
			continue
		}
		tid := tidOf(e.X, e.Y)
		layers[e.Layer] = true
		nodes[nodeKey{e.Layer, tid}] = [2]int{e.X, e.Y}
		out = append(out, traceEvent{
			Name:  e.Kind.String(),
			Cat:   e.Kind.Category().String(),
			Phase: "i",
			Scope: "t",
			TS:    e.Cycle,
			PID:   e.Layer,
			TID:   tid,
			Args: map[string]any{
				"id": e.ID,
				"a":  e.A,
				"b":  e.B,
			},
		})
	}

	meta2 := make([]traceEvent, 0, len(layers)+len(nodes)+len(spanCPUs)+1)
	for l := range layers {
		meta2 = append(meta2, traceEvent{
			Name: "process_name", Phase: "M", PID: l,
			Args: map[string]any{"name": fmt.Sprintf("layer %d", l)},
		})
	}
	for k, xy := range nodes {
		meta2 = append(meta2, traceEvent{
			Name: "thread_name", Phase: "M", PID: k.layer, TID: k.tid,
			Args: map[string]any{"name": fmt.Sprintf("node (%d,%d)", xy[0], xy[1])},
		})
	}
	if len(spanCPUs) > 0 {
		meta2 = append(meta2, traceEvent{
			Name: "process_name", Phase: "M", PID: spanPID,
			Args: map[string]any{"name": "transactions"},
		})
		for c := range spanCPUs {
			meta2 = append(meta2, traceEvent{
				Name: "thread_name", Phase: "M", PID: spanPID, TID: c,
				Args: map[string]any{"name": fmt.Sprintf("cpu %d", c)},
			})
		}
	}
	sort.Slice(meta2, func(i, j int) bool {
		if meta2[i].PID != meta2[j].PID {
			return meta2[i].PID < meta2[j].PID
		}
		return meta2[i].TID < meta2[j].TID
	})

	tr := chromeTrace{
		TraceEvents:     append(meta2, out...),
		DisplayTimeUnit: "ms",
	}
	if meta.DroppedEvents > 0 {
		tr.OtherData = map[string]any{"dropped_events": meta.DroppedEvents}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// WriteCounterTrace exports a sampled TimeSeries as Perfetto counter
// tracks: each column (beyond the leading cycle) becomes one "ph":"C"
// counter whose value steps at every sampling instant, under a synthetic
// "interval metrics" process. Open alongside an event trace to scrub
// power, temperature, and rate metrics against individual events.
func WriteCounterTrace(w io.Writer, ts *TimeSeries) error {
	out := make([]traceEvent, 0, len(ts.Rows)*max(len(ts.Header)-1, 0)+1)
	out = append(out, traceEvent{
		Name: "process_name", Phase: "M", PID: counterPID,
		Args: map[string]any{"name": "interval metrics"},
	})
	for _, row := range ts.Rows {
		cycle := uint64(row[0])
		for i := 1; i < len(row) && i < len(ts.Header); i++ {
			out = append(out, traceEvent{
				Name:  ts.Header[i],
				Cat:   "metrics",
				Phase: "C",
				TS:    cycle,
				PID:   counterPID,
				Args:  map[string]any{"value": row[i]},
			})
		}
	}
	return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ms"})
}
