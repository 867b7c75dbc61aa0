package prof

import (
	"encoding/json"
	"io"
)

// Perfetto export of the host timeline. The existing Chrome-trace export
// (obs.WriteChromeTraceMeta) plots *simulated* time — cycles on the x axis;
// this one plots *host* time: one "run" slice per Engine.Run window plus
// counter tracks for throughput and the per-phase share, so a stall or a
// throughput cliff in a long run is visible at a glance in
// ui.perfetto.dev, on the same time base as a Go CPU profile taken
// alongside.

// tlEvent is one Chrome-trace event; field tags follow the Trace Event
// Format (the same subset obs.WriteChromeTraceMeta emits).
type tlEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type tlFile struct {
	TraceEvents []tlEvent      `json:"traceEvents"`
	OtherData   map[string]any `json:"otherData,omitempty"`
}

// hostPID is the synthetic process id for the host timeline, distinct
// from the sim-time exporter's span/counter pids so a merged trace keeps
// the two time bases in separate lanes.
const hostPID = 1 << 12

// WriteTimeline writes the recorder's rolling run-window series as a
// Chrome-trace/Perfetto JSON host timeline: a slice per run window and
// counters for cycles/sec and each phase's within-window share.
func (r *Recorder) WriteTimeline(w io.Writer) error {
	f := tlFile{
		OtherData: map[string]any{
			"source":     "nimsim host profiler",
			"goos":       r.host.GOOS,
			"goarch":     r.host.GOARCH,
			"go":         r.host.GoVersion,
			"numCPU":     r.host.NumCPU,
			"gomaxprocs": r.host.GOMAXPROCS,
		},
	}
	f.TraceEvents = append(f.TraceEvents,
		tlEvent{Name: "process_name", Ph: "M", PID: hostPID,
			Args: map[string]any{"name": "nimsim host profiler"}},
		tlEvent{Name: "thread_name", Ph: "M", PID: hostPID, TID: 1,
			Args: map[string]any{"name": "engine runs"}},
	)
	for _, win := range r.windows {
		ts := float64(win.startNs) / 1e3
		cps := 0.0
		if win.durNs > 0 {
			cps = float64(win.cycles) / (float64(win.durNs) / 1e9)
		}
		f.TraceEvents = append(f.TraceEvents, tlEvent{
			Name: "run", Ph: "X", TS: ts, Dur: float64(win.durNs) / 1e3,
			PID: hostPID, TID: 1,
			Args: map[string]any{"cycles": win.cycles, "cycles_per_sec": cps},
		})
		f.TraceEvents = append(f.TraceEvents, tlEvent{
			Name: "cycles/sec", Ph: "C", TS: ts, PID: hostPID,
			Args: map[string]any{"cycles/sec": cps},
		})
		shares := map[string]any{}
		for p := 0; p < NumPhases; p++ {
			if win.durNs > 0 {
				shares[Phase(p).String()] = float64(win.phaseNs[p]) / float64(win.durNs) * 100
			}
		}
		f.TraceEvents = append(f.TraceEvents, tlEvent{
			Name: "phase share %", Ph: "C", TS: ts, PID: hostPID, Args: shares,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}
