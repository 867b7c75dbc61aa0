package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxSpans bounds a traced run's memory: the hit workload alone completes
// tens of thousands of requests. Spans past the bound are counted, not kept.
const maxSpans = 100_000

// span is one call the benchmark made into a layer of the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the log was created
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until write. Its methods
// are no-ops on a nil log, so untraced runs call them unconditionally.
type spanLog struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under parent and returns its id (0 when not kept).
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) == maxSpans {
		l.dropped++
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(l.spans)
}

// end closes the span begin returned.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// write stores the spans as JSON at path, creating its directory.
func (l *spanLog) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Dropped  int    `json:"dropped"`
		Spans    []span `json:"spans"`
	}{workload, l.dropped, l.spans})
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
