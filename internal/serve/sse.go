package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
)

// handleStream is GET /jobs/{id}/stream: a Server-Sent Events feed of the
// job's sampled interval-metrics rows — the obs.Sampler's JSON rows,
// including the thermal/DTM columns when the job attached that pipeline —
// live while the job runs. Event types:
//
//	header  the column list, once, before the first row
//	row     one sampled row as a JSON array (same order as header)
//	done    the job reached a terminal success state; the stream ends
//	error   the job failed; data carries the message; the stream ends
//
// A subscriber that connects mid-run first receives every row sampled so
// far (the record retains them all), then follows live; connecting after
// completion replays the full series and closes. Rows reach the record
// in batches, after each of the runner's chunks (job.observe). No rows
// are ever dropped: the stream reads the record's append-only row log by
// index, sleeping on its condition variable between publications.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	rec := s.lookup(r.PathValue("id"))
	if rec == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // keep reverse proxies from buffering the feed
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	s.m.sseClients.Add(1)
	defer s.m.sseClients.Add(-1)

	// Wake the wait loop when the client goes away, so a disconnected
	// stream does not pin the handler until the next row.
	ctx := r.Context()
	stop := context.AfterFunc(ctx, func() {
		rec.mu.Lock()
		rec.cond.Broadcast()
		rec.mu.Unlock()
	})
	defer stop()

	sent := 0
	headerSent := false
	for {
		rec.mu.Lock()
		for sent >= len(rec.rows) && !terminal(rec.state) && ctx.Err() == nil {
			rec.cond.Wait()
		}
		pending := rec.rows[sent:]
		state := rec.state
		errMsg := rec.errMsg
		header := rec.header
		rec.mu.Unlock()

		if ctx.Err() != nil {
			return
		}
		if !headerSent && header != nil {
			if err := writeEvent(w, "header", header); err != nil {
				return
			}
			headerSent = true
		}
		for _, row := range pending {
			if err := writeEvent(w, "row", row); err != nil {
				return
			}
		}
		sent += len(pending)
		flusher.Flush()

		if terminal(state) && sent == rec.rowCount() {
			if state == StateFailed {
				_ = writeEvent(w, "error", struct {
					Error string `json:"error"`
				}{errMsg})
			} else {
				_ = writeEvent(w, "done", struct {
					State string `json:"state"`
					Rows  int    `json:"rows"`
				}{state, sent})
			}
			flusher.Flush()
			return
		}
	}
}

// rowCount reads the published row total (terminal records are immutable,
// so this closes the check-then-finish race in the stream loop exactly).
func (rec *job) rowCount() int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return len(rec.rows)
}

// writeEvent emits one SSE frame: "event: <type>" plus a JSON data line.
func writeEvent(w http.ResponseWriter, event string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
	return err
}
