package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestPprofMounts: the job API's mux never serves the profiler, and
// PprofMux, the profiler's own listener, always does.
func TestPprofMounts(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	for _, tc := range []struct {
		name string
		h    http.Handler
		want int
	}{
		{"Handler", s.Handler(), http.StatusNotFound},
		{"PprofMux", PprofMux(), http.StatusOK},
	} {
		w := httptest.NewRecorder()
		tc.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
		if w.Code != tc.want {
			t.Errorf("%s: GET /debug/pprof/ = %d, want %d", tc.name, w.Code, tc.want)
		}
	}
}
