package serve

import (
	"net/http"
	"net/http/pprof"
)

// PprofMux returns a fresh mux serving only the net/http/pprof handlers
// under /debug/pprof/ — the profiling listener of `nimsim -pprof <addr>`
// and `nimsimd -pprof <addr>`. Registration is explicit: the package's
// blank-import side effect registers on http.DefaultServeMux, which no
// server here uses, so the profiler is reachable only on a listener whose
// owner asked for it, never on the job API's mux.
func PprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
