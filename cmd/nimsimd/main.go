// Command nimsimd is the simulation-as-a-service daemon. It accepts config
// submissions over HTTP/JSON, executes them on a bounded worker pool, and
// exposes live SSE metrics streams, Prometheus metrics, and health:
//
//	nimsimd -addr :8080
//	nimsimd -addr :8080 -pprof localhost:6060   # profiler on its own listener
//	curl -X POST localhost:8080/jobs -d '{"scheme":"dnuca3d","benchmark":"mgrid"}'
//	curl localhost:8080/jobs/<id>
//	curl -N localhost:8080/jobs/<id>/stream
//	curl localhost:8080/metrics
//
// Repeated submissions of the same configuration are answered from the
// result cache (the simulator is deterministic, so results never go
// stale), and identical in-flight submissions coalesce onto one run.
// SIGINT/SIGTERM drains gracefully: in-flight jobs run to completion.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 0, "queued-job bound before 503 backpressure (0 = 64)")
		pprof   = flag.String("pprof", "", "serve net/http/pprof on a listener of its own at this address (not -addr)")
		drain   = flag.Duration("drain", 10*time.Second, "shutdown grace for open connections")
	)
	flag.Parse()

	// The profiler gets a listener and a pprof-only mux of its own; the job
	// API's mux never carries it.
	if *pprof != "" && *pprof == *addr {
		fmt.Fprintln(os.Stderr, "nimsimd: -pprof must name an address other than -addr")
		os.Exit(2)
	}
	if *pprof != "" {
		go func() {
			if err := http.ListenAndServe(*pprof, serve.PprofMux()); err != nil {
				fmt.Fprintf(os.Stderr, "nimsimd: pprof: %v\n", err)
			}
		}()
	}
	srv := serve.New(serve.Options{
		Addr:         *addr,
		Workers:      *workers,
		QueueDepth:   *queue,
		DrainTimeout: *drain,
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "nimsimd: serving on %s (POST /jobs, /metrics, /healthz)\n", *addr)
	if err := srv.ListenAndServe(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "nimsimd: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "nimsimd: drained, bye")
}
