// Package serve turns the simulator into a long-running
// simulation-as-a-service daemon: an HTTP/JSON job API over the
// internal/runner worker pool, with live interval-metrics streaming,
// Prometheus-format daemon metrics, health reporting, and a result cache
// keyed by the canonical configuration hash.
//
// The serving tier leans on one property end to end: the simulator is
// deterministic. A job is fully identified by runner.Job.Identity: its
// configuration hash (config.CanonicalHash) plus the workload parameters
// (benchmark, warm and measure windows, seed, sampling and thermal
// intervals, span recording); two submissions with the same identity
// must produce the same Results, byte for byte. That makes finished
// results cacheable forever — the registry doubles as the cache — and
// makes it safe to coalesce identical in-flight submissions onto a single
// execution: both clients observe the one job.
//
// Endpoints:
//
//	POST /jobs             submit a job (JSON body; ?wait=1 blocks until done)
//	GET  /jobs             list all registered jobs
//	GET  /jobs/{id}        status: state, completion fraction, final Results
//	GET  /jobs/{id}/stream live SSE feed of the job's sampled metrics rows
//	GET  /metrics          Prometheus text format: daemon + per-job counters
//	GET  /healthz          liveness/readiness (503 while draining)
//	/debug/pprof/*         optional, only when Options.EnablePprof is set
//
// Concurrency model: each job runs on exactly one worker goroutine (the
// bounded pool), which owns the simulator. Everything the HTTP handlers
// read — completion fraction, sampled rows, counter snapshots, the final
// marshaled Results — is published by that goroutine through the job
// record's mutex, from the runner's OnChunk hook, which runs between
// engine chunks. Handlers never touch a live simulator.
package serve
