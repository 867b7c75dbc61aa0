// Package runner is the batch sweep engine behind the paper's evaluation:
// a bounded worker pool that fans independent, deterministic simulations
// out over the machine's cores and collects their results back in input
// order. Every experiment in Section 5 (nine SPEC OMP benchmarks, four
// schemes, optional seed repetition, plus the cache-size / pillar / layer
// sweeps of Figures 16-18) is a slice of such jobs, and none of them share
// state, so the sweep parallelizes embarrassingly.
//
// The model is deliberately small:
//
//   - a Job names one simulation: a full config.Config (scheme, L2 size,
//     layer count, pillar count, every Table 4 knob), a benchmark, the
//     warm/measure windows, and a seed;
//   - Pool.Run executes a slice of jobs on at most Workers goroutines
//     (default runtime.GOMAXPROCS(0)) and returns one Result per job,
//     positionally matched to the input slice;
//   - every window advances in at most 64 Run calls, and a job's optional
//     OnChunk hook reads the machine between them;
//   - a failed job — unknown benchmark, invalid config, even a panicking
//     simulation — is captured in its Result.Err and never aborts the
//     sweep or kills the process;
//   - an optional Progress callback observes completions serially, in
//     completion order, for live reporting.
//
// Because each Job builds its own core.System and the simulator holds no
// package-level mutable state, a parallel sweep is bit-identical to a
// sequential one for equal seeds; TestPoolParallelMatchesSequential pins
// that guarantee down.
package runner
