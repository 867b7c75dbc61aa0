package runner

import (
	"fmt"

	"repro/internal/digest"
)

// DivergeReport is the outcome of a side-by-side divergence hunt: either
// the two runs' digest streams agree everywhere (Equal), or the first
// divergent cycle and the subsystem whose state first differed.
type DivergeReport struct {
	// Equal reports that every compared snapshot agreed.
	Equal bool `json:"equal"`
	// Interval is the coarse snapshot period the side-by-side runs used.
	Interval uint64 `json:"interval"`
	// Records is the number of snapshots compared (the shorter stream).
	Records int `json:"records"`
	// DigestA and DigestB are the runs' final 64-bit digests, 16 hex
	// digits each — unequal exactly when the runs diverged.
	DigestA string `json:"digest_a"`
	DigestB string `json:"digest_b"`
	// Cycle is the first divergent cycle: exact when Refined, otherwise
	// the first divergent coarse snapshot (state diverged somewhere in
	// the Interval cycles ending there).
	Cycle uint64 `json:"cycle,omitempty"`
	// Lane names the subsystem whose digest chain first differed at that
	// cycle — where to start looking.
	Lane string `json:"lane,omitempty"`
	// CoarseCycle is the coarse-pass divergent snapshot the refinement
	// pass narrowed from.
	CoarseCycle uint64 `json:"coarse_cycle,omitempty"`
	// Refined reports that the per-cycle refinement pass ran, making
	// Cycle exact.
	Refined bool `json:"refined,omitempty"`
}

// Diverge runs two job configurations side by side, binary-searches
// their digest streams for the first divergent snapshot, then reruns
// just the divergent window digesting every cycle to pin the exact
// first divergent cycle and the offending subsystem.
//
// The two streams compare cycle-for-cycle, so b's warm and measure
// windows are forced to a's; everything else — scheme, topology,
// policies, seed, observers — may differ, which is the point: two
// policy variants, or a plain job and the same job with observers
// attached, attest (or refute) bit-identity with a named first point
// of departure. interval is the coarse snapshot period (0 selects
// 1000); the refinement pass costs roughly one extra interval's worth
// of per-cycle digesting on top of two coarse runs. Both jobs are
// validated before either runs, so an invalid variant fails at once.
func Diverge(a, b Job, interval uint64) (*DivergeReport, error) {
	if interval == 0 {
		interval = 1000
	}
	b.WarmCycles, b.MeasureCycles = a.WarmCycles, a.MeasureCycles
	a.DigestInterval, b.DigestInterval = interval, interval
	for i, j := range []Job{a, b} {
		if err := j.Validate(); err != nil {
			return nil, fmt.Errorf("runner: diverge run %c: %w", 'A'+byte(i), err)
		}
	}

	sa, sb, da, db, err := runDigestPair(a, b)
	if err != nil {
		return nil, err
	}
	n := len(sa)
	if len(sb) < n {
		n = len(sb)
	}
	rep := &DivergeReport{Interval: interval, Records: n, DigestA: da, DigestB: db}
	div, ok := digest.Compare(sa, sb)
	if !ok {
		rep.Equal = true
		return rep, nil
	}
	rep.CoarseCycle = div.Cycle
	rep.Cycle = div.Cycle
	rep.Lane = div.Lane.String()
	if interval == 1 {
		rep.Refined = true
		return rep, nil
	}

	// Refinement: state diverged in (CoarseCycle-interval, CoarseCycle].
	// Rerun both jobs (deterministic, so they replay exactly), running
	// undigested up to the last agreeing snapshot, then digest every
	// cycle through the divergent one. The recorder attaches mid-window,
	// after where a sampler would sit, so the reruns drop the sampler. They
	// drop the caller's hook too: it saw the coarse pass, and the reruns'
	// windows differ from what it expects.
	fa, fb := a, b
	fa.DigestInterval, fb.DigestInterval = 1, 1
	fa.SampleInterval, fb.SampleInterval = 0, 0
	fa.OnChunk, fb.OnChunk = nil, nil
	start := uint64(0)
	if div.Cycle >= a.WarmCycles+interval {
		start = div.Cycle - interval - a.WarmCycles
	}
	fa.digestStart, fb.digestStart = start, start
	mc := div.Cycle - a.WarmCycles + 1
	fa.MeasureCycles, fb.MeasureCycles = mc, mc
	ra, rb, _, _, err := runDigestPair(fa, fb)
	if err != nil {
		return nil, fmt.Errorf("refinement pass: %w", err)
	}
	if rdiv, rok := digest.Compare(ra, rb); rok {
		rep.Cycle = rdiv.Cycle
		rep.Lane = rdiv.Lane.String()
		rep.Refined = true
	}
	return rep, nil
}

// runDigestPair runs both jobs concurrently and returns their digest
// streams and final digests.
func runDigestPair(a, b Job) (sa, sb []digest.Record, da, db string, err error) {
	res := Run([]Job{a, b}, 2)
	for i, r := range res {
		if r.Err != nil {
			return nil, nil, "", "", fmt.Errorf("runner: diverge run %c failed: %w", 'A'+byte(i), r.Err)
		}
		if r.Results.Digests == nil {
			return nil, nil, "", "", fmt.Errorf("runner: diverge run %c produced no digest stream", 'A'+byte(i))
		}
	}
	return res[0].Results.Digests.Stream, res[1].Results.Digests.Stream,
		res[0].Results.Digests.Digest, res[1].Results.Digests.Digest, nil
}
