// Package trace generates the synthetic memory-reference streams that stand
// in for the paper's Simics/SPEC OMP full-system workloads (see DESIGN.md,
// substitutions). Each of the nine benchmarks is characterized by the three
// axes that drive the paper's results: L2 access intensity (from Table 5's
// transaction counts), locality (hot-set vs streaming mix, which sets the
// L1 miss rate), and sharing degree (which determines how much of the L2
// working set is contended between cores).
package trace

import "repro/internal/cache"

// Profile characterizes one benchmark's memory behavior.
type Profile struct {
	// Name is the SPEC OMP benchmark name.
	Name string
	// FastForwardMCycles is Table 5's initialization fast-forward, recorded
	// for documentation (the synthetic generator has no init phase).
	FastForwardMCycles int
	// L2TransactionsM is Table 5's L2 transaction count (millions within
	// the 2-billion-cycle sampling window).
	L2TransactionsM float64

	// MemRatio is the fraction of instructions that reference memory.
	MemRatio float64
	// IFetchShare is the fraction of the benchmark's Table 5 L2
	// transactions that are instruction fetches rather than data accesses.
	// Loop-heavy solvers fetch almost no instructions from L2; fma3d's
	// huge code footprint makes it the instruction-bound outlier.
	IFetchShare float64
	// IFetchColdFrac is the derived per-reference probability of an
	// instruction fetch that misses the L1I (a cold code line), sized so
	// ifetch L2 traffic is IFetchShare of the Table 5 total.
	IFetchColdFrac float64
	// L1MissRate is the target fraction of references that miss the L1 and
	// reach the L2. Derived from Table 5 (see DeriveL1MissRate).
	L1MissRate float64
	// SharedFrac is the fraction of L1-missing references that target the
	// globally shared region rather than the core's private stream.
	SharedFrac float64
	// WriteFrac is the fraction of references that are stores.
	WriteFrac float64

	// PrivateLines is the per-core streaming region size in cache lines;
	// SharedLines sizes the shared region; HotLines sizes the L1-resident
	// hot set.
	PrivateLines int
	SharedLines  int
	HotLines     int

	// CodeLines sizes the benchmark's *hot* instruction footprint in cache
	// lines — the loop nests and hot call chains that dominate execution,
	// not the full binary. SPEC FP codes are loop-heavy, so these fit the
	// 64 KB L1I (1024 lines); the L1I-missing fetch traffic of large-code
	// benchmarks (fma3d above all) is calibrated separately through
	// IFetchShare and the cold code tail. The code region is shared by
	// every core (same binary), read-only, and fetched through the L1
	// instruction cache; Table 5's L2 transaction counts include these
	// instruction fetches.
	CodeLines int

	// Instance is the region-namespace of this profile's address space.
	// A parallel run leaves it zero for every core (one program, one
	// shared region). Multiprogrammed runs give each program a distinct
	// instance so their "shared" and code regions do not alias.
	Instance int

	// LocalizedFrac is the steady-state fraction of a core's private lines
	// that dynamic migration has pulled into its vicinity on a *2D* chip by
	// the end of the paper's 500M-cycle warm-up. Gradual, lazy migration
	// localizes at most about half of a working set even for
	// small-footprint benchmarks (Beckmann & Wood's own CMP finding);
	// streaming benchmarks whose sets exceed a cluster localize least
	// (lines are evicted before accumulating enough hits). The 3D vicinity
	// holds twice the capacity (Figure 8's cylinder vs. disc) and migration
	// paths are half as long, so the *un*-localized fraction squares in 3D;
	// conversely the edge-placed CMP-DNUCA baseline sees only a half-disc
	// vicinity and its migration hops span a longer grid, quartering the
	// localized fraction (see core.Warm).
	LocalizedFrac float64
}

// sampleWindowCycles is Table 5's statistics-collection window.
const sampleWindowCycles = 2_000_000_000

// ipcEstimate is the assumed average IPC of the paper's in-order cores when
// converting Table 5 transaction counts into per-reference miss rates. The
// single-issue cores with blocking loads sustain roughly half an
// instruction per cycle (Figure 15 territory).
const ipcEstimate = 0.5

// DeriveL1MissRate computes the L1 miss rate implied by a Table 5
// transaction count: transactions divided by the total references issued by
// ncpu cores running at ipcEstimate instructions per cycle with the given
// memory-instruction ratio over the sampling window.
func DeriveL1MissRate(l2TransactionsM float64, ncpu int, memRatio float64) float64 {
	refs := float64(sampleWindowCycles) * float64(ncpu) * memRatio * ipcEstimate
	return l2TransactionsM * 1e6 / refs
}

// profiles holds the nine SPEC OMP benchmarks of Table 5. The L1 miss rates
// follow from the transaction counts (mgrid, swim and wupwise exhibit many
// more L2 accesses "as a result of higher L1 miss rates" — Section 5.1);
// sharing fractions reflect the benchmarks' published sharing behavior:
// dense solvers (galgel, swim, mgrid) stream mostly private tiles, while
// the irregular codes (equake, fma3d, art) touch more shared state.
var profiles = []Profile{
	{Name: "ammp", IFetchShare: 0.10, CodeLines: 640, FastForwardMCycles: 3633, L2TransactionsM: 24.508715, SharedFrac: 0.20, PrivateLines: 8192, LocalizedFrac: 0.50},
	{Name: "apsi", IFetchShare: 0.12, CodeLines: 768, FastForwardMCycles: 4453, L2TransactionsM: 27.013447, SharedFrac: 0.15, PrivateLines: 8192, LocalizedFrac: 0.50},
	{Name: "art", IFetchShare: 0.05, CodeLines: 384, FastForwardMCycles: 3523, L2TransactionsM: 25.638435, SharedFrac: 0.30, PrivateLines: 6144, LocalizedFrac: 0.50},
	{Name: "equake", IFetchShare: 0.08, CodeLines: 512, FastForwardMCycles: 21538, L2TransactionsM: 27.502906, SharedFrac: 0.35, PrivateLines: 8192, LocalizedFrac: 0.45},
	{Name: "fma3d", IFetchShare: 0.20, CodeLines: 768, FastForwardMCycles: 18535, L2TransactionsM: 12.599496, SharedFrac: 0.30, PrivateLines: 6144, LocalizedFrac: 0.50},
	{Name: "galgel", IFetchShare: 0.10, CodeLines: 640, FastForwardMCycles: 3665, L2TransactionsM: 38.181613, SharedFrac: 0.15, PrivateLines: 12288, LocalizedFrac: 0.45},
	{Name: "mgrid", IFetchShare: 0.02, CodeLines: 256, FastForwardMCycles: 3533, L2TransactionsM: 204.815737, SharedFrac: 0.10, PrivateLines: 24576, LocalizedFrac: 0.35},
	{Name: "swim", IFetchShare: 0.02, CodeLines: 256, FastForwardMCycles: 4306, L2TransactionsM: 164.762040, SharedFrac: 0.10, PrivateLines: 24576, LocalizedFrac: 0.35},
	{Name: "wupwise", IFetchShare: 0.04, CodeLines: 384, FastForwardMCycles: 18777, L2TransactionsM: 141.499738, SharedFrac: 0.20, PrivateLines: 20480, LocalizedFrac: 0.40},
}

// Profiles returns the nine benchmark profiles with all derived fields
// populated for the given CPU count.
func Profiles(ncpu int) []Profile {
	out := make([]Profile, len(profiles))
	for i, p := range profiles {
		out[i] = derive(p, ncpu)
	}
	return out
}

// ProfileByName finds a benchmark profile by name, deriving only that
// one.
func ProfileByName(name string, ncpu int) (Profile, bool) {
	for _, p := range profiles {
		if p.Name == name {
			return derive(p, ncpu), true
		}
	}
	return Profile{}, false
}

// derive populates a table entry's derived fields for ncpu CPUs.
func derive(p Profile, ncpu int) Profile {
	p.MemRatio = 0.3
	p.WriteFrac = 0.3
	total := DeriveL1MissRate(p.L2TransactionsM, ncpu, p.MemRatio)
	p.L1MissRate = total * (1 - p.IFetchShare)
	p.IFetchColdFrac = total * p.IFetchShare
	p.SharedLines = 12288
	p.HotLines = 512
	return p
}

// Ref is one memory reference produced by a generator.
type Ref struct {
	// Addr is the referenced cache line.
	Addr cache.LineAddr
	// Write marks a store.
	Write bool
	// Gap is the number of non-memory instructions the core executes
	// before issuing this reference.
	Gap int
	// HasCode marks that execution entered a new instruction-cache line
	// while reaching this reference; Code is that line. Sequential
	// execution advances roughly one line per sixteen instructions, with
	// occasional jumps across the code region.
	HasCode bool
	Code    cache.LineAddr
}

// Address-space layout of the synthetic workload. Regions are mapped to
// line addresses through deterministic page-frame hashing: each region is a
// sequence of 4 KB pages, and page j of region r lives at a pseudo-random
// frame in r's private slice of the frame space. This reproduces how an OS
// backs virtual regions with scattered physical pages, which is what makes
// NUCA home clusters uniformly distributed in real systems — a contiguous
// layout would alias every working set onto the same few home clusters.
const (
	// linesPerPage is a 4 KB page in 64-byte lines.
	linesPerPage = 64
	// frameBits sizes each region's private frame space (2^24 frames).
	frameBits = 24

	regionShared = 0
	regionCode   = 1
	// Per-core regions: hot set and streaming set get separate ids.
	regionHot    = 2 // regionHot + 2*cpu
	regionStream = 3 // regionStream + 2*cpu
)

// regionID composes a region id from the profile's namespace instance and
// the region kind.
func (p Profile) regionID(kind uint64) uint64 {
	return uint64(p.Instance)<<8 | kind
}

// Region is a page-mapped address region: n lines reachable through Line.
// Sequential regions occupy consecutive page frames (contiguous data: hot
// arrays, program binaries); hashed regions scatter their pages through the
// region's frame space the way an OS backs a large heap with whatever
// physical pages are free — which is what makes NUCA home clusters
// uniformly distributed for large working sets.
type Region struct {
	id  uint64
	n   int
	seq bool
}

// Len returns the region's size in lines.
func (r Region) Len() int { return r.n }

// Line returns the address of the region's j-th line. The mapping is a
// fixed function (no generator state), so every component — generators,
// cache warm-up, tests — sees the same layout.
func (r Region) Line(j int) cache.LineAddr {
	page := uint64(j) / linesPerPage
	off := uint64(j) % linesPerPage
	frame := page
	if !r.seq {
		frame = scatter(page)
	}
	return cache.LineAddr((r.id<<frameBits|frame)*linesPerPage + off)
}

// scatter is a bijection on the frame space (multiplication by an odd
// constant modulo a power of two), so distinct pages always land on
// distinct frames while spreading them across the whole space — and with
// it, across every NUCA home cluster.
func scatter(page uint64) uint64 {
	const odd = 0x9E3779B1 // golden-ratio-derived odd multiplier
	return (page * odd) & (1<<frameBits - 1)
}

// Contains reports whether addr belongs to this region's frame space.
// Region ids partition the address space, so membership is a range check.
func (r Region) Contains(addr cache.LineAddr) bool {
	frame := uint64(addr) / linesPerPage
	return frame>>frameBits == r.id
}

// mix64 is SplitMix64's finalizer: a fixed avalanche permutation.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// coldCodeLines sizes the cold tail of the code region: rarely-executed
// paths whose fetches always miss the L1I. Fetches draw from a
// coldWindowLines-wide working window that drifts one page every
// coldDriftPeriod fetches.
const (
	coldCodeLines   = 4096
	coldWindowLines = 1024
	coldDriftPeriod = 256
)

// instrsPerCodeLine approximates 16 four-byte instructions per 64-byte
// line of straight-line code.
const instrsPerCodeLine = 16

// jumpChance is the per-reference probability that control transfers to a
// random line of the code region instead of falling through.
const jumpChance = 0.05

// HotRegion returns a core's L1-resident hot set: contiguous pages (stack,
// globals, reduction scalars), so it maps conflict-free into the L1.
func (p Profile) HotRegion(cpu int) Region {
	return Region{id: p.regionID(regionHot + 2*uint64(cpu)), n: p.HotLines, seq: true}
}

// StreamRegion returns a core's private streaming set: a large heap region
// backed by scattered pages.
func (p Profile) StreamRegion(cpu int) Region {
	return Region{id: p.regionID(regionStream + 2*uint64(cpu)), n: p.PrivateLines}
}

// StreamLine returns the address of the j-th line of a core's private
// streaming set.
func (p Profile) StreamLine(cpu, j int) cache.LineAddr {
	return p.StreamRegion(cpu).Line(j)
}

// SharedRegion returns the globally shared data region (scattered pages).
func (p Profile) SharedRegion() Region {
	return Region{id: p.regionID(regionShared), n: p.SharedLines}
}

// CodeRegion returns the shared code region: the hot footprint (CodeLines)
// followed by the cold tail. Binaries are contiguous, so the region is
// sequential.
func (p Profile) CodeRegion() Region {
	return Region{id: p.regionID(regionCode), n: p.CodeLines + coldCodeLines, seq: true}
}

// Generator produces the reference stream of one core deterministically.
type Generator struct {
	p   Profile
	cpu int
	rng *rng

	hot    Region
	stream Region
	shared Region
	code   Region

	streamPos int // cursor in the private streaming set

	codeLine    int // current line within the hot code region
	coldLine    int // base of the drifting cold-code working window
	coldFetches int // cold fetches issued, for window drift
	instrAccum  int // instructions since the last code-line boundary
}

// NewGenerator builds the stream for one core. Streams with the same
// profile, cpu and seed are identical.
func NewGenerator(p Profile, cpu int, seed uint64) *Generator {
	return &Generator{
		p:      p,
		cpu:    cpu,
		rng:    newRNG(seed ^ (uint64(cpu+1) * 0xA24BAED4963EE407)),
		hot:    p.HotRegion(cpu),
		stream: p.StreamRegion(cpu),
		shared: p.SharedRegion(),
		code:   p.CodeRegion(),
	}
}

// Next returns the next memory reference.
func (g *Generator) Next() Ref {
	r := Ref{Write: g.rng.chance(g.p.WriteFrac), Gap: g.gap()}
	g.advanceCode(&r)
	if !g.rng.chance(g.p.L1MissRate) {
		// L1-resident access: pick from the hot set.
		r.Addr = g.hot.Line(g.rng.intn(g.p.HotLines))
		return r
	}
	if g.rng.chance(g.p.SharedFrac) {
		// Shared access with a hot-cold skew: half the traffic hits the
		// hottest eighth of the region, concentrating sharing the way
		// OpenMP reduction and boundary data do.
		n := g.p.SharedLines
		if g.rng.chance(0.5) {
			n = max(1, n/8)
		}
		r.Addr = g.shared.Line(g.rng.intn(n))
		return r
	}
	// Private streaming access: advance through the set sequentially,
	// wrapping at the end — classic SPEC OMP grid-sweep behavior.
	r.Addr = g.stream.Line(g.streamPos)
	g.streamPos++
	if g.streamPos >= g.p.PrivateLines {
		g.streamPos = 0
	}
	return r
}

// gap draws the non-memory instruction count before a reference, with mean
// (1-MemRatio)/MemRatio, using a two-point distribution for determinism
// without heavy tails.
func (g *Generator) gap() int {
	mean := (1 - g.p.MemRatio) / g.p.MemRatio
	lo := int(mean)
	frac := mean - float64(lo)
	if g.rng.chance(frac) {
		return lo + 1
	}
	return lo
}

// advanceCode moves the instruction stream forward by the reference's
// instruction count and records a new instruction-cache line if execution
// crossed into one (fall-through or jump).
func (g *Generator) advanceCode(r *Ref) {
	if g.p.CodeLines <= 0 {
		return
	}
	g.instrAccum += r.Gap + 1
	// Cold instruction fetch: a rarely-executed path whose line is not
	// L1I-resident, calibrated so ifetch L2 traffic matches IFetchShare of
	// the Table 5 transaction count. Cold fetches re-walk a working window
	// of procedures that drifts slowly through the tail — real programs
	// revisit the same cold paths (error handlers, phase prologues) many
	// times before moving on, so these lines exhibit L2 reuse even though
	// they thrash the L1I.
	if g.rng.chance(g.p.IFetchColdFrac) {
		r.HasCode = true
		pos := (g.coldLine + g.rng.intn(coldWindowLines)) % coldCodeLines
		r.Code = g.code.Line(g.p.CodeLines + pos)
		g.coldFetches++
		if g.coldFetches%coldDriftPeriod == 0 {
			g.coldLine = (g.coldLine + linesPerPage) % coldCodeLines
		}
		return
	}
	crossed := false
	if g.rng.chance(jumpChance) {
		g.codeLine = g.rng.intn(g.p.CodeLines)
		g.instrAccum = 0
		crossed = true
	} else if g.instrAccum >= instrsPerCodeLine {
		g.instrAccum -= instrsPerCodeLine
		g.codeLine++
		if g.codeLine >= g.p.CodeLines {
			g.codeLine = 0
		}
		crossed = true
	}
	if crossed {
		r.HasCode = true
		r.Code = g.code.Line(g.codeLine)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
