#!/usr/bin/env bash
# bench.sh — run the simulator's perf-gate benchmarks and snapshot the
# numbers as BENCH_<n>.json in the repo root (n auto-increments, so each
# snapshot is preserved; commit the file as the evidence for a perf PR).
#
# Captured benchmarks:
#   BenchmarkSimulatorThroughput/* — whole-system cycles/sec: "serial" is
#                                    the historical default machine (the
#                                    headline and the regression gate's
#                                    anchor); "stacked" the 4-layer
#                                    stacked-CPU machine
#   BenchmarkEventQueue/*          — engine event queue: legacy heap vs wheel
#   BenchmarkDTMOverhead/*         — thermal-management loop: detached vs
#                                    disabled controller vs all actuators
#   BenchmarkServeOverhead/*       — serving tax: direct runner.Run vs a
#                                    daemon POST ?wait=1 round-trip
#
# Usage: scripts/bench.sh                          (2s per benchmark)
#        BENCHTIME=5s scripts/bench.sh
#        scripts/bench.sh --compare BENCH_1.json   (regression gate)
#        scripts/bench.sh --compare                (gate vs latest BENCH_<n>.json)
#
# --compare additionally checks the new snapshot's SimulatorThroughput
# ns/op against the reference snapshot and exits non-zero on a >10%
# regression — the gate that observability and feature PRs must pass
# with their instrumentation disabled.
set -euo pipefail
cd "$(dirname "$0")/.."

compare=""
if [ "${1:-}" = "--compare" ]; then
	if [ -n "${2:-}" ]; then
		compare="$2"
	else
		# No reference given: default to the latest committed snapshot
		# (highest n), so "bench.sh --compare" gates against HEAD's numbers.
		m=1
		while [ -e "BENCH_${m}.json" ]; do
			compare="BENCH_${m}.json"
			m=$((m + 1))
		done
		if [ -z "$compare" ]; then
			echo "bench.sh: no BENCH_<n>.json snapshot to compare against" >&2
			exit 2
		fi
		echo "bench.sh: comparing against latest snapshot $compare"
	fi
	if [ ! -e "$compare" ]; then
		echo "bench.sh: reference snapshot $compare not found" >&2
		exit 2
	fi
fi

pattern='BenchmarkSimulatorThroughput$|BenchmarkEventQueue|BenchmarkDTMOverhead|BenchmarkServeOverhead'
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

for pkg in . ./internal/sim ./internal/serve; do
	go test -run '^$' -bench "$pattern" -benchmem \
		-benchtime "${BENCHTIME:-2s}" "$pkg"
done | tee "$raw"

n=1
while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done

# go test appends "-<GOMAXPROCS>" to benchmark names unless it is 1;
# strip exactly that suffix, not any trailing "-<digits>" — a
# sub-benchmark name may itself end in "-<digits>" (on a 1-CPU host there
# is no suffix at all, and a blind strip would cut the name).
procs="${GOMAXPROCS:-$(nproc)}"

# Host provenance: wall-clock numbers are only comparable between runs on
# the same machine shape, so every snapshot records where it came from
# and --compare refuses to gate silently across different hosts.
goos=$(go env GOOS)
goarch=$(go env GOARCH)
gover=$(go version | awk '{print $3}')
ncpu=$(nproc 2>/dev/null || echo 1)

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v procs="$procs" \
	-v goos="$goos" -v goarch="$goarch" -v gover="$gover" -v ncpu="$ncpu" '
BEGIN {
	printf "{\n  \"generated\": \"%s\",\n", date
	printf "  \"host\": {\"goos\": \"%s\", \"goarch\": \"%s\", \"go_version\": \"%s\", \"num_cpu\": %d, \"gomaxprocs\": %d},\n", \
		goos, goarch, gover, ncpu, procs
	printf "  \"benchmarks\": {\n"
	sep = ""
}
/^Benchmark/ {
	name = $1
	sub("-" procs "$", "", name)
	printf "%s    \"%s\": {\"iterations\": %s", sep, name, $2
	# Remaining fields are (value, unit) pairs: ns/op, custom metrics
	# from ReportMetric, then -benchmem B/op and allocs/op.
	for (i = 3; i + 1 <= NF; i += 2)
		printf ", \"%s\": %s", $(i + 1), $i
	printf "}"
	sep = ",\n"
}
END { printf "\n  }\n}\n" }
' "$raw" >"BENCH_${n}.json"

echo "wrote BENCH_${n}.json"

# The snapshots are this script's own output, one benchmark per line, so
# field extraction by exact key is reliable.
nsop() {
	awk -F'[:,]' -v key="\"$2\"" '$0 ~ key {
		for (i = 1; i < NF; i++)
			if ($i ~ /"ns\/op"/) {
				gsub(/[ }]/, "", $(i + 1)); print $(i + 1); exit
			}
	}' "$1"
}

# hostfield FILE KEY prints the value of "KEY" inside the snapshot's
# one-line "host" object (empty for pre-provenance snapshots).
hostfield() {
	awk -v key="\"$2\"" '
	/"host"/ {
		n = split($0, parts, key ": ")
		if (n < 2) exit
		v = parts[2]
		sub(/[,}].*/, "", v)
		gsub(/"/, "", v)
		print v
		exit
	}' "$1"
}

if [ -n "$compare" ]; then
	# Wall-clock comparisons across different host shapes are noise:
	# refuse to pretend otherwise. The gate still runs (the numbers are
	# printed either way), but the warning is loud and unmissable.
	mismatch=""
	for key in goos goarch go_version num_cpu gomaxprocs; do
		refv=$(hostfield "$compare" "$key")
		newv=$(hostfield "BENCH_${n}.json" "$key")
		if [ "$refv" != "$newv" ]; then
			mismatch="${mismatch}  ${key}: reference '${refv:-<absent>}' vs this host '${newv}'
"
		fi
	done
	if [ -n "$mismatch" ]; then
		{
			echo "=================================================================="
			echo "bench.sh: WARNING — host shape differs from reference snapshot"
			echo "  ($compare); ns/op deltas below are NOT comparable:"
			printf '%s' "$mismatch"
			echo "=================================================================="
		} >&2
	fi

	# Gate on the serial entry; snapshots before the sub-benchmark split
	# stored it under the bare parent name.
	ref=$(nsop "$compare" "BenchmarkSimulatorThroughput/serial")
	if [ -z "$ref" ]; then
		ref=$(nsop "$compare" "BenchmarkSimulatorThroughput")
	fi
	new=$(nsop "BENCH_${n}.json" "BenchmarkSimulatorThroughput/serial")
	if [ -z "$ref" ] || [ -z "$new" ]; then
		echo "bench.sh: SimulatorThroughput ns/op missing from snapshot" >&2
		exit 2
	fi
	awk -v new="$new" -v ref="$ref" -v refname="$compare" 'BEGIN {
		pct = (new - ref) / ref * 100
		printf "throughput gate: %g ns/op vs %g ns/op in %s (%+.1f%%)\n",
			new, ref, refname, pct
		if (new > ref * 1.10) {
			print "bench.sh: FAIL — throughput regressed more than 10%"
			exit 1
		}
		print "bench.sh: OK — within the 10% regression budget"
	}'
fi
