#!/usr/bin/env bash
# Bad-input smoke test of the nimsim and experiments CLIs: build each
# binary once, feed it every documented bad input, and assert each exits 1
# with a "<command>:" message on stderr, nothing on stdout and no Go panic,
# not even one the runner recovered and reported as "panicked".
# Runs in a temporary directory, so the missing replay file stays missing
# and nothing is left behind.
#
# Usage: scripts/cli_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
echo "cli_smoke: building nimsim and experiments"
go build -o "$TMP/nimsim" ./cmd/nimsim
go build -o "$TMP/experiments" ./cmd/experiments
cd "$TMP"

FAIL=0
# run CMD ARGS... checks one bad invocation of ./CMD.
run() {
  local cmd=$1 out code=0
  shift
  ./"$cmd" "$@" >stdout.txt 2>stderr.txt || code=$?
  out=$(<stderr.txt)
  if [ "$code" -ne 1 ] || [ -s stdout.txt ] || ! grep -q "^$cmd: " <<<"$out" || grep -Eq 'panic:|panicked' <<<"$out"; then
    echo "cli_smoke: FAIL $cmd $* exited $code: $out" >&2
    FAIL=1
  else
    echo "cli_smoke: ok   $cmd $* -> ${out%%$'\n'*}"
  fi
}
check() { run nimsim "$@"; }

check -scheme bogus
check -bench nope
check -l2 48
check -replay missing.file
check -dtm bogus
# A trip temperature that is not a finite number, and negative machine
# overrides, are refused by name instead of running a machine that can
# never trip or the default machine.
check -dtm all -trip NaN
check -dtm all -trip Inf
check -pillars -1
check -layers -2
check -l2 -16
check -diverge pillars=-1
# Zero observer periods, on the one-shot and the -diverge paths.
check -metrics m.csv -interval 0
check -thermal -tinterval 0
check -tmap -tinterval 0
check -dtm all -tinterval 0
check -trace t.json -tracebuf 0
check -spans s.json -tracebuf 0
check -diverge seed=2 -metrics m.csv -interval 0
check -diverge seed=2 -dtm all -tinterval 0
# More stacked CPUs than pillars x layers: the topology has no slot for
# them, on the one-shot and the -diverge paths.
check -scheme dnuca3d -pillars 2 -stack
check -diverge pillars=2,stack=true
# A -diverge variant is checked before either run starts, and its keys are
# the machine flags' names.
check -diverge bench=nope
check -diverge foo=1
# -diverge runs two plain jobs, so flags it cannot honour are refused, not
# dropped.
check -diverge seed=2 -mix art,mgrid
check -diverge seed=2 -heatmap
# An unknown or empty -bench item is rejected before any section prints.
run experiments -figure 17 -bench nope
run experiments -all -bench mgrid,
# So is a -table, -figure or -seeds value that selects nothing, even next
# to a valid selection.
run experiments -table 1 -figure 99
run experiments -table 9
run experiments -figure 13 -seeds -3 -bench mgrid -warm 10 -measure 10
exit "$FAIL"
