#!/usr/bin/env bash
# Bad-input smoke test of the nimsim, experiments, placement and thermal3d
# CLIs: build each binary once, feed it every documented bad input, and
# assert each exits 1 within 20 seconds with a "<command>:" message on
# stderr, nothing on stdout and no Go panic, not even one the runner
# recovered and reported as "panicked". Then run a few valid nimsim
# invocations and check the files they write.
# Runs in a temporary directory, so the missing replay file stays missing
# and nothing is left behind.
#
# Usage: scripts/cli_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
echo "cli_smoke: building nimsim, experiments, placement and thermal3d"
for cmd in nimsim experiments placement thermal3d; do
  go build -o "$TMP/$cmd" "./cmd/$cmd"
done
cd "$TMP"

FAIL=0
# run CMD ARGS... checks one bad invocation of ./CMD.
run() {
  local cmd=$1 out code=0
  shift
  timeout 20 ./"$cmd" "$@" >stdout.txt 2>stderr.txt || code=$?
  out=$(<stderr.txt)
  if [ "$code" -ne 1 ] || [ -s stdout.txt ] || ! grep -q "^$cmd: " <<<"$out" || grep -Eq 'panic:|panicked' <<<"$out"; then
    echo "cli_smoke: FAIL $cmd $* exited $code: $out" >&2
    FAIL=1
  else
    echo "cli_smoke: ok   $cmd $* -> ${out%%$'\n'*}"
  fi
}
check() { run nimsim "$@"; }
# produces TEST ARGS... runs one valid nimsim invocation, which must exit 0
# and leave the shell test TEST true.
produces() {
  local test=$1 code=0
  shift
  ./nimsim "$@" >stdout.txt 2>stderr.txt || code=$?
  if [ "$code" -ne 0 ] || ! eval "$test"; then
    echo "cli_smoke: FAIL nimsim $* exited $code or left $test false: $(<stderr.txt)" >&2
    FAIL=1
  else
    echo "cli_smoke: ok   nimsim $* -> $test"
  fi
}

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
# CMP-DNUCA places its CPUs on the chip edges, so stacking them is refused
# rather than ignored.
check -scheme dnuca -stack
# A pillar count with no grid on the 16x8 layer is refused, at once even
# when the count is 2^40.
check -pillars 17
check -pillars 1099511627776
# A -diverge variant is checked before either run starts, and its keys are
# the machine flags' names.
check -diverge bench=nope
check -diverge foo=1
check -diverge dtm=all -tinterval 0
# -diverge runs two plain jobs on one benchmark, so a mix is an unknown
# benchmark, and flags it cannot honour are refused, not dropped.
check -diverge seed=2 -bench art,mgrid
check -diverge seed=2 -heatmap
# -json owns stdout, so the reports that print ASCII there are refused.
check -json -heatmap
check -json -buses
check -json -tmap
# An unknown or empty -bench item is rejected before any section prints.
run experiments -figure 17 -bench nope
run experiments -all -bench mgrid,
# So is a -table, -figure or -seeds value that selects nothing, even next
# to a valid selection.
run experiments -table 1 -figure 99
run experiments -table 9
run experiments -figure 13 -seeds -3 -bench mgrid -warm 10 -measure 10
# placement and thermal3d build their machines as nimsim does, so a flag
# the machine cannot honour is refused, not dropped: the edge scheme has
# one layer, and Table 3 fixes its own pillars and placements.
run placement -edge -layers 4
run thermal3d -stack -pillars 2
# -json still writes the host timeline, which goes to a file.
produces '[ -s pt.json ]' -json -proftrace pt.json -warm 1000 -measure 4000
# The metrics CSV stays plain RFC 4180 when the event-trace ring drops.
produces '[ -s m.csv ] && ! grep -q "^#" m.csv' -warm 1000 -measure 4000 -metrics m.csv -trace t.json -tracebuf 100
exit "$FAIL"
