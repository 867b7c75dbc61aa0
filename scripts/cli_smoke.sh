#!/usr/bin/env bash
# Bad-input smoke test of the nimsim CLI: build the binary once, feed it
# every documented bad input, and assert each exits 1 with a "nimsim:"
# message on stderr and no Go panic. Runs in a temporary directory, so
# the missing replay file stays missing and nothing is left behind.
#
# Usage: scripts/cli_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
echo "cli_smoke: building nimsim"
go build -o "$TMP/nimsim" ./cmd/nimsim
cd "$TMP"

FAIL=0
check() {
  local out code=0
  out=$(./nimsim "$@" 2>&1 >/dev/null) || code=$?
  if [ "$code" -ne 1 ] || ! grep -q '^nimsim: ' <<<"$out" || grep -q 'panic:' <<<"$out"; then
    echo "cli_smoke: FAIL nimsim $* exited $code: $out" >&2
    FAIL=1
  else
    echo "cli_smoke: ok   nimsim $* -> ${out%%$'\n'*}"
  fi
}

check -scheme bogus
check -bench nope
check -l2 48
check -replay missing.file
check -dtm bogus
# Zero observer periods, on the one-shot and the -diverge paths.
check -metrics m.csv -interval 0
check -thermal -tinterval 0
check -tmap -tinterval 0
check -dtm all -tinterval 0
check -trace t.json -tracebuf 0
check -spans s.json -tracebuf 0
check -diverge seed=2 -metrics m.csv -interval 0
check -diverge seed=2 -dtm all -tinterval 0
exit "$FAIL"
