#!/usr/bin/env bash
# Black-box smoke test of the serving daemon: build nimsimd, start it on
# a local port, wait for /healthz, submit a tiny job with ?wait=1 and
# assert it completes, scrape /metrics for the completion counter, then
# resubmit the identical body and assert the result cache answered
# (X-Cache: hit). The three documents that carry the results — the
# ?wait=1 completion, the hit and GET /jobs/{id} — must hold the same
# "results" member byte for byte, and the completion and the hit may
# differ only in their "submits" line. Last, a job with an unknown
# benchmark, and one that ships a full machine "config" instead of a
# scheme and overrides, must each be refused with 400 and registered
# nowhere. The daemon
# runs with -pprof on the next port: the profiler must answer there and
# not on the job API's port, and a -pprof equal to -addr must be refused
# with exit 2 before anything listens. Exercises
# the full binary + listener path that the in-process httptest suite
# cannot. The binary and every response land in one temporary directory,
# removed on exit, so concurrent runs do not share files.
#
# Usage: scripts/smoke.sh [port]   (default 18080)
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-18080}"
ADDR="127.0.0.1:${PORT}"
PPROF="127.0.0.1:$((PORT + 1))"
BODY='{"scheme":"dnuca3d","benchmark":"mgrid","warm_cycles":1000,"measure_cycles":5000,"sample_interval":500,"digest_interval":500}'

OUT=$(mktemp -d)
DAEMON=
trap 'kill "$DAEMON" 2>/dev/null || true; rm -rf "$OUT"' EXIT

echo "smoke: building nimsimd"
go build -o "$OUT/nimsimd" ./cmd/nimsimd

echo "smoke: -pprof equal to -addr must be refused"
RC=0
timeout 10 "$OUT/nimsimd" -addr "$ADDR" -pprof "$ADDR" 2>/dev/null || RC=$?
[ "$RC" = 2 ] || {
  echo "smoke: nimsimd -addr $ADDR -pprof $ADDR exited $RC, want 2" >&2; exit 1; }

"$OUT/nimsimd" -addr "$ADDR" -pprof "$PPROF" -workers 1 &
DAEMON=$!

echo "smoke: waiting for /healthz on $ADDR"
for i in $(seq 1 50); do
  if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
  if [ "$i" -eq 50 ]; then echo "smoke: daemon never became healthy" >&2; exit 1; fi
  sleep 0.1
done

echo "smoke: checking /debug/pprof/ on $PPROF and not on $ADDR"
for i in $(seq 1 50); do
  if curl -fsS -o /dev/null "http://$PPROF/debug/pprof/" 2>/dev/null; then break; fi
  if [ "$i" -eq 50 ]; then echo "smoke: pprof never answered on $PPROF" >&2; exit 1; fi
  sleep 0.1
done
CODE=$(curl -sS -o /dev/null -w '%{http_code}' "http://$ADDR/debug/pprof/")
[ "$CODE" = 404 ] || {
  echo "smoke: /debug/pprof/ on the API port answered $CODE, want 404" >&2; exit 1; }

echo "smoke: submitting tiny job (?wait=1)"
curl -fsS -o "$OUT/miss.json" -X POST "http://$ADDR/jobs?wait=1" -d "$BODY"
FIRST=$(cat "$OUT/miss.json")
grep -q '"state": *"done"' <<<"$FIRST" || {
  echo "smoke: job did not reach done: $FIRST" >&2; exit 1; }
grep -q '"results": *{' <<<"$FIRST" || {
  echo "smoke: done job carried no results: $FIRST" >&2; exit 1; }
grep -Eq '"digest": *"[0-9a-f]{16}"' <<<"$FIRST" || {
  echo "smoke: digested job carried no 16-hex state digest: $FIRST" >&2; exit 1; }

echo "smoke: scraping /metrics"
METRICS=$(curl -fsS "http://$ADDR/metrics")
grep -q '^nimsim_jobs_completed_total 1$' <<<"$METRICS" || {
  echo "smoke: expected nimsim_jobs_completed_total 1" >&2
  echo "$METRICS" | grep '^nimsim_' >&2; exit 1; }

echo "smoke: resubmitting identical body, expecting cache hit"
HEADERS=$(curl -fsS -D - -o "$OUT/hit.json" -X POST "http://$ADDR/jobs" -d "$BODY")
grep -qi '^x-cache: hit' <<<"$HEADERS" || {
  echo "smoke: second submit was not a cache hit:" >&2
  echo "$HEADERS" >&2; exit 1; }

echo "smoke: checking the results bytes agree across miss, hit and GET"
ID=$(sed -n 's/^  "id": "\([0-9a-f]*\)",$/\1/p' "$OUT/miss.json")
[ -n "$ID" ] || { echo "smoke: no job id in $OUT/miss.json" >&2; exit 1; }
curl -fsS -o "$OUT/get.json" "http://$ADDR/jobs/$ID"
for f in miss hit get; do
  sed -n '/^  "results": {/,$p' "$OUT/$f.json" > "$OUT/$f.results"
done
[ -s "$OUT/miss.results" ] || { echo "smoke: no results member in the ?wait=1 body" >&2; exit 1; }
for f in hit get; do
  diff "$OUT/miss.results" "$OUT/$f.results" >&2 || {
    echo "smoke: $f results differ from the ?wait=1 results" >&2; exit 1; }
done
for f in miss hit; do
  sed '/^  "submits": [0-9]*,$/d' "$OUT/$f.json" > "$OUT/$f.nosubmits"
done
diff "$OUT/miss.nosubmits" "$OUT/hit.nosubmits" >&2 || {
  echo "smoke: ?wait=1 and hit bodies differ beyond their submits line" >&2; exit 1; }

echo "smoke: submitting an unknown benchmark, expecting 400"
CODE=$(curl -sS -o "$OUT/bad.json" -w '%{http_code}' -X POST "http://$ADDR/jobs?wait=1" -d '{"benchmark":"nosuch"}')
[ "$CODE" = 400 ] || {
  echo "smoke: unknown benchmark answered $CODE, want 400: $(cat "$OUT/bad.json")" >&2; exit 1; }

echo "smoke: submitting a full config member, expecting 400 naming it"
CODE=$(curl -sS -o "$OUT/bad.json" -w '%{http_code}' -X POST "http://$ADDR/jobs?wait=1" -d '{"config":{}}')
[ "$CODE" = 400 ] && grep -q config "$OUT/bad.json" || {
  echo "smoke: config member answered $CODE, want 400 naming config: $(cat "$OUT/bad.json")" >&2; exit 1; }
METRICS=$(curl -fsS "http://$ADDR/metrics")
grep -q '^nimsim_jobs_submitted_total 1$' <<<"$METRICS" || {
  echo "smoke: a refused job was registered (want nimsim_jobs_submitted_total 1)" >&2; exit 1; }

kill "$DAEMON"
wait "$DAEMON" 2>/dev/null || true
rm -rf "$OUT"
trap - EXIT
echo "smoke: ok"
