#!/usr/bin/env bash
# Black-box smoke test of the serving daemon: build nimsimd, start it on
# a local port, wait for /healthz, submit a tiny job with ?wait=1 and
# assert it completes, scrape /metrics for the completion counter, then
# resubmit the identical body and assert the result cache answered
# (X-Cache: hit). The three documents that carry the results — the
# ?wait=1 completion, the hit and GET /jobs/{id} — must hold the same
# "results" member byte for byte, and the completion and the hit may
# differ only in their "submits" line. Exercises the full binary +
# listener path that the in-process httptest suite cannot.
#
# Usage: scripts/smoke.sh [port]   (default 18080)
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-18080}"
ADDR="127.0.0.1:${PORT}"
BODY='{"scheme":"dnuca3d","benchmark":"mgrid","warm_cycles":1000,"measure_cycles":5000,"sample_interval":500,"digest_interval":500}'

echo "smoke: building nimsimd"
go build -o /tmp/nimsimd-smoke ./cmd/nimsimd

OUT=$(mktemp -d)
/tmp/nimsimd-smoke -addr "$ADDR" -workers 1 &
DAEMON=$!
trap 'kill "$DAEMON" 2>/dev/null || true; rm -rf "$OUT"' EXIT

echo "smoke: waiting for /healthz on $ADDR"
for i in $(seq 1 50); do
  if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
  if [ "$i" -eq 50 ]; then echo "smoke: daemon never became healthy" >&2; exit 1; fi
  sleep 0.1
done

echo "smoke: submitting tiny job (?wait=1)"
curl -fsS -o "$OUT/miss.json" -X POST "http://$ADDR/jobs?wait=1" -d "$BODY"
FIRST=$(cat "$OUT/miss.json")
echo "$FIRST" | grep -q '"state": *"done"' || {
  echo "smoke: job did not reach done: $FIRST" >&2; exit 1; }
echo "$FIRST" | grep -q '"results": *{' || {
  echo "smoke: done job carried no results: $FIRST" >&2; exit 1; }
echo "$FIRST" | grep -Eq '"digest": *"[0-9a-f]{16}"' || {
  echo "smoke: digested job carried no 16-hex state digest: $FIRST" >&2; exit 1; }

echo "smoke: scraping /metrics"
METRICS=$(curl -fsS "http://$ADDR/metrics")
echo "$METRICS" | grep -q '^nimsim_jobs_completed_total 1$' || {
  echo "smoke: expected nimsim_jobs_completed_total 1" >&2
  echo "$METRICS" | grep '^nimsim_' >&2; exit 1; }

echo "smoke: resubmitting identical body, expecting cache hit"
HEADERS=$(curl -fsS -D - -o "$OUT/hit.json" -X POST "http://$ADDR/jobs" -d "$BODY")
echo "$HEADERS" | grep -qi '^x-cache: hit' || {
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

kill "$DAEMON"
wait "$DAEMON" 2>/dev/null || true
rm -rf "$OUT"
trap - EXIT
echo "smoke: ok"
