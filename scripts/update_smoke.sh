#!/usr/bin/env bash
# Update-pipeline smoke test:
#   1. run the crash-injection suite (kill at every step of commit and
#      compaction; reopen must recover the last published snapshot) and
#      the snapshot-isolation suite (readers through concurrent commits,
#      compactions, and the background compactor),
#   2. run the E12 mixed read/write bench in fast mode: every read
#      through commits and compactions must succeed with hits, and the
#      mixed window must have seen commits. The p99 ratios are printed
#      and recorded, not gated here — 400 ms windows on a shared host say
#      nothing reliable about the code; the full e12 run gates them.
#
# Usage: scripts/update_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail() { echo "update_smoke: $1" >&2; exit 1; }

echo "== crash injection (commit + compaction, every crash point) =="
cargo test -q -p xrank-core --offline --test update_crash

echo "== snapshot isolation (readers through commits/compactions) =="
cargo test -q -p xrank-core --offline --test update_concurrent
cargo test -q -p xrank-core --offline --test updates

echo "== mixed read/write latency (E12 fast mode) =="
cargo build --release --offline -p xrank-bench --bin e12_updates >/dev/null

OUT_JSON=$(mktemp "${TMPDIR:-/tmp}/xrank-updates.XXXXXX.json")
trap 'rm -f "$OUT_JSON"' EXIT
# The bench panics (nonzero exit) on a failed or empty read.
out=$(BENCH_UPDATES_FAST=1 BENCH_UPDATES_OUT="$OUT_JSON" target/release/e12_updates)
echo "$out" | tail -n 3

COMMITS=$(grep -o '"commits": [0-9]*' "$OUT_JSON" | grep -o '[0-9]*')
[ "${COMMITS:-0}" -gt 0 ] || fail "mixed window saw zero commits — nothing was measured"
echo "every read succeeded across $COMMITS commits"

echo "update_smoke: ok"
