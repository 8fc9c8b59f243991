#!/usr/bin/env bash
# Tier-1 verification: release build, full workspace test suite, and
# rustdoc and clippy with warnings denied. CI and pre-merge checks run
# exactly this.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --offline

echo "== cargo test -q --workspace =="
cargo test -q --workspace --offline

echo "== fault-injection suite (explicit) =="
cargo test -q -p xrank-core --offline --test fault_injection
cargo test -q -p xrank-core --offline --test persistence

echo "== fault smoke (corrupt a page, assert typed failure + recovery) =="
scripts/fault_smoke.sh

echo "== obs smoke (EXPLAIN stages + Prometheus exposition) =="
scripts/obs_smoke.sh

echo "== overload smoke (typed shedding + degraded EXPLAIN trigger) =="
scripts/overload_smoke.sh

echo "== update smoke (crash recovery + read latency through commits) =="
scripts/update_smoke.sh

echo "== durability smoke (WAL replay + scrub/quarantine/self-repair) =="
scripts/durability_smoke.sh

echo "== trace smoke (flight recorder -> Perfetto trace dump) =="
scripts/trace_smoke.sh

echo "== probe-path smoke (RDIL cursor/memo descent reduction) =="
BENCH_THROUGHPUT_QUICK=1 cargo run --release --offline -p xrank-bench \
    --bin e8_throughput

echo "== regression benchmark: unit + 200-document smoke suite =="
# The benchmark is a package of its own that calls the library through
# the public surface listed in benchmark/README.md; a change that breaks
# that surface must fail here, not in the pipeline. Output goes to the
# git-ignored .bench_build/ and benchmark/out/ only.
CARGO_TARGET_DIR=.bench_build cargo test --release --offline -q \
    --manifest-path benchmark/Cargo.toml

echo "== cargo doc --workspace with warnings denied =="
# Catches dangling intra-doc links to renamed or deleted items.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "ci: all green"
