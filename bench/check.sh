#!/usr/bin/env bash
# Runs the whole benchmark twice on the current checkout and compares the
# two result files against the bounds in BENCHMARK.json: the agreement
# two sets of runs of one commit must show before the benchmark can judge
# a change. Run from the repository root; arguments go to `gavel-bench
# run` (for example --smoke, --seed 2, --reps 5).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-bench/target}"
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
bench="$CARGO_TARGET_DIR/release/gavel-bench"

"$bench" run "$@" --out bench/out/check-a.json
"$bench" run "$@" --out bench/out/check-b.json
"$bench" agree bench/out/check-a.json bench/out/check-b.json
