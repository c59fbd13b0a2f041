#!/usr/bin/env bash
# Build the `llm-pilot` daemon and the benchmark from source, then run one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 40 --trace 0
#
# Build products go to $CARGO_TARGET_DIR (default .bench_build). Build
# output goes to standard error; standard output ends with the result line.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_NET_OFFLINE=true
cargo build --release --quiet --locked --manifest-path Cargo.toml --bin llm-pilot >&2
cargo build --release --quiet --locked --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --daemon "$CARGO_TARGET_DIR/release/llm-pilot" \
    --work-dir "$CARGO_TARGET_DIR/perfbench-work" "$@"
