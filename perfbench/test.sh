#!/usr/bin/env bash
# Runs the benchmark's own tests: builds the daemon the tests spawn,
# then the unit tests and the tiny-scale contract tests.
#
#   bash perfbench/test.sh
#
# Run from the root of a checkout. Build outputs go to $CARGO_TARGET_DIR
# (default .bench_build).
set -euo pipefail

target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p intune_daemon --bin intune_daemon
PERFBENCH_DAEMON_BIN="$(realpath "$target/release/intune_daemon")" \
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
