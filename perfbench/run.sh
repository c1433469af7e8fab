#!/usr/bin/env bash
# Builds the daemon and the benchmark from source, then runs the benchmark.
#
#   bash perfbench/run.sh --workload select|ingest|table1|all \
#       --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Build outputs go to $CARGO_TARGET_DIR
# (default .bench_build); the benchmark's scratch files and span logs to
# $CARGO_TARGET_DIR/perfbench. Build messages go to standard error, so
# the last line of standard output is the result.
set -euo pipefail

target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path Cargo.toml \
    -p intune_daemon --bin intune_daemon >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

# The benchmark runs on one CPU, the first it may use, and so does the
# daemon it spawns (a child inherits the affinity): the reference kernel
# that scales the reported times then runs on the CPU that did the timed
# work, and the daemon's speed does not change with which CPU the
# scheduler put it on. Without taskset the benchmark runs unpinned.
cpu="$(sed -n 's/^Cpus_allowed_list:[[:space:]]*\([0-9]*\).*/\1/p' /proc/self/status)"
pin=()
if command -v taskset >/dev/null && [ -n "$cpu" ]; then
    pin=(taskset -c "$cpu")
fi

exec ${pin[@]+"${pin[@]}"} "$target/release/perfbench" \
    --daemon-bin "$target/release/intune_daemon" \
    --work-dir "$target/perfbench" \
    "$@"
