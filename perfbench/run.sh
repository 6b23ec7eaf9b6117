#!/bin/sh
# Builds the benchmark, then runs it with the given arguments, from the
# repository root:
#
#   sh perfbench/run.sh --workload certify --seed 1 --seconds 10 --trace 0
#
# `serve-edit` runs on one CPU with one malloc arena. Its closed loop hands
# every request between the client and daemon threads; whether the kernel
# put them on one CPU or two changed throughput twofold between identical
# runs, and per-thread arenas moved peak memory by a third.
set -e
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench"
case " $* " in
*" --workload serve-edit "*)
    # An unpinned run is not comparable with pinned ones: refuse it.
    export MALLOC_ARENA_MAX=1
    cpu=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*\([0-9]*\).*/\1/p' /proc/self/status)
    if [ -z "$cpu" ] || ! command -v taskset >/dev/null 2>&1; then
        echo "run.sh: serve-edit must run on one CPU; taskset or the CPU list is missing" >&2
        exit 1
    fi
    exec taskset -c "$cpu" "$bin" "$@"
    ;;
esac
exec "$bin" "$@"
