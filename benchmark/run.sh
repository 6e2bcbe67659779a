#!/usr/bin/env bash
# The single entry point of the repository benchmark (see benchmark/README.md).
#
#   benchmark/run.sh                      every workload end to end, then every
#                                         workload traced; writes benchmark/out/
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                         one run (what BENCHMARK.json's command is)
#   benchmark/run.sh compare <a.json> <b.json>
#   benchmark/run.sh test                 the benchmark crate's own tests
#
# Every form first builds `monitord` (root package, release) and the benchmark
# crate from the sources of this checkout, offline, into $CARGO_TARGET_DIR
# (default benchmark/target), and points DLRV_MONITORD_BIN at that `monitord`,
# so the daemons under test are always the ones of this commit.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "benchmark/run.sh: $root holds no repository to build (no Cargo.toml, no crates/)" >&2
    exit 2
fi

# Relative target directories are relative to the repository root (cargo is
# always run from there); the binaries are handed on by absolute path.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
case "$CARGO_TARGET_DIR" in
/*) bin="$CARGO_TARGET_DIR/release" ;;
*) bin="$root/$CARGO_TARGET_DIR/release" ;;
esac
# Build chatter goes to stderr: standard output carries only results.
cargo build --release --offline --locked --quiet --bin monitord >&2
cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml >&2
export DLRV_MONITORD_BIN="$bin/monitord"

case "${1:-all}" in
test)
    shift
    exec cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml "$@"
    ;;
all)
    [ $# -gt 0 ] && shift
    exec "$bin/dlrv-benchmark" all "$@"
    ;;
*)
    exec "$bin/dlrv-benchmark" "$@"
    ;;
esac
