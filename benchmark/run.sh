#!/usr/bin/env bash
# Builds the benchmark from source (offline, release) and runs one workload:
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# The last line of standard output is the result object; everything the
# build prints goes to standard error.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# The driver sets CARGO_TARGET_DIR (relative to the checkout root); by hand
# the build lands in the package's own ignored target/.
target="${CARGO_TARGET_DIR:-benchmark/target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

export BENCH_OUT_DIR="${BENCH_OUT_DIR:-benchmark/out}"
export BENCH_GIT_REV="${BENCH_GIT_REV:-$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)}"
exec "$target/release/adsm-benchmark" "$@"
