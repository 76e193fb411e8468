#!/usr/bin/env bash
# Builds bench_e2e (release, offline) and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in one process; the last line of standard output is
#       the JSON result (the command named in BENCHMARK.json)
#   benchmark/run.sh [--seed N] [--smoke] [--repeats R] [--set NAME]
#       every workload, untraced then traced, each in its own process;
#       writes benchmark/results/<set>/summary.json and the trace files
#   benchmark/run.sh compare A/summary.json B/summary.json
#
# Run it from the repository root. Build products, the serve socket and
# everything else the run leaves behind go under $CARGO_TARGET_DIR
# (default .bench_build), which .gitignore names.
set -euo pipefail

here="$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

# Cargo's progress goes to standard error; standard output stays the
# benchmark's alone.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

bin="$CARGO_TARGET_DIR/release/bench_e2e"
case "${1:-}" in
  compare|spec) exec "$bin" "$@" ;;
esac
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$bin" run --scratch "$CARGO_TARGET_DIR" "$@"
  fi
done
exec "$bin" set --scratch "$CARGO_TARGET_DIR" --out "$here/results" "$@"
