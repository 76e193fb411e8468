#!/usr/bin/env bash
# Fails when a second clock creeps back into the timed paths. The trainer
# (crates/algo/src) times every phase on the process clock,
# marl_obs::clock::now_ns, and hands the same pair of stamps to the phase
# profile, the span and the duration histogram; the span tracer keeps no
# epoch of its own (DESIGN.md §3f).
#
#   .github/scripts/one-clock.sh
#
# Run it from the repository root.
set -euo pipefail

status=0
if grep -rnE '\bInstant\b|tracer\.now_ns' crates/algo/src; then
  echo "crates/algo/src reads time only through marl_obs::clock::now_ns" >&2
  status=1
fi
if grep -nw 'Instant' crates/obs/src/span.rs; then
  echo "crates/obs/src/span.rs stamps spans on marl_obs::clock, not its own Instant" >&2
  status=1
fi
if [ "$status" -eq 0 ]; then
  echo "one process clock"
fi
exit "$status"
