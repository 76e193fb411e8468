#!/usr/bin/env bash
# Fails when the commits since BASE change a persisted or wire format
# without a CHANGELOG.md entry. A format change is a changed line that
# sets the checkpoint file version, the MARD wire version, or one of the
# byte pins of those formats (the `Params` frame pin in
# crates/dist/tests/wire_binary.rs, the checkpoint file pin in
# tests/persistence.rs).
#
#   .github/scripts/format-change-needs-changelog.sh BASE
#
# Run it from the repository root; BASE is a commit (CI passes the pull
# request's base).
set -euo pipefail

base="${1:?usage: $0 BASE}"
format_lines='CHECKPOINT_VERSION: u16 =|pub const VERSION: u16 =|params_frame_pin\(ScenarioId::|\(crc32\(&bytes\), bytes\.len\(\)\)'
changed=$(git diff -U0 "$base"...HEAD -- \
    crates/algo/src/checkpoint.rs crates/dist/src/wire.rs \
    crates/dist/tests/wire_binary.rs tests/persistence.rs |
  grep -E '^[-+][^-+]' | grep -E "$format_lines" || true)
if [ -z "$changed" ]; then
  echo "no format version or byte pin changed"
  exit 0
fi
if ! git diff --name-only "$base"...HEAD | grep -qx 'CHANGELOG.md'; then
  echo "::error::a format version or byte pin changed without a CHANGELOG.md entry:"
  echo "$changed"
  echo "Say in CHANGELOG.md what the format change is and whether old files or peers are still read."
  exit 1
fi
echo "format change recorded in CHANGELOG.md:"
echo "$changed"
