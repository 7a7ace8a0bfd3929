#!/usr/bin/env bash
# Regenerate the committed trajectory fingerprint table
# (tests/fingerprints/fingerprints.csv) from the CURRENT kernel. This is a
# deliberate act: each row pins the exact trajectory (event times, order,
# skew-quantized logical clocks) of one catalog scenario, and overwriting
# the table redefines "equivalent" for every future kernel change.
#
# Do this only when a PR consciously changes trajectories, and say so in
# the PR (docs/ARCHITECTURE.md "Fingerprint pinning" spells out when a
# mismatch is a regression to investigate instead).
#
# The regeneration is cross-checked before it lands: the table is computed
# serially, on 1/2/8 sweep-runner threads, and through the island-parallel
# engine at 1/2/8 requested workers (serial-fallback specs run serially
# there by design) — all seven outputs must be byte-identical, or this
# script fails and touches nothing.
#
# Usage: scripts/regen_fingerprints.sh [BUILD_DIR]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR=${1:-build}

if [ ! -d "$BUILD_DIR" ]; then
  cmake -B "$BUILD_DIR" -S .
fi
cmake --build "$BUILD_DIR" -j --target test_fingerprint

TMP_DIR=$(mktemp -d)
trap 'rm -rf "$TMP_DIR"' EXIT

regen() { # <out-file> [extra env k=v ...]
  local out=$1
  shift
  env "$@" GCS_REGEN_FINGERPRINTS=1 GCS_FINGERPRINT_OUT="$TMP_DIR/$out" \
    "$BUILD_DIR"/test_fingerprint \
    --gtest_filter='FingerprintRegen.RegenerateTable' > /dev/null
}

regen serial.csv
regen t1.csv GCS_FP_THREADS=1
regen t2.csv GCS_FP_THREADS=2
regen t8.csv GCS_FP_THREADS=8
regen i1.csv GCS_FP_ISLANDS=1
regen i2.csv GCS_FP_ISLANDS=2
regen i8.csv GCS_FP_ISLANDS=8

for variant in t1 t2 t8 i1 i2 i8; do
  if ! cmp -s "$TMP_DIR/serial.csv" "$TMP_DIR/$variant.csv"; then
    echo "FATAL: regeneration is not invariant — serial vs $variant differ:" >&2
    diff "$TMP_DIR/serial.csv" "$TMP_DIR/$variant.csv" >&2 || true
    exit 1
  fi
done

cp "$TMP_DIR/serial.csv" tests/fingerprints/fingerprints.csv
echo "regenerated tests/fingerprints/fingerprints.csv" \
     "(byte-identical across serial/1/2/8 threads, 1/2/8 islands)"
echo "now rerun the full suite (ctest -L tier1) and commit the diff"
