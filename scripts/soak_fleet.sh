#!/usr/bin/env bash
# Fleet failover soak: sweep the kill checkpoint across the whole ingest
# window and prove the exact-accounting invariant holds at every single
# crash point, from two independent angles per round:
#
#   1. `viprof_fleet serve --kill-at N` exits 0 only if its own ledger
#      balances AND the in-process fsck audit is clean, and
#   2. the exported namespace is re-audited from disk by `viprof_fleet
#      fsck --fleet`, the way an operator would after a real crash.
#
# Usage: scripts/soak_fleet.sh [build-dir] [rounds]   (default: build 60)
# Env:   SOAK_SESSIONS (default 3), SOAK_SHARDS (default 3),
#        SOAK_SEED (default 42) — vary the seed to shift retry jitter.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
ROUNDS="${2:-60}"
SESSIONS="${SOAK_SESSIONS:-3}"
SHARDS="${SOAK_SHARDS:-3}"
SEED="${SOAK_SEED:-42}"

FLEET_TOOL="$BUILD/tools/viprof_fleet"
if [ ! -x "$FLEET_TOOL" ]; then
  echo "soak_fleet.sh: $FLEET_TOOL not built (run cmake --build $BUILD first)" >&2
  exit 1
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/viprof_soak_fleet.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

echo "soak_fleet: $ROUNDS rounds, $SESSIONS sessions x $SHARDS shards, seed $SEED"
failures=0
for ((round = 1; round <= ROUNDS; ++round)); do
  # Stride the kill point so the sweep covers preamble frames, jit-map
  # frames and the sample batches at the tail of each stream.
  kill_at=$((round * 3 + 1))
  export_dir="$WORK/round-$round"
  if ! "$FLEET_TOOL" serve --sessions "$SESSIONS" --shards "$SHARDS" \
        --kill-at "$kill_at" --seed "$SEED" --quiet \
        --export "$export_dir" >"$WORK/round-$round.log" 2>&1; then
    echo "soak_fleet: FAIL round $round (kill-at $kill_at): serve imbalanced" >&2
    cat "$WORK/round-$round.log" >&2
    failures=$((failures + 1))
    continue
  fi
  if ! "$FLEET_TOOL" fsck --fleet "$export_dir" --quiet; then
    echo "soak_fleet: FAIL round $round (kill-at $kill_at): export fsck" >&2
    "$FLEET_TOOL" fsck --fleet "$export_dir" >&2 || true
    failures=$((failures + 1))
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "soak_fleet: $failures/$ROUNDS rounds FAILED" >&2
  exit 1
fi
echo "soak_fleet: all $ROUNDS rounds clean — acked == stored + lost at every kill point"
