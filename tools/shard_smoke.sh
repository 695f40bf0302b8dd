#!/usr/bin/env bash
# Multi-process shard orchestration smoke test.
#
# Usage: shard_smoke.sh SCAA_CAMPAIGN_BIN WORKDIR [--kill]
# Env:   REPS (default 1), SEED (default 2022), SHARDS (default 4)
#
# Runs the table4 campaign three ways and asserts all outputs are
# byte-identical:
#   1. single process (the reference),
#   2. sharded coordinator with SHARDS forked workers — with --kill, one
#      worker is SIGKILLed mid-run, the coordinator must exit non-zero,
#      and a --resume rerun finishes from the fsync'd chunks; --kill also
#      runs a kill-COORDINATOR case (SIGTERM to the coordinator itself):
#      it must forward the signal, reap every worker (no orphans holding
#      slice flocks), and leave the checkpoint immediately resumable,
#   3. `scaa_campaign merge` folding the per-shard checkpoint slices.
# The merged report is additionally diffed with bench_diff.py, which
# exits non-zero on any cell that differs. A final case
# splices a slice written under a fault-injection plan (`scaa_campaign
# faults --fault-plan ...`) over one fault-free shard slice and asserts
# the merge refuses the mix with a fingerprint mismatch — fault plans are
# folded into the grid fingerprint exactly so mixed-provenance merges die
# loudly instead of averaging faulted and fault-free statistics.
set -euo pipefail

BIN=${1:?usage: shard_smoke.sh SCAA_CAMPAIGN_BIN WORKDIR [--kill]}
WORK=${2:?usage: shard_smoke.sh SCAA_CAMPAIGN_BIN WORKDIR [--kill]}
KILL=${3:-}
REPS=${REPS:-1}
SEED=${SEED:-2022}
SHARDS=${SHARDS:-4}
TOOLS_DIR=$(cd "$(dirname "$0")" && pwd)

rm -rf "$WORK"
mkdir -p "$WORK"
COMMON=(table4 --reps "$REPS" --seed "$SEED" --format json)

echo "shard_smoke: single-process reference (reps=$REPS seed=$SEED)"
"$BIN" "${COMMON[@]}" --out "$WORK/ref.json" >/dev/null

if [ "$KILL" = "--kill" ]; then
  echo "shard_smoke: coordinator with $SHARDS workers, SIGKILLing one mid-run"
  set +e
  "$BIN" "${COMMON[@]}" --shards "$SHARDS" --checkpoint "$WORK/ck" \
    --out "$WORK/sharded.json" >"$WORK/coord.out" 2>"$WORK/coord.err" &
  COORD=$!
  # Give the coordinator time to fork, then kill whichever worker is still
  # alive. On a fast machine every worker may already have finished — then
  # there is nothing to kill and the run legitimately succeeds.
  sleep 0.5
  VICTIM=$(pgrep -P "$COORD" 2>/dev/null | head -n 1 || true)
  if [ -n "$VICTIM" ]; then
    kill -KILL "$VICTIM"
  fi
  wait "$COORD"
  STATUS=$?
  set -e
  if [ -n "$VICTIM" ]; then
    if [ "$STATUS" -eq 0 ]; then
      echo "shard_smoke: FAIL — coordinator exited 0 after worker SIGKILL" >&2
      exit 1
    fi
    echo "shard_smoke: coordinator failed as expected (status $STATUS)," \
         "resuming from checkpoints"
  else
    echo "shard_smoke: workers finished before the kill; continuing"
  fi
  "$BIN" "${COMMON[@]}" --shards "$SHARDS" --checkpoint "$WORK/ck" --resume \
    --out "$WORK/sharded.json" >/dev/null

  echo "shard_smoke: coordinator-kill case — SIGTERM to the coordinator"
  # Fresh checkpoint stem: the point of this case is that after SIGTERM the
  # coordinator forwards the signal, reaps every worker, and releases the
  # slice flocks so an IMMEDIATE --resume succeeds (no orphan holds a lock).
  set +e
  "$BIN" "${COMMON[@]}" --shards "$SHARDS" --checkpoint "$WORK/ck_term" \
    --out "$WORK/sharded_term.json" \
    >"$WORK/coord_term.out" 2>"$WORK/coord_term.err" &
  COORD=$!
  sleep 0.5
  kill -TERM "$COORD" 2>/dev/null
  TERM_SENT=$?
  wait "$COORD"
  STATUS=$?
  set -e
  if [ "$TERM_SENT" -eq 0 ]; then
    # Workers are fork-without-exec, so they share the coordinator's argv
    # (which names the unique ck_term stem): any survivor shows up here.
    # This assertion holds whether the coordinator aborted or won the race
    # and finished — either way nothing may be left holding slice flocks.
    ORPHANS=$(pgrep -f "$WORK/ck_term" 2>/dev/null || true)
    if [ -n "$ORPHANS" ]; then
      echo "shard_smoke: FAIL — orphaned workers after coordinator" \
           "SIGTERM: $ORPHANS" >&2
      exit 1
    fi
    if [ "$STATUS" -eq 0 ]; then
      # SIGTERM landed in the shutdown window after the interrupt check:
      # the run completed cleanly, nothing was orphaned. Benign race.
      echo "shard_smoke: coordinator completed before acting on SIGTERM;" \
           "continuing"
    else
      if ! grep -q "resume" "$WORK/coord_term.err"; then
        echo "shard_smoke: FAIL — coordinator error lacks a --resume hint:" >&2
        cat "$WORK/coord_term.err" >&2
        exit 1
      fi
      echo "shard_smoke: coordinator failed as expected (status $STATUS)," \
           "all workers reaped; resuming immediately"
    fi
  else
    echo "shard_smoke: coordinator finished before the SIGTERM; continuing"
  fi
  # Immediate resume: must not trip over stale slice locks.
  "$BIN" "${COMMON[@]}" --shards "$SHARDS" --checkpoint "$WORK/ck_term" \
    --resume --out "$WORK/sharded_term.json" >/dev/null
  cmp "$WORK/ref.json" "$WORK/sharded_term.json"
  echo "shard_smoke: post-SIGTERM resumed output byte-identical to reference"
else
  echo "shard_smoke: coordinator with $SHARDS workers"
  "$BIN" "${COMMON[@]}" --shards "$SHARDS" --checkpoint "$WORK/ck" \
    --out "$WORK/sharded.json" >/dev/null
fi

cmp "$WORK/ref.json" "$WORK/sharded.json"
echo "shard_smoke: sharded output byte-identical to single process"

"$BIN" merge --reps "$REPS" --seed "$SEED" --format json \
  --shards "$SHARDS" --checkpoint "$WORK/ck" \
  --out "$WORK/merged.json" >/dev/null
cmp "$WORK/ref.json" "$WORK/merged.json"
echo "shard_smoke: merge subcommand output byte-identical to single process"

if command -v python3 >/dev/null 2>&1; then
  python3 "$TOOLS_DIR/bench_diff.py" "$WORK/ref.json" "$WORK/merged.json"
else
  echo "shard_smoke: python3 not found; skipping the bench_diff check"
fi

echo "shard_smoke: foreign fault-plan slice must be rejected by merge"
cat > "$WORK/benign_plan.txt" <<'EOF'
can_drop rate=0.05
EOF
"$BIN" faults --fault-plan "$WORK/benign_plan.txt" --reps "$REPS" \
  --seed "$SEED" --format json --checkpoint "$WORK/ck_fault" \
  --out "$WORK/faults.json" >/dev/null
# The faulted benign leg reuses table4's None grid (same seeds, same shape,
# same chunking); only the attached FaultPlan differs, so its slice file is
# compatible in every way EXCEPT the grid fingerprint in the header. Splice
# it over one shard slice of the fault-free None row: the merge must refuse
# to fold faulted chunks into a fault-free campaign.
TARGET=$(ls "$WORK"/ck.table4-no-attacks-*".s1of$SHARDS" | head -n 1)
cp "$WORK"/ck_fault.faults-custom-plan-benign-* "$TARGET"
set +e
"$BIN" merge --reps "$REPS" --seed "$SEED" --format json \
  --shards "$SHARDS" --checkpoint "$WORK/ck" \
  --out "$WORK/merged_bad.json" >/dev/null 2>"$WORK/merge_bad.err"
STATUS=$?
set -e
if [ "$STATUS" -eq 0 ]; then
  echo "shard_smoke: FAIL — merge accepted a slice written under a" \
       "different fault plan" >&2
  exit 1
fi
if ! grep -qi "fingerprint" "$WORK/merge_bad.err"; then
  echo "shard_smoke: FAIL — merge rejection does not mention the" \
       "fingerprint mismatch:" >&2
  cat "$WORK/merge_bad.err" >&2
  exit 1
fi
echo "shard_smoke: merge rejected the foreign fault-plan slice" \
     "(status $STATUS, fingerprint mismatch)"

echo "shard_smoke: OK"
