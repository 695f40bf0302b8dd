#!/usr/bin/env bash
# Manual-fleet shard smoke test: SHARDS concurrent `table4 --shard i/N`
# worker processes, then `merge`.
#
# Usage: shard_smoke.sh SCAA_CAMPAIGN_BIN WORKDIR [--kill]
# Env:   REPS (default 1), SEED (default 2022), SHARDS (default 4)
#
# Runs the table4 campaign as a single process (the reference), then as a
# fleet of SHARDS background `--shard i/N --checkpoint` workers, one thread
# each. With --kill, the last worker is SIGKILLed once it has committed a
# chunk: it must exit non-zero, and its `--resume` rerun must restore the
# fsync'd chunks and complete. `scaa_campaign merge` then folds the
# fleet's slice files, and its report must be byte-identical to the
# reference (cmp, plus bench_diff.py, which exits non-zero on any cell
# that differs). A final case splices a slice written under a
# fault-injection plan (`scaa_campaign faults --fault-plan ...`) over one
# fault-free shard slice and asserts the merge refuses the mix with a
# fingerprint mismatch — fault plans are folded into the grid fingerprint
# exactly so mixed-provenance merges die loudly instead of averaging
# faulted and fault-free statistics.
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

# Set WORKER to the command of worker i, one thread each so the fleet
# shares the machine.
worker_cmd() {
  WORKER=("$BIN" "${COMMON[@]}" --threads 1 --shard "$1/$SHARDS"
          --checkpoint "$WORK/ck" --out "$WORK/worker$1.json")
}

echo "shard_smoke: $SHARDS concurrent --shard i/$SHARDS workers"
PIDS=()
for i in $(seq 1 "$SHARDS"); do
  # A simple command in the background: $! is the worker process itself.
  worker_cmd "$i"
  "${WORKER[@]}" >/dev/null 2>"$WORK/worker$i.err" &
  PIDS+=($!)
done

# The last worker always holds chunks (ShardPlan gives a grid's last chunk
# to the last shard). Kill it once its first progress line shows a
# committed chunk, so its resume has something to restore.
VICTIM=
if [ "$KILL" = "--kill" ]; then
  VICTIM=$SHARDS
  for _ in $(seq 1 1200); do
    if grep -q " sims$" "$WORK/worker$VICTIM.err"; then break; fi
    sleep 0.05
  done
  kill -KILL "${PIDS[$((VICTIM - 1))]}"
fi

for i in $(seq 1 "$SHARDS"); do
  set +e
  wait "${PIDS[$((i - 1))]}"
  STATUS=$?
  set -e
  if [ "$i" = "$VICTIM" ]; then
    if [ "$STATUS" -eq 0 ]; then
      echo "shard_smoke: FAIL — worker $i exited 0 after SIGKILL" >&2
      exit 1
    fi
    echo "shard_smoke: killed worker $i exited $STATUS as expected"
  elif [ "$STATUS" -ne 0 ]; then
    echo "shard_smoke: FAIL — worker $i exited $STATUS:" >&2
    cat "$WORK/worker$i.err" >&2
    exit 1
  fi
done

if [ -n "$VICTIM" ]; then
  echo "shard_smoke: resuming worker $VICTIM from its checkpointed chunks"
  worker_cmd "$VICTIM"
  "${WORKER[@]}" --resume >/dev/null 2>"$WORK/resume.err"
  if ! grep -q "resuming:" "$WORK/resume.err"; then
    echo "shard_smoke: FAIL — the resumed worker restored no chunk:" >&2
    cat "$WORK/resume.err" >&2
    exit 1
  fi
fi

"$BIN" merge --reps "$REPS" --seed "$SEED" --format json \
  --shards "$SHARDS" --checkpoint "$WORK/ck" \
  --out "$WORK/merged.json" >/dev/null
cmp "$WORK/ref.json" "$WORK/merged.json"
echo "shard_smoke: merge of the fleet byte-identical to single process"

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
