#!/usr/bin/env bash
# Determinism golden for one scaa_campaign paper subcommand.
#
# Usage: golden.sh SCAA_CAMPAIGN_BIN CMD REPS GOLDEN
#
# Runs `CMD --reps REPS --seed 2022 --threads 2 --format json` and compares
# the report byte for byte with the committed GOLDEN (a BENCH_<cmd>.json at
# the repository root). On a mismatch it prints bench_diff.py's cell diff
# (when python3 exists) and exits 1. Regenerate a golden deliberately with
#   scaa_campaign CMD --reps REPS --seed 2022 --format json --out GOLDEN
set -euo pipefail

BIN=${1:?usage: golden.sh SCAA_CAMPAIGN_BIN CMD REPS GOLDEN}
CMD=${2:?usage: golden.sh SCAA_CAMPAIGN_BIN CMD REPS GOLDEN}
REPS=${3:?usage: golden.sh SCAA_CAMPAIGN_BIN CMD REPS GOLDEN}
GOLDEN=${4:?usage: golden.sh SCAA_CAMPAIGN_BIN CMD REPS GOLDEN}
FRESH="golden_$CMD.json"

"$BIN" "$CMD" --reps "$REPS" --seed 2022 --threads 2 --format json \
  >"$FRESH"
if cmp "$GOLDEN" "$FRESH"; then
  echo "golden: $CMD output byte-identical to $GOLDEN"
  exit 0
fi
if command -v python3 >/dev/null 2>&1; then
  python3 "$(dirname "$0")/bench_diff.py" "$GOLDEN" "$FRESH" || true
fi
echo "golden: FAIL — $CMD output differs from $GOLDEN (fresh copy: $FRESH)" >&2
exit 1
