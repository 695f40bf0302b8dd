#!/usr/bin/env python3
"""Cell diff of scaa_campaign JSON reports.

Usage: bench_diff.py BASELINE FRESH [BASELINE FRESH ...]

Each argument pair is a committed report (a BENCH_*.json golden) and a
freshly emitted copy (scaa_campaign <cmd> --format json). Every report is
deterministic — same seed, same bytes — so the comparison is plain
equality over the report name, the column list and every row, cell by
cell. The script prints each difference (a changed cell, a column or row
missing from either side) and exits 1 when any pair differs, 0 when all
pairs are equal, and 2 on a usage error.
"""

import json
import sys

MAX_LINES = 40  # differences printed per pair before summarizing the rest


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"  cannot load {path}: {exc}")
        return None


def row_label(row, index, key):
    return f"row {index} ({row.get(key)})" if key in row else f"row {index}"


def differences(baseline, fresh):
    """Every difference between two reports, as printable lines."""
    out = []
    if baseline.get("report") != fresh.get("report"):
        out.append(f"report {baseline.get('report')!r} -> {fresh.get('report')!r}")
    base_cols = baseline.get("columns", [])
    fresh_cols = fresh.get("columns", [])
    if base_cols != fresh_cols:
        out.append(f"columns {base_cols} -> {fresh_cols}")
    key = base_cols[0] if base_cols else None
    base_rows = baseline.get("rows", [])
    fresh_rows = fresh.get("rows", [])
    for i, (base, row) in enumerate(zip(base_rows, fresh_rows)):
        label = row_label(base, i, key)
        for col in base:
            if col not in row:
                out.append(f"{label}: {col} missing from fresh run")
            elif base[col] != row[col]:
                out.append(f"{label}: {col} {base[col]!r} -> {row[col]!r}")
        for col in row:
            if col not in base:
                out.append(f"{label}: {col} not in baseline")
    for i in range(len(fresh_rows), len(base_rows)):
        out.append(f"{row_label(base_rows[i], i, key)}: missing from fresh run")
    for i in range(len(base_rows), len(fresh_rows)):
        out.append(f"{row_label(fresh_rows[i], i, key)}: not in baseline")
    if not out and baseline != fresh:
        out.append(f"top-level keys {sorted(baseline)} -> {sorted(fresh)}")
    return out


def diff_pair(baseline_path, fresh_path):
    """Print the diff of one pair; return True when the reports are equal."""
    print(f"== {baseline_path} vs {fresh_path}")
    baseline = load(baseline_path)
    fresh = load(fresh_path)
    if baseline is None or fresh is None:
        return False
    diff = differences(baseline, fresh)
    for line in diff[:MAX_LINES]:
        print(f"  {line}")
    if len(diff) > MAX_LINES:
        print(f"  ... and {len(diff) - MAX_LINES} more")
    print(f"  {len(diff)} difference(s)" if diff else "  identical")
    return not diff


def main(argv):
    if len(argv) < 2 or len(argv) % 2 != 0:
        print(__doc__)
        return 2
    equal = [diff_pair(argv[i], argv[i + 1]) for i in range(0, len(argv), 2)]
    return 0 if all(equal) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
