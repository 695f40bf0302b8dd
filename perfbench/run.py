#!/usr/bin/env python3
"""Tick-level benchmark of the scaa simulator.

Run from the repository root:

    python3 perfbench/run.py --workload nominal_1t --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selfcheck     # every workload + traced run, minimal size
    python3 perfbench/run.py --pin           # recompute perfbench/reference.txt
    python3 perfbench/run.py compare A B     # compare two --out records

It builds perfbench/ (which builds the scaa libraries from ../src) into
.bench_build/, runs the tickbench binary, checks every pass against the
pinned reference outputs, and prints the result as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. See perfbench/README.md for definitions.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.txt"
WORKLOADS = ("table4_mix", "nominal_1t", "faults_sweep", "defense_tap")
RUNNER_WORKLOADS = ("table4_mix", "faults_sweep")
# Provenance fields that must match before two results' timings compare.
PROVENANCE_KEYS = ("cpu_model", "nproc", "threads", "compiler", "build_type", "ipo")
DEADLINE_S = 170.0


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(f"error: {msg}")
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def threads_for(workload):
    return min(nproc(), 4) if workload in RUNNER_WORKLOADS else 1


def build():
    """Configure (once) and build tickbench; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no scaa source tree at {ROOT} (need CMakeLists.txt and src/)")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release", "-DSCAA_IPO=ON"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "tickbench",
           "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return BUILD / "tickbench"


def run_tickbench(binary, workload, seed, seconds, trace, extra=(), timeout=DEADLINE_S):
    """Runs tickbench in a fresh work directory (checkpoint stems, plan
    files) that is removed afterwards; returns its parsed JSON."""
    work = ROOT / ".bench_build" / "work" / f"{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--threads", str(threads_for(workload)), "--workdir", str(work),
           *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        fail(f"tickbench timed out on {workload}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"tickbench exited {proc.returncode} on {workload}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- pinned references ------------------------------------------------------

def load_reference():
    """reference.txt: `<workload> <size> ticks=<n> sims=<n> digest=<hex>`."""
    refs = {}
    if REFERENCE.is_file():
        for line in REFERENCE.read_text().splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            workload, size, *fields = line.split()
            refs[(workload, size)] = dict(f.split("=", 1) for f in fields)
    return refs


def bench_table4_mismatches(aggregates):
    """Compares the table4_mix aggregates with the strategy rows of the
    committed BENCH_table4.json (reps 2, seed 2022); returns mismatches."""
    path = ROOT / "BENCH_table4.json"
    if not path.is_file():
        return ["BENCH_table4.json missing"]
    rows = {r["strategy"]: r for r in json.loads(path.read_text())["rows"]}
    bad = []
    for agg in aggregates:
        row = rows.get(agg["strategy"])
        if row is None:
            bad.append(f"{agg['strategy']}: no row")
            continue
        for key, value in agg.items():
            if key != "strategy" and row[key] != value:
                bad.append(f"{agg['strategy']}.{key}: {value} != {row[key]}")
    return bad


def gate(result, workload, size, refs):
    """The correctness gate: returns (attempted, failed, per-pass ticks).

    A pass whose digest (or own-loop tick count) differs from the pinned
    reference counts every simulation in it as failed, as does a thrown
    simulation; the traced run adds its sampled items, failed when any
    traced or difference-pass summary differs from the untraced one."""
    ref = refs.get((workload, size))
    if ref is None:
        log(f"no pinned reference for {workload}/{size}; run --pin")
        ref = {}
    table4_bad = []
    if workload == "table4_mix" and size == "full":
        table4_bad = bench_table4_mismatches(result["aggregates"])
        for m in table4_bad:
            log(f"BENCH_table4.json mismatch: {m}")
    attempted = failed = 0
    ticks = []
    for p in result["passes"]:
        attempted += p["sims"]
        pass_ticks = p["ticks"] if workload not in RUNNER_WORKLOADS \
            else int(ref.get("ticks", 0))
        ok = (p["digest"] == ref.get("digest") and p["failed"] == 0 and
              str(p["sims"]) == ref.get("sims") and
              str(pass_ticks) == ref.get("ticks") and not table4_bad)
        if not ok:
            log(f"pass failed the gate: {p} vs reference {ref}")
            failed += p["sims"]
        ticks.append(pass_ticks)
    attempted += result.get("trace_attempted", 0)
    failed += result.get("trace_failed", 0)
    return attempted, failed, ticks


def end_to_end(result, ticks):
    passes = result["passes"]
    per_pass = [(t, p) for t, p in zip(ticks, passes) if t > 0]
    if not per_pass:
        per_pass = [(1, p) for p in passes]
    lat = result["latency"]
    return {
        "ticks_per_s": (statistics.median(t / p["wall_s"] for t, p in per_pass), "1/s"),
        "cpu_s_per_mtick": (statistics.median(p["cpu_s"] / t * 1e6 for t, p in per_pass), "s"),
        "tick_p50_us": (lat["p50_us"], "us"),
        "tick_p99_us": (lat["p99_us"], "us"),
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


# --- provenance -------------------------------------------------------------

def source_digest():
    """sha256 over the sources tickbench is built from (the checkout need
    not be a git repository)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *sorted((ROOT / "src").rglob("*")),
             *sorted(HERE.glob("*"))]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_describe():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "none"
    proc = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "none"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(result, loadavg):
    return {
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "threads": result["threads"],
        "compiler": result["compiler"],
        "build_type": result["build_type"],
        "ipo": result["ipo"],
        "git_describe": git_describe(),
        "source_digest": source_digest(),
        "loadavg_1m": loadavg,
        "latency_samples": result["latency"]["samples"],
        "latency_slices": result["latency"]["slices"],
        "passes": len(result["passes"]),
    }


# --- modes ------------------------------------------------------------------

def measure(args):
    loadavg = os.getloadavg()[0]
    start = time.monotonic()
    binary = build()
    remaining = DEADLINE_S - (time.monotonic() - start)
    result = run_tickbench(binary, args.workload, args.seed, args.seconds,
                        args.trace, timeout=remaining)
    attempted, failed, ticks = gate(result, args.workload, "full", load_reference())
    if args.trace:
        metrics = {k: (v["value"], v["unit"]) for k, v in result["layers"].items()}
    else:
        metrics = end_to_end(result, ticks)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": provenance(result, loadavg),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": record["metrics"],
    }))


def selfcheck():
    """Every workload at minimal size, untraced and traced, gated."""
    binary = build()
    refs = load_reference()
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_tickbench(binary, workload, 1, 1, trace, extra=["--quick"])
            attempted, failed, _ = gate(result, workload, "quick", refs)
            layers = result.get("layers", {})
            if trace:
                phases = sum(layers[k]["value"] for k in (
                    "sim.traffic_tick_ns", "geom.project_tick_ns",
                    "sim.ego_tick_ns", "sim.monitor_tick_ns"))
                segments = sum(layers[k]["value"] for k in (
                    "sensors.tick_ns", "adas.tick_ns", "can.tick_ns",
                    "driver_vehicle.tick_ns"))
                if abs(phases - layers["sim.tick_ns"]["value"]) > 1e-6 * phases or \
                   abs(segments - layers["sim.ego_tick_ns"]["value"]) > 1e-6 * phases:
                    log(f"{workload}: traced parts do not sum to their whole")
                    failed += 1
            status = "ok" if failed == 0 and attempted > 0 else "FAILED"
            ok = ok and status == "ok"
            log(f"selfcheck {workload} trace={int(trace)}: {attempted} attempted, "
                f"{failed} failed: {status}")
    print(json.dumps({"selfcheck": "ok" if ok else "failed"}))
    sys.exit(0 if ok else 1)


def pin():
    """Recomputes reference.txt: one pass of every workload at both sizes,
    plus a per-item single-thread run that counts ticks and proves the
    runner workloads' outputs from the items one by one."""
    binary = build()
    lines = ["# Pinned outputs of every workload (grid seed 2022), written by",
             "# `python3 perfbench/run.py --pin`. table4_mix/full is also checked",
             "# against the strategy rows of BENCH_table4.json on every run.",
             "# <workload> <size> ticks=<n> sims=<n> digest=<fnv1a64>"]
    for workload in WORKLOADS:
        for size in ("quick", "full"):
            extra = ["--pin"] + (["--quick"] if size == "quick" else [])
            result = run_tickbench(binary, workload, 1, 1, False, extra=extra,
                                timeout=900)
            p = result["passes"][0]
            if p["failed"]:
                fail(f"{workload}/{size}: simulations threw while pinning")
            if workload not in RUNNER_WORKLOADS and p["ticks"] != result["pinned_ticks"]:
                fail(f"{workload}/{size}: stepped and run() tick counts differ")
            if workload == "table4_mix" and size == "full":
                bad = bench_table4_mismatches(result["aggregates"])
                if bad:
                    fail("table4_mix disagrees with BENCH_table4.json: " + "; ".join(bad))
            lines.append(f"{workload} {size} ticks={result['pinned_ticks']} "
                         f"sims={p['sims']} digest={p['digest']}")
            log(lines[-1])
    REFERENCE.write_text("\n".join(lines) + "\n")


def compare(a_path, b_path):
    """Prints per-metric ratios of two --out records, or flags them when
    their provenance differs (timings from different hosts or builds are
    not comparable)."""
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    diff = [k for k in PROVENANCE_KEYS if a["provenance"].get(k) != b["provenance"].get(k)]
    if diff:
        for k in diff:
            print(f"FLAG provenance {k}: {a['provenance'].get(k)!r} != "
                  f"{b['provenance'].get(k)!r}")
        print("timings not compared")
        return 3
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            continue
        ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
        print(f"{name:32s} {ma['value']:14.6g} {mb['value']:14.6g} {ratio:8.4f} {ma['unit']}")
    return 0


def main():
    if len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record (with provenance) here")
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.selfcheck:
        selfcheck()
    elif args.pin:
        pin()
    elif args.workload:
        measure(args)
    else:
        ap.error("give --workload, --selfcheck or --pin")


if __name__ == "__main__":
    main()
