#!/usr/bin/env python3
"""Tests for bench_diff.py against the committed BENCH_table4.json golden.

    python3 tools/test_bench_diff.py
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
GOLDEN = TOOLS.parent / "BENCH_table4.json"


def bench_diff(*paths):
    return subprocess.run([sys.executable, str(TOOLS / "bench_diff.py"),
                           *map(str, paths)],
                          stdout=subprocess.PIPE, text=True, timeout=60)


class BenchDiff(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.report = json.loads(GOLDEN.read_text())

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, report):
        path = Path(self.tmp.name) / "fresh.json"
        path.write_text(json.dumps(report))
        return path

    def test_identical_copy_passes(self):
        self.assertEqual(bench_diff(GOLDEN, self.write(self.report)).returncode, 0)

    def test_column_dropped_from_every_row_fails(self):
        for row in self.report["rows"]:
            del row["tth_std"]
        proc = bench_diff(GOLDEN, self.write(self.report))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("tth_std missing from fresh run", proc.stdout)

    def test_changed_cell_fails(self):
        self.report["rows"][-1]["sims_with_hazards"] += 1
        proc = bench_diff(GOLDEN, self.write(self.report))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("sims_with_hazards", proc.stdout)

    def test_dropped_row_fails(self):
        self.report["rows"].pop()
        self.assertEqual(bench_diff(GOLDEN, self.write(self.report)).returncode, 1)

    def test_usage_error_exits_two(self):
        self.assertEqual(bench_diff(GOLDEN).returncode, 2)


if __name__ == "__main__":
    unittest.main()
