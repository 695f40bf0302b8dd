#!/usr/bin/env python3
"""The benchmark's own test: every workload and the traced run at minimal
size, with the correctness gate on. Run from anywhere:

    python3 perfbench/test_selfcheck.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent


class SelfCheck(unittest.TestCase):
    def test_quick_workloads_pass_the_gate(self):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--selfcheck"],
                              cwd=HERE.parent, stdout=subprocess.PIPE, text=True,
                              timeout=600)
        self.assertEqual(proc.returncode, 0)
        self.assertEqual(json.loads(proc.stdout.strip().splitlines()[-1]),
                         {"selfcheck": "ok"})

    def test_refuses_a_tree_without_sources(self):
        # A directory holding only the benchmark must fail without a result.
        build_root = HERE.parent / ".bench_build"
        build_root.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "nominal_1t",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
