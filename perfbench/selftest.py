"""Fast tests of the benchmark itself (about 15 s).

    python3 perfbench/selftest.py        # from the root of a checkout

Named so that the repository's pytest run does not collect it: these tests
start child processes and time them.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path[:0] = ["src", str(Path(__file__).resolve().parent)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads(Path("BENCHMARK.json").read_text())


def tiny(seed, workdir):
    """Every command once, on small models: one q1-bearing tasks=6 model and
    check/dot on a tasks=10 model."""
    keys = {"t10q-0/check", "t10q-0/dot"}
    chosen = {}
    for inv in workloads.gen_ladder(seed, workdir):
        if inv.model.name == "t6q-0" or inv.key in keys:
            chosen.setdefault(inv.key, inv)
    return list(chosen.values())


class BenchmarkTest(unittest.TestCase):
    def setUp(self):
        self.workdir = Path(tempfile.mkdtemp(dir=run.ROOT / ".perfbench"))
        self.invocations = tiny(3, self.workdir)
        self.by_key = {inv.key: inv for inv in self.invocations}

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_reduced_run_prints_every_metric_with_unit(self):
        for trace, metrics in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            out = io.StringIO()
            workloads.WORKLOADS["tiny"] = tiny
            try:
                with contextlib.redirect_stdout(out):
                    run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0",
                              "--trace", str(trace)])
            finally:
                del workloads.WORKLOADS["tiny"]
            lines = out.getvalue().splitlines()
            result = json.loads(lines[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"], lines)
            self.assertEqual(result["failed"], 0)
            for metric in metrics:
                name, unit = metric["name"], metric["unit"]
                self.assertEqual(result["metrics"][name]["unit"], unit)
                self.assertTrue(
                    any(line.startswith(f"{name} = ") and line.split(" (")[0].endswith(unit)
                        for line in lines),
                    f"{name} not printed with {unit}",
                )

    def test_corrupted_output_counts_as_failure(self):
        inv = self.by_key["t6q-0/configs"]
        child = run.invoke(inv, 1, False)
        self.assertIsNone(checks.Checker().check(inv, 0, child.stdout, ""))
        data = json.loads(child.stdout)
        data["configurations"][0]["members"].pop()
        corrupted = json.dumps(data, sort_keys=True, indent=2).encode() + b"\n"
        self.assertIsNotNone(checks.Checker().check(inv, 0, corrupted, ""))

        real_invoke = run.invoke

        def corrupting(inv, hashseed, trace, limit=None):
            child = real_invoke(inv, hashseed, trace, limit)
            if inv.key == "t6q-0/configs":
                child.stdout = corrupted
            return child

        run.invoke = corrupting
        try:
            passes, failures = run.run_passes([inv], 1, 0, False, checks.Checker())
        finally:
            run.invoke = real_invoke
        self.assertEqual(len(failures), len(passes))

    def test_child_past_the_limit_is_killed_and_fails(self):
        inv = self.by_key["t6q-0/roadmaps"]
        saved = run.INVOCATION_LIMIT_S
        run.INVOCATION_LIMIT_S = 0.01
        try:
            passes, failures = run.run_passes([inv], 1, 0, False, checks.Checker())
        finally:
            run.INVOCATION_LIMIT_S = saved
        self.assertEqual(len(failures), len(passes))
        self.assertTrue(all("killed" in problem for _, problem in failures))

    def test_self_times_sum_to_invocation_duration(self):
        for key in ("t6q-0/configs", "t6q-0/roadmaps", "t10q-0/check"):
            header = run.invoke(self.by_key[key], 1, True).header
            trace = header["trace"]
            self.assertEqual(trace["missing"], [])
            self.assertGreater(trace["spans"], 1)
            duration = trace["incl_s"]["cli.main"]
            self.assertAlmostEqual(sum(trace["self_s"].values()), duration, delta=1e-6 * duration)
            self.assertLess(header["cmd_s"] - duration, 0.005)

    def test_missing_traced_function_is_reported_not_fatal(self):
        script = (
            "import json, sys\n"
            "sys.argv = ['child.py', '{}']\n"
            "import child\n"
            "child.TRACED['gone.fn'] = ('roadmapper.cli', ('no_such_function',))\n"
            "header, _ = child.run(['check', 'models/las.req'], True)\n"
            "print(json.dumps([header['rc'], header['trace']['missing']]))\n"
        )
        env = dict(run.os.environ, PYTHONPATH=f"src:{Path(__file__).resolve().parent}")
        proc = run.subprocess.run(
            [sys.executable, "-c", script], capture_output=True, env=env, timeout=60
        )
        self.assertEqual(json.loads(proc.stdout), [0, ["gone.fn"]], proc.stderr)


if __name__ == "__main__":
    (run.ROOT / ".perfbench").mkdir(exist_ok=True)
    run._require_checkout()
    unittest.main()
