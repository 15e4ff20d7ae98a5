"""Self-tests of the benchmark at toy size (grids with n <= 3).

    python3 perfbench/selftest.py        # from the root of a checkout

They check that every workload prints every metric BENCHMARK.json names,
with its unit; that a planted wrong answer, exception or digest mismatch is
counted in failed_frac without crashing the run; that traced and untraced
rounds give the same digests; that times are scaled by the gauged speed; and
that the benchmark refuses to run where there is no program.  About two minutes on two CPUs.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("main-grid", "registry", "table-cache")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
with open(os.path.join(HERE, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)


def bench(workload, *extra, trace=0, cwd=ROOT):
    """Run the benchmark at toy size; return (exit code, stdout lines, result)."""
    out = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--n-max", "3", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )
    lines = out.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return out.returncode, lines, result


def extra_value(lines, name):
    for line in lines:
        m = re.match(rf"extra {re.escape(name)} = (\S+) ", line)
        if m:
            return m.group(1)
    return None


class Metrics(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, lines, result = bench(workload, trace=trace)
                    self.assertEqual(code, 0, "\n".join(lines[-15:]))
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    for name, unit in wanted.items():
                        self.assertTrue(any(re.fullmatch(rf"metric {re.escape(name)} = \S+ "
                                                         rf"{re.escape(unit)}", line)
                                            for line in lines), name)
                    self.assertEqual(float(extra_value(lines, "failed_frac")), 0.0)
                    if trace == 0 and workload in ("main-grid", "registry"):
                        self.assertIsNotNone(extra_value(lines, "case_p50_ms"))
                    if trace == 0 and workload == "table-cache":
                        self.assertIsNotNone(extra_value(lines, "cache_write_s"))
                        self.assertIsNotNone(extra_value(lines, "cache_read_s"))

    def test_workload_list_matches_the_spec(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(WORKLOADS))


class PlantedFailures(unittest.TestCase):
    def check_counted(self, workload, plant, exactly=None):
        code, lines, result = bench(workload, "--plant", plant)
        self.assertEqual(code, 1, "\n".join(lines[-15:]))
        self.assertIsNotNone(result, "the run must still print its result")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLessEqual(result["failed"], result["attempted"])
        if exactly is not None:
            self.assertEqual(result["failed"], exactly)
        frac = float(extra_value(lines, "failed_frac"))
        self.assertAlmostEqual(frac, result["failed"] / result["attempted"], places=5)

    def test_in_process_rounds(self):
        for workload in ("main-grid", "registry"):
            for plant in ("wrong", "error", "digest"):
                with self.subTest(workload=workload, plant=plant):
                    self.check_counted(workload, plant, exactly=1)

    def test_cli_rounds(self):
        for plant in ("error", "digest"):
            with self.subTest(workload="table-cache", plant=plant):
                self.check_counted("table-cache", plant)


class Digests(unittest.TestCase):
    def test_traced_and_untraced_rounds_agree(self):
        for workload in ("main-grid", "registry"):
            with self.subTest(workload=workload):
                digests = []
                for trace in (0, 1):
                    code, lines, _ = bench(workload, trace=trace)
                    self.assertEqual(code, 0)
                    digests.append(extra_value(lines, "grid_sha256"))
                self.assertEqual(digests[0], digests[1])
                self.assertEqual(digests[0], REFERENCE[workload]["grid_sha256"]["3"])


class Pace(unittest.TestCase):
    def test_timeline_scales_work_by_the_gauged_speed(self):
        from pace import REFERENCE_S, Timeline

        # a gauge sample every second; twice the reference time up to t = 10,
        # the reference time after it
        samples = [[float(t), (2 if t < 10 else 1) * REFERENCE_S] for t in range(40)]
        timeline = Timeline(samples)
        self.assertAlmostEqual(timeline.raw(25.0, 35.0), 10.0 - 10 * REFERENCE_S)
        self.assertAlmostEqual(timeline.scaled(25.0, 35.0), 10.0 - 10 * REFERENCE_S)
        self.assertAlmostEqual(timeline.scaled(0.5, 2.5), 2.0 / 2 - 2 * REFERENCE_S)
        # before the first sample nothing was gauged: plain seconds
        self.assertAlmostEqual(timeline.scaled(-1.0, 0.0), 1.0)


class NoProgram(unittest.TestCase):
    def test_refuses_without_src(self):
        os.makedirs(WORK, exist_ok=True)
        bare = tempfile.mkdtemp(dir=WORK)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines, result = bench("main-grid", cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
