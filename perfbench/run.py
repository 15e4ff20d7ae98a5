"""qtshuffle benchmark: workloads run in fresh Python processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ./src and
keeps its scratch files under ./.bench_build/perfbench.  Workloads
(README.md says why these):

  main-grid    every (alpha, a, b, c) with |alpha| <= 6, lhs_inner == pi_poly
  registry     the `verify operators --n-max 5` identity grid, case by case
  table-cache  `qtshuffle build-cache --n-max 6` into an empty directory,
               then again over the filled one (write, then read)

Each round is one closed loop with one client: a case starts only after the
previous one was checked, exactly, against the program's own oracle and the
sha256 digests in reference.json.  Rounds repeat, each in a fresh process,
while the next one is expected to end within --seconds; one always runs.
The set-up time is the median over at least three fresh processes, probed
before and after the rounds.  Every time is scaled to the reference speed of
the machine, gauged inside the process that was timed (pace.py); the plain
times are printed as extra lines.  The last line on
stdout is a JSON object {correct, attempted, failed, metrics}; the lines
before it name every metric with its unit, including those that apply to
one workload only.

With --trace 1 the run makes one untraced and one traced round, plus the
qtfield kernel probe, and reports the per-layer metrics of tracing.py.

The options --n-max and --plant exist for the self-tests (selftest.py).
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

from pace import Timeline  # noqa: E402
from tracing import PER_LAYER, summarize  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
TABLES = os.path.join(WORK, "tables")
TABLE_DEGREES = 7  # the prepared cache holds degrees 0..6
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = (3, 40)  # at least 3; more while they take under SETUP_PROBE_S
SETUP_PROBE_S = 2.0  # before the rounds, and again after them

WORKLOADS = {
    "main-grid": {"suite": "main-theorem", "n_max": 6},
    "registry": {"suite": "operators", "n_max": 5},
    "table-cache": {"n_max": 6},
}
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cases_per_s", "1/s"), ("peak_rss_mb", "MB"))

with open(os.path.join(HERE, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)


class Child:
    """One finished child process: output lines with arrival times, and usage."""

    def __init__(self, args, timeout):
        env = dict(
            os.environ,
            PYTHONPATH=SRC,
            PYTHONHASHSEED="0",  # one hash order for every run: less noise
            PYTHONPYCACHEPREFIX=os.path.join(WORK, "pycache"),
            PYTHONUNBUFFERED="1",
        )
        env.pop("PYTHONDONTWRITEBYTECODE", None)  # compiled once, into WORK
        errpath = os.path.join(WORK, "stderr.txt")
        with open(errpath, "wb") as err:
            self.t0 = t0 = time.perf_counter()
            proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(max(timeout, 1.0), proc.kill)
            timer.start()
            try:
                self.lines = [(time.perf_counter() - t0, raw) for raw in proc.stdout]
                _, status, usage = os.wait4(proc.pid, 0)
                self.wall = time.perf_counter() - t0
            finally:
                timer.cancel()
                proc.stdout.close()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        with open(errpath, "rb") as err:
            self.stderr = err.read().decode(errors="replace")[-2000:]

    @property
    def verdict_time(self) -> float:
        """Seconds from spawn to the last line of output: the verdict."""
        return self.lines[-1][0] if self.lines else self.wall

    def timeline(self):
        """The gauge samples on the last line (worker.py, clientry.py), or None."""
        try:
            return Timeline(json.loads(self.lines[-1][1])["pace"])
        except (IndexError, ValueError, KeyError, TypeError):
            return None

    def scaled(self, timeline, start: float, end: float) -> float:
        """Reference seconds between two times counted from spawn."""
        return timeline.scaled(self.t0 + start, self.t0 + end)

    def raw(self, timeline, start: float, end: float) -> float:
        """Plain seconds between two times counted from spawn, gauge samples left out."""
        return timeline.raw(self.t0 + start, self.t0 + end)

    def line_time(self, text: str):
        return next((t for t, raw in self.lines if raw.decode().strip() == text), None)


class Run:
    def __init__(self, opts):
        self.opts = opts
        self.spec = WORKLOADS[opts.workload]
        self.n_max = opts.n_max if opts.n_max is not None else self.spec["n_max"]
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.setup_samples = []
        self.raw_setup_samples = []
        self.extras = {}

    # -- plumbing

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def child(self, args) -> Child:
        return Child([sys.executable] + args, self.remaining())

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        if len(self.notes) < 10:
            self.notes.append(note[:400])

    def expected_cases(self) -> int:
        return REFERENCE[self.opts.workload]["count"].get(str(self.n_max), 0)

    # -- set-up

    def tables_needed(self) -> int:
        if self.opts.workload == "table-cache":
            return 0
        return self.n_max + 1

    def setup_probe(self) -> None:
        c = self.child([os.path.join(HERE, "worker.py"), "setup", "--cache", TABLES,
                        "--tables", str(self.tables_needed())])
        ready = c.line_time("ready")
        timeline = c.timeline()
        if c.code != 0 or ready is None or timeline is None:
            self.fail(1, f"set-up probe failed (exit {c.code}): {c.stderr}")
        else:
            self.setup_samples.append(c.scaled(timeline, 0, ready))
            self.raw_setup_samples.append(c.raw(timeline, 0, ready))

    # -- one round per workload kind

    def worker_round(self, trace_out=None) -> dict:
        args = [os.path.join(HERE, "worker.py"), "round", "--cache", TABLES,
                "--tables", str(self.tables_needed()), "--suite", self.spec["suite"],
                "--n-max", str(self.n_max), "--seed", str(self.opts.seed)]
        if trace_out:
            args += ["--trace-out", trace_out]
        if self.opts.plant:
            args += ["--plant", self.opts.plant]
        c = self.child(args)
        expected = self.expected_cases()
        ready = c.line_time("ready")
        try:
            verdict = json.loads(c.lines[-1][1])
        except (IndexError, ValueError):
            verdict = None
        if c.code != 0 or ready is None or verdict is None:
            self.attempted += max(expected, 1)
            self.fail(max(expected, 1), f"round process failed (exit {c.code}): {c.stderr}")
            return None
        st = verdict["statuses"]
        self.attempted += verdict["cases"]
        bad = st["fail"] + st["error"] + st["digest"]
        if bad:
            self.fail(bad, "; ".join(verdict["failures"]))
        if verdict["cases"] != expected:
            self.fail(max(1, abs(expected - verdict["cases"])),
                      f"{verdict['cases']} cases, reference has {expected}")
        timeline = c.timeline()
        if not trace_out:
            self.setup_samples.append(c.scaled(timeline, 0, ready))
            self.raw_setup_samples.append(c.raw(timeline, 0, ready))
        return {
            "wall": c.scaled(timeline, 0, c.verdict_time),
            "raw_wall": c.raw(timeline, 0, c.verdict_time),
            "span_wall": c.verdict_time,
            "rss": c.rss_mb,
            "cases": verdict["cases"],
            "loop": verdict["loop_s"],
            "times": verdict["times"],
            "grid_sha256": verdict["grid_sha256"],
        }

    def table_cache_round(self, trace_prefix=None) -> dict:
        cache = os.path.join(WORK, "table-cache")
        shutil.rmtree(cache, ignore_errors=True)
        ref = dict(REFERENCE["table-cache"]["files"])
        if self.opts.plant == "digest":
            ref["0"] = "0" * 64
        out = {"wall": 0.0, "raw_wall": 0.0, "span_wall": 0.0, "rss": 0.0, "loop": 0.0,
               "times": [], "phases": {}}
        for phase, verb in (("write", "built and wrote"), ("read", "loaded and revalidated")):
            cli = [os.path.join(HERE, "clientry.py"), "--"]
            if trace_prefix:
                cli[1:1] = ["--trace-out", f"{trace_prefix}-{phase}.json"]
            c = self.child(cli + ["build-cache", "--n-max", str(self.n_max), "--cache", cache])
            stamps = []
            for t, raw in c.lines:
                if raw.decode().startswith(f"degree {len(stamps)}: {verb} "):
                    stamps.append(t)
            self.attempted += self.n_max + 1
            timeline = c.timeline()
            if len(stamps) != self.n_max + 1 or c.code != 0 or timeline is None:
                self.fail(self.n_max + 1 - len(stamps) or 1,
                          f"{phase}: {len(stamps)} tables confirmed, exit {c.code}: {c.stderr}")
                if timeline is None:
                    return None
            # the command's last line, before the gauge samples, is its verdict
            done = c.lines[max(len(c.lines) - 2, 0)][0]
            for n in range(len(stamps)):
                with open(os.path.join(cache, f"htilde-{n}.json"), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                if digest != ref[str(n)]:
                    self.fail(1, f"{phase}: htilde-{n}.json digest {digest[:16]} differs")
            if len(stamps) > 1:
                out["loop"] += c.scaled(timeline, stamps[0], stamps[-1])
                out["times"] += [c.scaled(timeline, a, b) for a, b in zip(stamps, stamps[1:])]
            wall = c.scaled(timeline, 0, done)
            out["wall"] += wall
            out["raw_wall"] += c.raw(timeline, 0, done)
            out["span_wall"] += done
            out["rss"] = max(out["rss"], c.rss_mb)
            out["phases"][phase] = wall
            if phase == "write" and self.opts.plant == "error":
                with open(os.path.join(cache, "htilde-1.json"), "w") as fh:
                    fh.write("{")
        out["cases"] = len(out["times"])
        return out

    def round(self, trace_out=None):
        kind = self.opts.workload
        if kind in ("main-grid", "registry"):
            return self.worker_round(trace_out)
        return self.table_cache_round(trace_out)

    # -- the two kinds of run

    def probe_setup(self, low: int, high: int) -> None:
        """Set-up probes until there are low samples, or high, or SETUP_PROBE_S passed."""
        probe_start = time.perf_counter()
        while self.remaining() > 10 and (len(self.setup_samples) < low or (
                len(self.setup_samples) < high
                and time.perf_counter() - probe_start < SETUP_PROBE_S)):
            self.setup_probe()

    def measure(self) -> dict:
        low, high = SETUP_SAMPLES
        self.probe_setup(1, high // 2)
        rounds = []
        rounds_start = time.perf_counter()
        while True:
            r = self.round()
            if r is None:
                break
            rounds.append(r)
            elapsed = time.perf_counter() - rounds_start
            if elapsed + r["span_wall"] > self.opts.seconds or self.remaining() < 3 * r["span_wall"]:
                break
        self.probe_setup(low, high)
        if not rounds or not self.setup_samples:
            return {}
        # Rounds of one run do the same work, so wall time and throughput are
        # taken over all of them together: a median of three or four rounds
        # rests on one or two of them, that is on a few seconds of a machine
        # whose speed swings.
        loop = sum(r["loop"] for r in rounds)
        metrics = {
            "wall_s": sum(r["wall"] for r in rounds) / len(rounds),
            "setup_s": statistics.median(self.setup_samples),
            "cases_per_s": sum(r["cases"] for r in rounds) / loop if loop > 0 else 0.0,
            "peak_rss_mb": statistics.median(r["rss"] for r in rounds),
        }
        extras = {
            "rounds": (len(rounds), "count"),
            "setup_samples": (len(self.setup_samples), "count"),
            "raw_wall_s": (sum(r["raw_wall"] for r in rounds) / len(rounds), "s"),
            "raw_setup_s": (statistics.median(self.raw_setup_samples), "s"),
        }
        times = [t for r in rounds for t in r.get("times", ())]
        if times:
            extras["case_p50_ms"] = (1e3 * statistics.median(times), "ms")
            if len(times) > 1010:  # more than ten cases beyond p99
                extras["case_p99_ms"] = (1e3 * statistics.quantiles(times, n=100)[98], "ms")
        if self.opts.workload == "table-cache":
            extras["cache_write_s"] = (statistics.median(r["phases"]["write"] for r in rounds), "s")
            extras["cache_read_s"] = (statistics.median(r["phases"]["read"] for r in rounds), "s")
        if "grid_sha256" in rounds[0]:
            extras["grid_sha256"] = (rounds[0]["grid_sha256"], "sha256")
        self.extras.update(extras)
        return {name: metrics[name] for name, _ in END_TO_END}

    def measure_traced(self) -> dict:
        untraced = self.round()
        prefix = os.path.join(WORK, f"trace-{self.opts.workload}")
        for stale in os.listdir(WORK):
            if stale.startswith(f"trace-{self.opts.workload}"):
                os.unlink(os.path.join(WORK, stale))
        traced = self.round(prefix if self.opts.workload == "table-cache" else prefix + ".json")
        kernel = self.child([os.path.join(HERE, "worker.py"), "kernel", "--cache", TABLES,
                             "--seed", str(self.opts.seed)])
        if untraced is None or traced is None or kernel.code != 0:
            self.fail(1, f"traced run incomplete (kernel exit {kernel.code}): {kernel.stderr}")
            return {}
        probe = json.loads(kernel.lines[-1][1])
        self.attempted += probe["checks"]
        if probe["failed"]:
            self.fail(probe["failed"], f"kernel probe: {probe['failed']} results failed a check")
        if "grid_sha256" in traced and traced["grid_sha256"] != untraced["grid_sha256"]:
            self.fail(1, "traced and untraced rounds gave different grid digests")
        records = []
        for name in sorted(os.listdir(WORK)):
            if name.startswith(f"trace-{self.opts.workload}"):
                with open(os.path.join(WORK, name)) as fh:
                    records.append(json.load(fh))
        if "grid_sha256" in traced:
            self.extras["grid_sha256"] = (traced["grid_sha256"], "sha256")
        return summarize(records, traced["span_wall"], traced["wall"], untraced["wall"], probe["us"])


def prepare() -> None:
    """Build the table cache 0..6 the workloads load, once per program version."""
    os.makedirs(WORK, exist_ok=True)
    stamp = hashlib.sha256()
    pkg = os.path.join(SRC, "qtshuffle")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                stamp.update(name.encode() + fh.read())
    stamp_path = os.path.join(TABLES, "SOURCE_SHA256")
    if os.path.exists(stamp_path):
        with open(stamp_path) as fh:
            if fh.read() == stamp.hexdigest():
                return
    tmp = TABLES + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    c = Child([sys.executable, "-m", "qtshuffle.cli", "build-cache", "--n-max",
               str(TABLE_DEGREES - 1), "--cache", tmp], 600)
    if c.code != 0:
        sys.exit(f"error: building the table cache failed (exit {c.code}):\n{c.stderr}")
    with open(os.path.join(tmp, "SOURCE_SHA256"), "w") as fh:
        fh.write(stamp.hexdigest())
    shutil.rmtree(TABLES, ignore_errors=True)
    os.replace(tmp, TABLES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n-max", type=int, default=None, help="smaller grid (self-tests)")
    parser.add_argument("--plant", choices=("wrong", "error", "digest"), default=None,
                        help="plant one failure of this kind (self-tests)")
    opts = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qtshuffle", "cli.py")):
        print("error: run from the root of a qtshuffle checkout (no src/qtshuffle in the working directory)",
              file=sys.stderr)
        return 2
    prepare()
    run = Run(opts)
    metrics = run.measure_traced() if opts.trace else run.measure()
    units = dict(PER_LAYER if opts.trace else END_TO_END)
    print(f"workload {opts.workload} seed {opts.seed} trace {opts.trace} n_max {run.n_max}")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for name, (value, unit) in run.extras.items():
        print(f"extra {name} = {value if isinstance(value, str) else f'{value:.6g}'} {unit}")
    attempted = max(run.attempted, 1)
    print(f"extra failed_frac = {run.failed / attempted:.6g} 1 ({run.failed} of {attempted})")
    for note in run.notes:
        print(f"failure: {note}")
    correct = run.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
