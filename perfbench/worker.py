"""One fresh benchmark process: a set-up probe, an in-process round, or the
qtfield kernel probe.
Started by run.py; not meant to be run by hand.

    worker.py setup  --cache DIR --tables COUNT
    worker.py round  --cache DIR --tables COUNT --suite SUITE --n-max N --seed S
                     [--trace-out FILE] [--plant wrong|error|digest]
    worker.py kernel --cache DIR --seed S

Set-up (imports plus loading and revalidating tables 0..COUNT-1 from the cache,
the same calls `qtshuffle verify --cache` makes) ends with a line "ready" on
stdout, which run.py timestamps.  A round then runs every case of
`qtshuffle.cli.build_cases(SUITE, N)` in the order shuffled by the seed, one
at a time, verifying each before starting the next, and prints a JSON verdict.
Set-up probes and rounds gauge the machine's speed from their first line on
(pace.py) and report the gauge samples on their last line, so that run.py and
the round itself can scale every interval to the reference speed.
"""

import json
import os
import sys
import time

from pace import Pace, Timeline

HERE = os.path.dirname(os.path.abspath(__file__))


def _arg(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def set_up(argv):
    import qtshuffle.cli  # noqa: F401  (the import is part of set-up)
    from qtshuffle.macdonald import HTildeTable, install_table

    cache = _arg(argv, "--cache")
    for n in range(int(_arg(argv, "--tables"))):
        install_table(HTildeTable.load(os.path.join(cache, f"htilde-{n}.json")))
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def run_round(argv, pace):
    import hashlib
    import random

    import qtshuffle.cli as cli

    suite = _arg(argv, "--suite")
    n_max = int(_arg(argv, "--n-max"))
    plant = _arg(argv, "--plant")
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)["main-grid" if suite == "main-theorem" else "registry"]["cases"]
    cases = cli.build_cases(suite, n_max)
    random.Random(int(_arg(argv, "--seed"))).shuffle(cases)

    statuses = {"pass": 0, "fail": 0, "error": 0, "digest": 0}
    first_failures = []
    lines = []
    spans = []
    loop_start = time.perf_counter()
    for i, case in enumerate(cases):
        t0 = time.perf_counter()
        try:
            if plant == "error" and i == 0:
                raise RuntimeError("planted exception")
            ok, lhs, rhs = case.run()
        except Exception as err:  # a failing case is counted, not fatal
            ok, lhs, rhs, status = False, f"{type(err).__name__}: {err}", "", "error"
        else:
            if plant == "wrong" and i == 0:
                ok, rhs = False, rhs + " + 1"
            digest = hashlib.sha256(f"{lhs}|{rhs}".encode()).hexdigest()[:16]
            if plant == "digest" and i == 0:
                digest = "0" * 16
            if not ok or (suite == "main-theorem" and lhs != rhs):
                status = "fail"
            elif ref.get(case.case_id) != digest:
                status = "digest"
            else:
                status = "pass"
        spans.append((t0, time.perf_counter()))
        statuses[status] += 1
        lines.append(f"{case.case_id}\t{lhs}|{rhs}")
        if status != "pass" and len(first_failures) < 5:
            first_failures.append(f"{status}: {case.case_id}: {lhs} vs {rhs}"[:300])
    loop_end = time.perf_counter()
    samples = pace.stop()
    timeline = Timeline(samples)
    times = [timeline.scaled(a, b) for a, b in spans]
    lines.sort()
    verdict = {
        "cases": len(cases),
        "statuses": statuses,
        "failures": first_failures,
        "times": times,
        "loop_s": timeline.scaled(loop_start, loop_end),
        "pace": samples,
        "grid_sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }
    sys.stdout.write(json.dumps(verdict) + "\n")
    sys.stdout.flush()


def kernel_probe(argv):
    """Time the Q(q,t) kernel on coefficient pairs from the degree-6 table."""
    import random
    import statistics

    from qtshuffle.qtfield import parse_rational

    with open(os.path.join(_arg(argv, "--cache"), "htilde-6.json")) as fh:
        table = json.load(fh)
    texts = sorted({c for row in table["entries"].values() for c in row.values()})
    values = [parse_rational(s) for s in texts]
    nonzero = [v for v in values if not v.is_zero()]
    rng = random.Random(int(_arg(argv, "--seed")))
    pairs = [(rng.choice(values), rng.choice(nonzero)) for _ in range(300)]
    clock = time.perf_counter
    samples = {op: [] for op in ("mul", "add", "div", "eq", "canonical", "parse")}
    bad = 0
    for x, y in pairs:
        t0 = clock(); prod = x * y; t1 = clock()
        total = x + y; t2 = clock()
        quot = x / y; t3 = clock()
        text = x.canonical(); t4 = clock()
        back = parse_rational(text); t5 = clock()
        same = x == back; t6 = clock()
        for op, secs in zip(samples, (t1 - t0, t2 - t1, t3 - t2, t6 - t5, t4 - t3, t5 - t4)):
            samples[op].append(secs)
        # each result checked by a second route
        checks = (
            prod / y == x,
            total - y == x,
            quot * y == x,
            same and (x == y) == (text == y.canonical()),
            back.canonical() == text,
        )
        bad += not all(checks)
    result = {op: statistics.median(v) * 1e6 for op, v in samples.items()}
    sys.stdout.write(json.dumps({"checks": len(pairs), "failed": bad, "us": result}) + "\n")


def main(argv):
    mode = argv[0]
    if mode == "kernel":
        kernel_probe(argv)
        return 0
    pace = Pace().start()
    tracer = None
    trace_out = _arg(argv, "--trace-out")
    if trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    set_up(argv)
    if mode == "round":
        run_round(argv, pace)
    else:
        sys.stdout.write(json.dumps({"pace": pace.stop()}) + "\n")
    if tracer is not None:
        tracer.dump(trace_out, "worker")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
