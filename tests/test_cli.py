import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import types

import pytest

from qtshuffle.cli import (
    CaseResult,
    _Case,
    _run_case,
    _verdict,
    build_cases,
    cmd_build_cache,
    main,
    run_suite,
)


def test_inner_plain(capsys):
    assert main(["inner", "--comp", "3,2", "--abc", "1,2,2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "t^4*q^2 + t^3*q^4 + 2*t^3*q^3 + 2*t^3*q^2"


def test_inner_base_cases(capsys):
    assert main(["inner", "--comp", "1", "--abc", "1,0,0"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["inner", "--comp", "1,1", "--abc", "0,1,1"]) == 0
    assert capsys.readouterr().out.strip() == "q + 1"


def test_inner_json_round_trips(capsys):
    from qtshuffle.qtfield import parse_rational
    from qtshuffle.macdonald import lhs_inner

    assert main(["inner", "--comp", "2,1", "--abc", "1,1,1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert parse_rational(data["value"]) == lhs_inner((2, 1), 1, 1, 1)


def test_inner_latex(capsys):
    assert main(["inner", "--comp", "3,2", "--abc", "1,2,2", "--format", "latex"]) == 0
    out = capsys.readouterr().out
    assert "t^{4}q^{2}" in out


def test_inner_size_mismatch(capsys):
    assert main(["inner", "--comp", "2,1", "--abc", "1,1,2"]) == 2
    assert "usage error" in capsys.readouterr().err
    # above the degree cap: both commands refuse before any work
    for command in ("inner", "enumerate"):
        assert main([command, "--comp", "13", "--abc", "13,0,0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: degree 13 exceeds the configured cap 12\n"


def test_enumerate_worked_example(capsys):
    assert main(["enumerate", "--comp", "3,2", "--abc", "1,2,2", "--list"]) == 0
    out = capsys.readouterr().out
    assert "count: 6" in out
    assert out.count("cars=") == 6
    assert "path=" in out


def test_enumerate_two_cars(capsys):
    assert main(["enumerate", "--comp", "1,1", "--abc", "0,1,1", "--list"]) == 0
    out = capsys.readouterr().out
    assert "count: 2" in out
    assert "dinv=1" in out and "dinv=0" in out


def test_enumerate_column(capsys):
    assert main(["enumerate", "--comp", "2", "--abc", "2,0,0", "--list"]) == 0
    out = capsys.readouterr().out
    assert "count: 1" in out
    assert "cars=1,2" in out


def test_verify_exit_zero_and_report(capsys):
    assert main(["verify", "shuffle-qsym", "--n-max", "3"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out


def test_verify_csv_columns(capsys):
    assert main(["verify", "shuffle-qsym", "--n-max", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header == "suite,case-id,params,status,seconds,detail"


def test_verify_csv_quotes_fields(capsys):
    # case ids such as commutator[a=-1,b=1,P=...] carry commas
    assert main(["verify", "operators", "--n-max", "1", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["suite", "case-id", "params", "status", "seconds", "detail"]
    assert len(rows) > 1 and all(len(row) == 6 for row in rows)
    assert all(row[5] == "" for row in rows[1:])  # a pass row has no detail
    assert any("," in row[1] for row in rows[1:])


def test_verify_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "bogus"])


def test_report_is_deterministic():
    r1 = run_suite("shuffle-qsym", 3)
    r2 = run_suite("shuffle-qsym", 3)
    assert r1.to_json() == r2.to_json()
    # verify runs its cases in one sequence; it takes no worker-count flag
    with pytest.raises(SystemExit) as exc:
        main(["verify", "shuffle-qsym", "--n-max", "3", "--jobs", "2"])
    assert exc.value.code == 2


def test_shuffle_qsym_reaches_n_7():
    # one case per composition of n <= 7, 2^(n-1) of each n; n = 8 adds none
    cases = build_cases("shuffle-qsym", 7)
    assert len(cases) == 127 and len(build_cases("shuffle-qsym", 8)) == 127
    assert [case.case_id for case in cases[:63]] == [case.case_id for case in build_cases("shuffle-qsym", 6)]
    for case in (cases[63], cases[-1]):
        assert case.params in ("p=(7)", "p=(1,1,1,1,1,1,1)"), case.params
        ok, lhs, rhs = case.run()
        assert ok and lhs == rhs, case.case_id


def test_verify_above_degree_cap_is_a_usage_error(tmp_path, capsys):
    # refused before any table is loaded or built
    for extra in ([], ["--cache", str(tmp_path)]):
        assert main(["verify", "macdonald", "--n-max", "13", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: degree 13 exceeds the configured cap 12\n"


# installs the benchmark's tracer, runs one call of each traced operator and
# one of symfunc.extract_z (which no operator calls), and prints the names of
# the recorded spans
TRACED_OPERATORS = """
import json
from tracing import Tracer
tracer = Tracer()
tracer.install()
import qtshuffle.macdonald as mac
from qtshuffle.symfunc import p_
mac.op_C(1, p_((1,)))
mac.op_C_star(1, p_((2,)))
mac.op_B_star(1, p_((2,)))
import qtshuffle.symfunc as symfunc
symfunc.extract_z(p_((2,)), symfunc.Alphabet.X(), symfunc.Alphabet.X(), 1)
print(json.dumps(sorted({span[0] for log in tracer._logs for span in log.spans})))
"""


def test_perfbench_tracer_installs():
    # the benchmark's tracer binds functions by name; a renamed or deleted one fails here
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "perfbench"]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_OPERATORS],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    names = set(json.loads(proc.stdout))
    want = {"symfunc.extract_z", "symfunc.omega_series", "operators.op_C", "operators.op_star"}
    assert want <= names, sorted(names)


def test_build_cases_deterministic():
    a = [c.case_id for c in build_cases("macdonald", 2)]
    b = [c.case_id for c in build_cases("macdonald", 2)]
    assert a == b


def test_build_cache_idempotent(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert cmd_build_cache(3, cache) == 0
    first = capsys.readouterr().out
    assert first.count("built and wrote") == 4
    files = sorted(os.listdir(cache))
    assert files == [f"htilde-{n}.json" for n in range(4)]
    # second run revalidates, does not rebuild
    assert cmd_build_cache(3, cache) == 0
    second = capsys.readouterr().out
    assert second.count("loaded and revalidated") == 4


def test_build_cache_detects_corruption(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert cmd_build_cache(1, cache) == 0
    capsys.readouterr()
    path = os.path.join(cache, "htilde-1.json")
    data = json.loads(open(path).read())
    data["entries"]["[1]"]["[1]"] = "2*q^0*t^0|1*q^0*t^0"
    open(path, "w").write(json.dumps(data))
    assert cmd_build_cache(1, cache) == 1
    assert "failed validation" in capsys.readouterr().err


def test_env_cache_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QTSHUFFLE_CACHE", str(tmp_path / "envcache"))
    assert main(["build-cache", "--n-max", "1"]) == 0
    assert os.path.isdir(str(tmp_path / "envcache"))


def test_verify_cache_detects_corruption(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert cmd_build_cache(1, cache) == 0
    capsys.readouterr()
    path = os.path.join(cache, "htilde-1.json")
    wrong_degree = open(os.path.join(cache, "htilde-0.json")).read()  # a valid table, misnamed
    for corrupt in ("{not json", wrong_degree):
        open(path, "w").write(corrupt)
        assert main(["verify", "macdonald", "--n-max", "1", "--cache", cache]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cache file {path} failed validation: ")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["enumerate", "inner"])
@pytest.mark.parametrize("comp", ["0,2", "2,x"])
def test_bad_composition_is_a_usage_error(command, comp, capsys):
    assert main([command, "--comp", comp, "--abc", "1,1,0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --comp ") and err.count("\n") == 1


@pytest.mark.parametrize("suite,n_max", [("main-theorem", "0"), ("macdonald", "-3")])
def test_verify_empty_grid_is_a_usage_error(suite, n_max, capsys):
    assert main(["verify", suite, "--n-max", n_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: suite {suite} has no cases at --n-max {n_max}\n"


@pytest.mark.parametrize("suite", ["macdonald", "operators", "recursion", "main-theorem",
                                   "shuffle-qsym", "paths", "all"])
def test_verify_negative_n_max_is_a_usage_error(suite, capsys):
    # the degree-0 operator probes once ran, and passed, at any negative --n-max
    for n_max in ("-1", "-5"):
        assert main(["verify", suite, "--n-max", n_max, "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: suite {suite} has no cases at --n-max {n_max}\n"
    assert build_cases(suite, -1) == []


@pytest.mark.parametrize("suite,top", [("operators", 7), ("recursion", 6), ("shuffle-qsym", 7), ("paths", 6)])
def test_verify_refuses_an_n_max_above_what_the_suite_checks(suite, top, monkeypatch, capsys):
    # the gate alone: every case is stubbed to pass, so the suite's last
    # degree exits 0, and any --n-max above it exits 2 before a case runs
    ran = []

    def passing(case):
        ran.append(case.case_id)
        return CaseResult(case.case_id, case.params, "pass")

    monkeypatch.setattr("qtshuffle.cli._run_case", passing)
    assert main(["verify", suite, "--n-max", str(top), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["n_max"] == top
    assert ran == [case.case_id for case in build_cases(suite, top)]
    ran.clear()
    for n_max in (top + 1, 12):
        assert main(["verify", suite, "--n-max", str(n_max), "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: suite {suite} checks nothing above degree {top}\n"
    assert ran == []


def test_verify_all_names_the_suites_that_stop_short(monkeypatch, capsys):
    # every case is stubbed to pass: `all` keeps its report and exit code at
    # any --n-max, and stderr names each suite whose grid stops below it
    monkeypatch.setattr("qtshuffle.cli._run_case", lambda case: CaseResult(case.case_id, case.params, "pass"))
    assert main(["verify", "all", "--n-max", "6", "--format", "json"]) == 0
    assert capsys.readouterr().err == ""
    assert main(["verify", "all", "--n-max", "8", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["n_max"] == 8
    assert captured.err == "".join(
        f"note: suite {suite} checks nothing above degree {top}\n"
        for suite, top in (("operators", 7), ("recursion", 6), ("shuffle-qsym", 7), ("paths", 6))
    )


@pytest.mark.parametrize("suite", ["macdonald", "main-theorem"])
def test_uncapped_suites_grow_at_every_degree(suite):
    for n in range(1, 10):
        ids = {case.case_id for case in build_cases(suite, n)}
        assert ids > {case.case_id for case in build_cases(suite, n - 1)}


def test_build_cache_negative_n_max_is_a_usage_error(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["build-cache", "--n-max", "-1", "--cache", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: build-cache has no tables to build at --n-max -1\n"
    assert not cache.exists()
    # above the degree cap: refused before the directory is made
    assert main(["build-cache", "--n-max", "13", "--cache", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: degree 13 exceeds the configured cap 12\n"
    assert not cache.exists()


@pytest.mark.parametrize("command", ["enumerate", "inner"])
@pytest.mark.parametrize("abc", ["-1,3,3", "1,1,1"])
def test_bad_abc_is_the_same_usage_error(command, abc, capsys):
    assert main([command, "--comp", "3,2", f"--abc={abc}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    a, b, c = abc.split(",")
    assert captured.err == f"usage error: (a,b,c)=({a},{b},{c}) must be nonnegative and sum to 5\n"


def test_verify_cache_must_be_a_directory(tmp_path, capsys):
    missing = str(tmp_path / "no" / "such" / "dir")
    a_file = tmp_path / "file"
    a_file.write_text("")
    for path in (missing, str(a_file)):
        assert main(["verify", "macdonald", "--n-max", "1", "--cache", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: --cache {path} is not a directory\n"
    assert not os.path.exists(missing)


def test_build_cache_path_must_not_be_a_file(tmp_path, monkeypatch, capsys):
    a_file = tmp_path / "file"
    a_file.write_text("")
    assert main(["build-cache", "--n-max", "1", "--cache", str(a_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before any table is built
    assert captured.err == f"usage error: --cache {a_file} is not a directory\n"
    assert a_file.read_text() == ""
    # the message names where the path came from
    monkeypatch.setenv("QTSHUFFLE_CACHE", str(a_file))
    assert main(["build-cache", "--n-max", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: $QTSHUFFLE_CACHE {a_file} is not a directory\n"
    monkeypatch.delenv("QTSHUFFLE_CACHE")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "qtshuffle-cache").write_text("")
    assert main(["build-cache", "--n-max", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    default = tmp_path / "qtshuffle-cache"
    assert captured.err == f"usage error: default cache directory {default} is not a directory\n"
    assert a_file.read_text() == "" and default.read_text() == ""
    assert sorted(os.listdir(tmp_path)) == ["file", "qtshuffle-cache"]


@pytest.mark.parametrize("coeff", ["1*q^0*t^0|1*q^1*t^0 + -1*q^0*t^0", "1*q^0*t^0|2*q^0*t^0"])
def test_cache_with_a_non_polynomial_coefficient_fails_validation(tmp_path, coeff, capsys):
    cache = str(tmp_path / "cache")
    assert cmd_build_cache(2, cache) == 0
    capsys.readouterr()
    path = os.path.join(cache, "htilde-2.json")
    data = json.loads(open(path).read())
    data["entries"]["[2]"]["[2]"] = coeff
    open(path, "w").write(json.dumps(data))
    for run in (lambda: cmd_build_cache(2, cache),
                lambda: main(["verify", "macdonald", "--n-max", "2", "--cache", cache])):
        assert run() == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cache file {path} failed validation: integrality failed at ((2,), ")
        assert err.count("\n") == 1


_ONE = "1*q^0*t^0|1*q^0*t^0"
# corruptions of htilde-3.json: a key of another degree, or a degree that is no int in 0..12
_BAD_TABLES = {
    "mu-100": lambda data: data["entries"].update({"[100]": {"[3]": _ONE}}),
    "mu-200": lambda data: data["entries"].update({"[200]": {"[3]": _ONE}}),
    "lam-200": lambda data: data["entries"]["[3]"].update({"[200]": _ONE}),
    "degree-60": lambda data: data.update(degree=60),
    "degree-13": lambda data: data.update(degree=13),
    "degree-minus-1": lambda data: data.update(degree=-1),
    "degree-str": lambda data: data.update(degree="3"),
    "degree-float": lambda data: data.update(degree=3.0),
}


@pytest.mark.parametrize("bad", sorted(_BAD_TABLES))
def test_cache_with_a_bad_degree_or_key_is_refused_before_any_work(tmp_path, bad, capsys):
    # the degree must be an int in 0..12 and each key a partition of it, checked
    # before the invariants of a key or the partitions of the degree are
    # computed: for a key [100] those alone take about a minute
    from qtshuffle.macdonald import HTildeTable, TableInvariantError

    cache = str(tmp_path / "cache")
    assert cmd_build_cache(3, cache) == 0
    capsys.readouterr()
    path = os.path.join(cache, "htilde-3.json")
    data = json.loads(open(path).read())
    _BAD_TABLES[bad](data)
    open(path, "w").write(json.dumps(data))
    t0 = time.perf_counter()
    with pytest.raises((ValueError, TableInvariantError)):
        HTildeTable.from_json(data)
    assert main(["verify", "macdonald", "--n-max", "3", "--cache", cache]) == 1
    assert time.perf_counter() - t0 < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cache file {path} failed validation: ")
    assert captured.err.count("\n") == 1


def test_benchmark_case_ids_match_the_reference():
    # perfbench keys its digests by case id; a changed id reads as a digest failure there
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "reference.json")) as fh:
        reference = json.load(fh)
    for workload, suite, n_max in (("registry", "operators", 5), ("main-grid", "main-theorem", 6)):
        ids = [case.case_id for case in build_cases(suite, n_max)]
        assert len(ids) == len(set(ids)) == reference[workload]["count"][str(n_max)]
        assert set(ids) == set(reference[workload]["cases"])


def test_benchmark_side_digests_match_the_reference():
    # perfbench checks sha256(f"{lhs}|{rhs}")[:16] of every case against these digests
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "reference.json")) as fh:
        reference = json.load(fh)
    for workload, suite, n_max in (("registry", "operators", 4), ("main-grid", "main-theorem", 6)):
        digests = reference[workload]["cases"]
        mismatched = []
        for case in build_cases(suite, n_max):
            ok, lhs, rhs = case.run()
            if not ok or hashlib.sha256(f"{lhs}|{rhs}".encode()).hexdigest()[:16] != digests[case.case_id]:
                mismatched.append(case.case_id)
        assert mismatched == [], (workload, len(mismatched), mismatched[:3])


def _raise_in_helper():
    return 1 // 0  # the innermost frame


def test_error_case_names_where_it_was_raised(capsys):
    line = _raise_in_helper.__code__.co_firstlineno + 1
    result = _run_case(_Case("boom[k=1]", "k=1", lambda: [(None, _raise_in_helper(), "")]))
    assert isinstance(result, CaseResult) and result.status == "error"
    assert result.lhs == "ZeroDivisionError: integer division or modulo by zero"
    assert result.rhs == ""
    assert capsys.readouterr().err == f"error: boom[k=1]: ZeroDivisionError at {__file__}:{line}\n"


def _report_lines(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    return captured.out, captured.err.splitlines()


def test_fail_rows_name_the_first_difference(capsys, monkeypatch):
    import qtshuffle.cli as cli
    import qtshuffle.macdonald as mac
    from qtshuffle.qtfield import T
    from qtshuffle.symfunc import e_, p_

    # a symmetric-function identity: the coefficients of p_(n) and p_(1^n) off by t
    def wrong(n):
        lhs = e_(n) + (p_((n,)) + p_((1,) * n)).scale(T)
        return [(None, lhs, e_(n).to_power())]

    monkeypatch.setitem(mac._REGISTRY, "en-decomp", wrong)
    json_out, _ = _report_lines(capsys, ["verify", "operators", "--n-max", "2", "--format", "json"])
    out, err = _report_lines(capsys, ["verify", "operators", "--n-max", "2", "--format", "csv"])
    failed = [row for row in csv.reader(io.StringIO(out)) if row[3] == "fail"]
    assert [row[1] for row in failed] == ["en-decomp[n=1]", "en-decomp[n=2]"]
    one = "1*q^0*t^0"
    assert failed[0][5] == f"p[1]: lhs 2*q^0*t^1 + 1*q^0*t^0|{one} rhs {one}|{one}"
    # the first of the two differing partitions, in sorted order
    assert failed[1][5] == "p[1, 1]: lhs 2*q^0*t^1 + 1*q^0*t^0|2*q^0*t^0 rhs 1*q^0*t^0|2*q^0*t^0"
    assert err == [f"fail: {row[1]}: {row[5]}" for row in failed]
    # the JSON report carries no detail
    cases = json.loads(json_out)["cases"]
    assert all(set(case) <= {"id", "params", "status", "lhs", "rhs"} for case in cases)

    # a scalar case: the leading term of lhs - rhs
    pi_poly = cli.pi_poly
    monkeypatch.setattr(cli, "pi_poly", lambda *args: pi_poly(*args) + T**2 + T)
    out, err = _report_lines(capsys, ["verify", "main-theorem", "--n-max", "2", "--format", "csv"])
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows and all(row[3] == "fail" for row in rows)
    assert {row[5] for row in rows} == {f"lhs - rhs leads with -1*q^0*t^2 (denominator {one})"}
    assert err == [f"fail: {row[1]}: {row[5]}" for row in rows]


@pytest.fixture
def word_caches():
    """The caches of the integer words and their pairings, emptied before and
    after a test that plants a wrong row under them."""
    import qtshuffle.macdonald as mac

    caches = (mac._op_row, mac._star_rows, mac._qtr_row, mac._c_word, mac._nabla_c_word)
    for f in caches:
        f.cache_clear()
    yield
    for f in caches:
        f.cache_clear()


def _planted_fails(capsys, deltas):
    """Run verify main-theorem --n-max 3 with a planted wrong row: it must exit
    1, and fail exactly the cases whose lhs the plant moved, each csv row naming
    where lhs - rhs = delta first differs from zero.  deltas maps alpha to the
    planted change of nabla C_alpha 1."""
    from qtshuffle.cli import first_difference
    from qtshuffle.qtfield import QTR_ZERO
    from qtshuffle.symfunc import e_, h_, hall_inner

    want = {}
    for alpha, delta in deltas.items():
        n = sum(alpha)
        for a in range(n + 1):
            for b in range(n + 1 - a):
                c = n - a - b
                x = hall_inner(delta, e_(a) * h_(b) * h_(c))
                if not x.is_zero():
                    alpha_s = ",".join(map(str, alpha))
                    want[f"main-theorem[alpha=({alpha_s}),a={a},b={b},c={c}]"] = first_difference([(None, x, QTR_ZERO)])
    assert want
    out, err = _report_lines(capsys, ["verify", "main-theorem", "--n-max", "3", "--format", "csv"])
    failed = {row[1]: row[5] for row in list(csv.reader(io.StringIO(out)))[1:] if row[3] != "pass"}
    assert failed == want
    assert err == [f"fail: {case}: {detail}" for case, detail in failed.items()]


def test_a_planted_wrong_nabla_row_fails_its_cases(capsys, monkeypatch, word_caches):
    import qtshuffle.macdonald as mac
    from qtshuffle.macdonald import HTildeTable, build_htilde, c_word
    from qtshuffle.qtfield import Q, T
    from qtshuffle.symfunc import SymFunc

    table = HTildeTable.from_json(build_htilde(3).to_json())
    monkeypatch.setitem(mac._tables, 3, table)
    row = table.int_rows[(2, 1)]  # certified here, then one coefficient is made wrong
    row[(2, 1)] = {**row[(2, 1)], (1, 1): row[(2, 1)].get((1, 1), 0) + 1}
    # nabla C_alpha 1 moves by [s_21] C_alpha 1 times q t s_21
    deltas = {}
    for alpha in ((3,), (2, 1), (1, 2), (1, 1, 1)):
        x = c_word(alpha).coeffs.get((2, 1))
        if x is not None:
            deltas[alpha] = SymFunc("schur", {(2, 1): x * Q * T})
    _planted_fails(capsys, deltas)


def test_a_planted_wrong_c_row_fails_its_cases(capsys, word_caches):
    import qtshuffle.macdonald as mac
    from qtshuffle.macdonald import nabla, op_C
    from qtshuffle.qtfield import Q
    from qtshuffle.symfunc import s_

    # C_1 s_1 gains q^-1 s_2, so C_(1,1) 1 gains q^-1 s_2, and C_(1,1,1) 1
    # gains C_1 of that; no other word of degree <= 3 reads this row
    deltas = {(1, 1): nabla(s_((2,))).scale(Q.inverse()), (1, 1, 1): nabla(op_C(1, s_((2,)))).scale(Q.inverse())}
    entry = mac._op_row("C", 1, (1,))[(2,)]
    entry[-1, 0] += 1
    _planted_fails(capsys, deltas)


def test_every_case_runs_to_its_equality_and_both_side_texts():
    # run() renders a pass's sides once; the texts must still be the bytes
    # side_text gives for each side, whatever the types of the values.  No
    # suite pairs equal values that print differently (paths' int against
    # Fraction print alike), so one made-up case does
    from qtshuffle.cli import side_text
    from qtshuffle.qtfield import QTR_ONE

    mixed = _Case("mixed[k=1]", "k=1", lambda: [(None, QTR_ONE, 1)])
    cases = build_cases("all", 4) + build_cases("main-theorem", 6) + [mixed]
    assert len(cases) > 1408
    for case in cases:
        sides = case.sides()
        want = (all(x == y for _, x, y in sides), side_text(sides, 1), side_text(sides, 2))
        assert case.run() == want, case.case_id


def test_verdict_renders_a_pass_once():
    from qtshuffle.qtfield import Q, QTR_ONE, T

    lhs, rhs = Q * T + 1, 1 + T * Q
    ok, x, y = _verdict([(None, lhs, rhs)])
    assert ok and x == lhs.canonical() and y is x
    # equal values of two types print differently, so both sides are rendered
    assert _verdict([(None, QTR_ONE, 1)]) == (True, "1*q^0*t^0|1*q^0*t^0", "1")
    ok, x, y = _verdict([("a", Q, Q), ("b", Q, T)])
    assert not ok and (x, y) == (f"a:{Q.canonical()} b:{Q.canonical()}", f"a:{Q.canonical()} b:{T.canonical()}")


def test_a_planted_wrong_pi_row_entry_fails_its_one_case(capsys, monkeypatch):
    import qtshuffle.parking as parking
    from qtshuffle.cli import first_difference
    from qtshuffle.macdonald import lhs_inner
    from qtshuffle.qtfield import T

    row = parking._pi_row((2, 1))
    monkeypatch.setitem(row, (1, 1), row[1, 1] + T)
    (case,) = [c for c in build_cases("main-theorem", 3) if c.params == "alpha=(2,1),a=1,b=1,c=1"]
    sides = case.sides()
    assert case.run() == _verdict(sides) == (False, lhs_inner((2, 1), 1, 1, 1).canonical(), sides[0][2].canonical())
    detail = first_difference(sides)
    assert detail == "lhs - rhs leads with -1*q^0*t^1 (denominator 1*q^0*t^0)"
    out, err = _report_lines(capsys, ["verify", "main-theorem", "--n-max", "3", "--format", "csv"])
    assert [row[1] for row in list(csv.reader(io.StringIO(out)))[1:] if row[3] != "pass"] == [case.case_id]
    assert err == [f"fail: {case.case_id}: {detail}"]


def test_first_difference_names_the_descent_set_and_the_half():
    from qtshuffle.cli import first_difference
    from qtshuffle.parking import rhs_quasisym
    from qtshuffle.qtfield import QTR_ONE, QTR_ZERO, T
    from qtshuffle.symfunc import QSymFunc, SymFunc, e_, p_

    one = "1*q^0*t^0"
    # shuffle-qsym: the first descent set, in sorted order
    f = rhs_quasisym((2, 1))
    g = f + QSymFunc(3, {frozenset({2}): T, frozenset(): T})
    assert first_difference([(None, f, g)]) == f"F[]: lhs 0|{one} rhs 1*q^0*t^1|{one}"
    assert first_difference([(None, f, f)]) == ""
    # thm32: which half, then its first power-sum partition
    x, y = e_(2), e_(2) + p_((2,)).scale(T)
    assert first_difference([("1", x, x), ("2", x, y)]) == (
        "2: p[2]: lhs -1*q^0*t^0|2*q^0*t^0 rhs 2*q^0*t^1 + -1*q^0*t^0|2*q^0*t^0"
    )
    zero = SymFunc.zero()
    assert first_difference([("1", y, x), ("2", zero, zero)]).startswith("1: p[2]: lhs 2*q^0*t^1")
    # sym-ab names its two scalars the same way
    assert first_difference([("a", T, T), ("b", QTR_ZERO, QTR_ONE)]) == (
        f"b: lhs - rhs leads with -1*q^0*t^0 (denominator {one})"
    )


def test_fail_rows_name_the_first_differing_pair(capsys, monkeypatch):
    import qtshuffle.macdonald as mac
    from qtshuffle.qtfield import T
    from qtshuffle.shapes import corners

    # pieri-rel sides are '; '-joined scalars, one per pair: a second pair off by t^2
    def wrong(mu):
        d = mac._d_coeff(mu, sorted(corners(mu)[0])[0])
        return [(None, d, d), (None, d + T**2, d)]

    monkeypatch.setitem(mac._REGISTRY, "pieri-rel", wrong)
    json_out, _ = _report_lines(capsys, ["verify", "macdonald", "--n-max", "2", "--format", "json"])
    out, err = _report_lines(capsys, ["verify", "macdonald", "--n-max", "2", "--format", "csv"])
    failed = [row for row in csv.reader(io.StringIO(out)) if row[3] == "fail"]
    assert [row[1].split("[")[0] for row in failed] == ["pieri-rel"] * 3
    assert {row[5] for row in failed} == {"pair 1: lhs - rhs leads with 1*q^0*t^2 (denominator 1*q^0*t^0)"}
    assert sorted(err) == sorted(f"fail: {row[1]}: {row[5]}" for row in failed)  # stderr in run order
    cases = json.loads(json_out)["cases"]
    assert all(set(case) <= {"id", "params", "status", "lhs", "rhs"} for case in cases)


def _failed_rows(capsys, argv):
    """The fail rows of a csv report and the fail cases of its JSON twin, by case id."""
    json_out, _ = _report_lines(capsys, argv + ["--format", "json"])
    out, err = _report_lines(capsys, argv + ["--format", "csv"])
    failed = [row for row in csv.reader(io.StringIO(out)) if row[3] == "fail"]
    assert failed and sorted(err) == sorted(f"fail: {row[1]}: {row[5]}" for row in failed)
    cases = {case["id"]: case for case in json.loads(json_out)["cases"] if case["status"] == "fail"}
    assert sorted(cases) == sorted(row[1] for row in failed)
    return failed, cases


def _plant_in_recursion(monkeypatch, pipeline):
    """Add t to recursion_rhs wherever it is given pipeline (lhs_inner or
    pi_poly), so the recursion of that pipeline alone is off by t."""
    import qtshuffle.cli as cli
    from qtshuffle.qtfield import T

    recursion_rhs = cli.recursion_rhs

    def planted(value, *args):
        out = recursion_rhs(value, *args)
        return out + T if value is pipeline else out

    monkeypatch.setattr(cli, "recursion_rhs", planted)


def _recursion_triples(text):
    """{label: value text} of a recursion case's side text."""
    return dict(part.split(":", 1) for part in re.split(r" (?=comb:|bridge:)", text))


def test_recursion_fail_rows_name_the_differing_pipeline(capsys, monkeypatch):
    import qtshuffle.cli as cli

    # the combinatorial recursion off by t: the symbolic one and the bridge still agree
    _plant_in_recursion(monkeypatch, cli.pi_poly)
    failed, cases = _failed_rows(capsys, ["verify", "recursion", "--n-max", "2"])
    assert len(failed) == len(build_cases("recursion", 2))
    assert {row[5] for row in failed} == {"comb: lhs - rhs leads with -1*q^0*t^1 (denominator 1*q^0*t^0)"}
    for case in cases.values():
        assert case["lhs"].startswith("sym:") and " comb:" in case["lhs"] and " bridge:" in case["lhs"]
        lhs, rhs = _recursion_triples(case["lhs"]), _recursion_triples(case["rhs"])
        assert [label for label in lhs if lhs[label] != rhs[label]] == ["comb"]


def test_recursion_fail_rows_name_the_symbolic_pipeline(capsys, monkeypatch):
    import qtshuffle.cli as cli

    # the mirror plant: the symbolic recursion off by t, the combinatorial one and the bridge agree
    _plant_in_recursion(monkeypatch, cli.lhs_inner)
    failed, cases = _failed_rows(capsys, ["verify", "recursion", "--n-max", "2"])
    assert len(failed) == len(build_cases("recursion", 2))
    assert {row[5] for row in failed} == {"sym: lhs - rhs leads with -1*q^0*t^1 (denominator 1*q^0*t^0)"}
    for case in cases.values():
        lhs, rhs = _recursion_triples(case["lhs"]), _recursion_triples(case["rhs"])
        assert list(lhs) == list(rhs) == ["sym", "comb", "bridge"]
        assert [label for label in lhs if lhs[label] != rhs[label]] == ["sym"]


def test_paths_fail_rows_name_the_differing_count(capsys, monkeypatch):
    import qtshuffle.cli as cli

    # every class of size 1 has one parking function; the count at q = t = 1 is made 2
    lhs_inner = cli.lhs_inner
    monkeypatch.setattr(cli, "lhs_inner", lambda *args: lhs_inner(*args) + 1)
    failed, cases = _failed_rows(capsys, ["verify", "paths", "--n-max", "1"])
    assert len(failed) == 3
    assert {row[5] for row in failed} == {"inner(q=t=1): lhs 1 rhs 2"}
    assert {(case["lhs"], case["rhs"]) for case in cases.values()} == {
        ("family:1 inner(q=t=1):1", "family:1 inner(q=t=1):2")
    }

    # a path map that is not injective: every family of two or more shares one path
    monkeypatch.setattr(cli, "lhs_inner", lhs_inner)
    monkeypatch.setattr(cli, "pf_to_path", lambda *args: types.SimpleNamespace(steps=()))
    failed, _ = _failed_rows(capsys, ["verify", "paths", "--n-max", "2"])
    assert {row[5] for row in failed} == {"family: lhs 1 rhs 2"}


def test_cauchy_fail_rows_show_both_tensors(capsys, monkeypatch):
    import qtshuffle.macdonald as mac
    from qtshuffle.qtfield import T

    good = mac._REGISTRY["cauchy"]

    def wrong(n):
        ((_, lhs, rhs),) = good(n)
        key = min(lhs)
        return [(None, {**lhs, key: lhs[key] + T}, rhs)]

    monkeypatch.setitem(mac._REGISTRY, "cauchy", wrong)
    failed, cases = _failed_rows(capsys, ["verify", "macdonald", "--n-max", "2"])
    assert [row[1] for row in failed] == ["cauchy[n=1]", "cauchy[n=2]"]
    for row in failed:
        case = cases[row[1]]
        assert row[5] == f"lhs {case['lhs']} rhs {case['rhs']}"


def test_sym_ab_fail_rows_name_the_half(capsys, monkeypatch):
    import qtshuffle.macdonald as mac
    from qtshuffle.qtfield import T

    good = mac._REGISTRY["sym-ab"]

    def wrong(alpha, beta):
        half_a, (label, lhs, rhs) = good(alpha, beta)
        return [half_a, (label, lhs + T, rhs)]

    monkeypatch.setitem(mac._REGISTRY, "sym-ab", wrong)
    failed, cases = _failed_rows(capsys, ["verify", "macdonald", "--n-max", "1"])
    assert [row[1] for row in failed] == ["sym-ab[alpha=(1,),beta=(1,)]"]
    assert failed[0][5] == "b: lhs - rhs leads with 1*q^0*t^1 (denominator 1*q^0*t^0)"
    case = cases[failed[0][1]]
    assert case["lhs"].startswith("a:") and " b:" in case["lhs"]
