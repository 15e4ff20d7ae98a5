import csv
import io
import json
import os
import subprocess
import sys

import pytest

from qtshuffle.cli import (
    CaseResult,
    _Case,
    _run_case,
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


def test_verify_above_degree_cap_is_a_usage_error(tmp_path, capsys):
    # refused before any table is loaded or built
    for extra in ([], ["--cache", str(tmp_path)]):
        assert main(["verify", "macdonald", "--n-max", "13", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: degree 13 exceeds the configured cap 12\n"


# installs the benchmark's tracer, runs one call of each traced operator and
# prints the names of the recorded spans
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


def test_benchmark_case_ids_match_the_reference():
    # perfbench keys its digests by case id; a changed id reads as a digest failure there
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "reference.json")) as fh:
        reference = json.load(fh)
    for workload, suite, n_max in (("registry", "operators", 5), ("main-grid", "main-theorem", 6)):
        ids = [case.case_id for case in build_cases(suite, n_max)]
        assert len(ids) == len(set(ids)) == reference[workload]["count"][str(n_max)]
        assert set(ids) == set(reference[workload]["cases"])


def _raise_in_helper():
    return 1 // 0  # the innermost frame


def test_error_case_names_where_it_was_raised(capsys):
    line = _raise_in_helper.__code__.co_firstlineno + 1
    result = _run_case(_Case("boom[k=1]", "k=1", lambda: (_raise_in_helper(), "", "")))
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
        return mac._report("en-decomp", {"n": n}, lhs, e_(n).to_power())

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


def test_first_difference_names_the_descent_set_and_the_half():
    from qtshuffle.cli import _first_difference
    from qtshuffle.macdonald import _sym_canonical
    from qtshuffle.parking import rhs_quasisym
    from qtshuffle.qtfield import T
    from qtshuffle.symfunc import QSymFunc, e_, p_

    one = "1*q^0*t^0"
    # shuffle-qsym: the first descent set, in the order the repr sorts them
    f = rhs_quasisym((2, 1))
    g = f + QSymFunc(3, {frozenset({2}): T, frozenset(): T})
    assert _first_difference(repr(f), repr(g)) == f"F[]: lhs 0|{one} rhs 1*q^0*t^1|{one}"
    assert _first_difference(repr(f), repr(f)) == ""
    # thm32: which half, then its first power-sum partition
    x, y = _sym_canonical(e_(2)), _sym_canonical(e_(2) + p_((2,)).scale(T))
    assert _first_difference(f"1:{x} 2:{x}", f"1:{x} 2:{y}") == (
        "2: p[2]: lhs -1*q^0*t^0|2*q^0*t^0 rhs 2*q^0*t^1 + -1*q^0*t^0|2*q^0*t^0"
    )
    assert _first_difference(f"1:{y} 2:0", f"1:{x} 2:0").startswith("1: p[2]: lhs 2*q^0*t^1")
    # sym-ab writes two scalars the same way
    assert _first_difference(f"a:1*q^0*t^1|{one} b:0|{one}", f"a:1*q^0*t^1|{one} b:{one}|{one}") == (
        f"b: lhs - rhs leads with -1*q^0*t^0 (denominator {one})"
    )


def test_fail_rows_name_the_first_differing_pair(capsys, monkeypatch):
    import qtshuffle.macdonald as mac
    from qtshuffle.qtfield import T
    from qtshuffle.shapes import corners

    # pieri-rel sides are '; '-joined scalars, one per pair: a second pair off by t^2
    def wrong(mu):
        d = mac._d_coeff(mu, sorted(corners(mu)[0])[0])
        return mac._report_pairs("pieri-rel", {"mu": mu}, [(d, d), (d + T**2, d)])

    monkeypatch.setitem(mac._REGISTRY, "pieri-rel", wrong)
    json_out, _ = _report_lines(capsys, ["verify", "macdonald", "--n-max", "2", "--format", "json"])
    out, err = _report_lines(capsys, ["verify", "macdonald", "--n-max", "2", "--format", "csv"])
    failed = [row for row in csv.reader(io.StringIO(out)) if row[3] == "fail"]
    assert [row[1].split("[")[0] for row in failed] == ["pieri-rel"] * 3
    assert {row[5] for row in failed} == {"pair 1: lhs - rhs leads with 1*q^0*t^2 (denominator 1*q^0*t^0)"}
    assert sorted(err) == sorted(f"fail: {row[1]}: {row[5]}" for row in failed)  # stderr in run order
    cases = json.loads(json_out)["cases"]
    assert all(set(case) <= {"id", "params", "status", "lhs", "rhs"} for case in cases)
