"""Command-line front end: cache management, verification suites, reports.

Suites aggregate the identity registry, the combinatorial recursions, and
the cross-checks between the symbolic and enumeration pipelines.  Reports
are deterministic: case order is fixed by case id, and the canonical JSON
form carries no timings, so every run of a suite prints the same bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
import time
import traceback
from dataclasses import dataclass, field

from .macdonald import (
    HTildeTable,
    build_htilde,
    check_identity,
    c_word,
    install_table,
    lhs_inner,
    nabla,
)
from .parking import (
    enumerate_family,
    pf_to_path,
    pi_poly,
    rhs_quasisym,
    verify_recursion,
)
from .qtfield import QTR_ZERO, parse_rational
from .shapes import (
    composition_str,
    compositions_of,
    partitions_of,
)
from .symfunc import SymFunc, check_degree, fundamental_expand, p_

ENV_CACHE = "QTSHUFFLE_CACHE"


@dataclass
class CaseResult:
    case_id: str
    params: str
    status: str  # pass | fail | error
    lhs: str = ""
    rhs: str = ""
    seconds: float = 0.0
    detail: str = ""  # where a fail case's sides first differ; csv and stderr only


@dataclass
class VerificationReport:
    suite: str
    n_max: int
    cases: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.cases)

    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "error": 0}
        for c in self.cases:
            out[c.status] = out.get(c.status, 0) + 1
        return out

    def to_json(self) -> str:
        """Canonical form: no timings, so output is scheduling-independent."""
        data = {
            "suite": self.suite,
            "n_max": self.n_max,
            "passed": self.passed,
            "counts": self.counts(),
            "cases": [
                {
                    "id": c.case_id,
                    "params": c.params,
                    "status": c.status,
                    **({} if c.status == "pass" else {"lhs": c.lhs, "rhs": c.rhs}),
                }
                for c in self.cases
            ],
        }
        return json.dumps(data, indent=1, sort_keys=True)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["suite", "case-id", "params", "status", "seconds", "detail"])
        for c in self.cases:
            writer.writerow([self.suite, c.case_id, c.params, c.status, f"{c.seconds:.3f}", c.detail])
        return out.getvalue()

    def to_plain(self) -> str:
        lines = []
        for c in self.cases:
            line = f"[{c.status.upper():5s}] {c.case_id} ({c.seconds:.2f}s)"
            if c.status != "pass":
                line += f"\n    lhs: {c.lhs}\n    rhs: {c.rhs}"
            lines.append(line)
        counts = self.counts()
        lines.append(
            f"suite {self.suite}: {counts['pass']} passed, "
            f"{counts['fail']} failed, {counts['error']} errors"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class _Case:
    case_id: str
    params: str
    run: object  # () -> tuple[bool, str, str]


def _ident_case(ident: str, **params) -> _Case:
    pstr = ",".join(f"{k}={v}" for k, v in params.items())

    def run():
        rep = check_identity(ident, **params)
        return rep.passed, rep.lhs, rep.rhs

    return _Case(f"{ident}[{pstr}]", pstr, run)


def _abc_triples(n: int):
    for a in range(n + 1):
        for b in range(n - a + 1):
            yield a, b, n - a - b


# -- suite grids ------------------------------------------------------------


def _cases_macdonald(n_max: int) -> list:
    cases = []
    for n in range(0, n_max + 1):
        def run(n=n):
            build_htilde(n).verify()
            return True, "invariants hold", "invariants hold"

        cases.append(_Case(f"htilde-invariants[n={n}]", f"n={n}", run))
    for n in range(1, min(n_max, 4) + 1):
        cases.append(_ident_case("cauchy", n=n))
    shapes4 = [mu for d in range(1, min(n_max, 4) + 1) for mu in partitions_of(d)]
    for alpha in shapes4:
        for beta in shapes4:
            cases.append(_ident_case("sym-ab", alpha=alpha, beta=beta))
    for n in range(1, min(n_max, 5) + 1):
        for mu in partitions_of(n):
            cases.append(_ident_case("pieri-rel", mu=mu))
            for k in range(0, 4):
                cases.append(_ident_case("sum-c", mu=mu, k=k))
                cases.append(_ident_case("sum-d", nu=mu, k=k))
    for n in range(1, min(n_max, 5) + 1):
        for k in range(0, n + 1):
            cases.append(_ident_case("exp-abc", n=n, k=k))
        for r in range(0, n + 1):
            cases.append(_ident_case("reproducing", fname="e", r=r, lam=None, n=n))
            cases.append(_ident_case("reproducing", fname="h", r=r, lam=None, n=n))
        for d in range(1, n + 1):
            for lam in partitions_of(d):
                cases.append(_ident_case("reproducing", fname="s", r=d, lam=lam, n=n))
    for n in range(1, min(n_max, 6) + 1):
        for mu in partitions_of(n):
            for r in range(0, n + 1):
                cases.append(_ident_case("erh", mu=mu, r=r))
    return cases


def _operator_probes(maxdeg: int):
    probes = [("1", SymFunc.one())]
    for d in range(1, maxdeg + 1):
        for lam in partitions_of(d):
            probes.append((f"p{list(lam)}", p_(lam)))
    return probes


def _cases_operators(n_max: int) -> list:
    cases = []
    probes = _operator_probes(min(n_max, 3))
    for tag, P in probes:
        for a in range(1, 3):
            for b in range(1, 3):
                cases.append(_ident_case("commute", a=a, b=b, P=P, tag=tag))
        for a in range(-3, 3):
            for b in range(1, 4):
                cases.append(_ident_case("commutator", a=a, b=b, P=P, tag=tag))
    for n in range(1, min(n_max, 7) + 1):
        cases.append(_ident_case("en-decomp", n=n))
    bound = min(n_max, 6)
    for n in range(1, bound):  # lemma31 degree n, paired with m >= 1 elsewhere
        for a, b, c in _abc_triples(n):
            cases.append(_ident_case("lemma31", a=a, b=b, c=c))
    for n in range(1, bound):
        for m in range(1, min(n, bound - n) + 1):
            for d in range(0, min(3, bound - n) + 1):
                for nu in partitions_of(d):
                    cases.append(_ident_case("lemma32", m=m, nu=nu, n=n))
    for n in range(1, bound + 1):
        for m in range(1, n + 1):
            for a in range(0, n + 1):
                for b in range(0, n - a + 1):
                    cases.append(_ident_case("prop31", m=m, a=a, b=b, n=n))
                    cases.append(_ident_case("thm31", m=m, a=a, b=b, n=n))
                    cases.append(_ident_case("thm32", m=m, a=a, b=b, n=n))
                    cases.append(_ident_case("thm21", m=m, a=a, b=b, c=n - a - b))
    return cases


def _recursion_case(m, alpha, a, b, c) -> _Case:
    pstr = f"m={m},alpha={composition_str(alpha)},a={a},b={b},c={c}"

    def run():
        sym = check_identity("rec-m" if m > 1 else "rec-1", **(
            {"m": m, "alpha": alpha, "a": a, "b": b, "c": c} if m > 1
            else {"alpha": alpha, "a": a, "b": b, "c": c}
        ))
        comb = verify_recursion(m, alpha, a, b, c)
        bridge = lhs_inner((m,) + alpha, a, b, c).canonical() == comb.lhs
        ok = sym.passed and comb.passed and bridge
        return ok, f"sym:{sym.lhs} comb:{comb.lhs}", f"sym:{sym.rhs} comb:{comb.rhs}"

    return _Case(f"recursion[{pstr}]", pstr, run)


def _cases_recursion(n_max: int) -> list:
    cases = []
    for n in range(1, min(n_max, 6) + 1):
        for m in range(1, n + 1):
            for alpha in compositions_of(n - m):
                for a, b, c in _abc_triples(n):
                    cases.append(_recursion_case(m, alpha, a, b, c))
    return cases


def _main_theorem_case(alpha, a, b, c) -> _Case:
    pstr = f"alpha={composition_str(alpha)},a={a},b={b},c={c}"

    def run():
        lhs = lhs_inner(alpha, a, b, c)
        rhs = pi_poly(alpha, a, b, c)
        return lhs == rhs, lhs.canonical(), rhs.canonical()

    return _Case(f"main-theorem[{pstr}]", pstr, run)


def _cases_main_theorem(n_max: int) -> list:
    cases = []
    for n in range(1, n_max + 1):
        for alpha in compositions_of(n):
            for a, b, c in _abc_triples(n):
                cases.append(_main_theorem_case(alpha, a, b, c))
    return cases


def _cases_shuffle_qsym(n_max: int) -> list:
    cases = []
    for n in range(1, min(n_max, 6) + 1):
        for p in compositions_of(n):
            pstr = f"p={composition_str(p)}"

            def run(p=p):
                lhs = fundamental_expand(nabla(c_word(p)))
                rhs = rhs_quasisym(p)
                return lhs == rhs, repr(lhs), repr(rhs)

            cases.append(_Case(f"shuffle-qsym[{pstr}]", pstr, run))
    return cases


def _paths_case(alpha, a, b, c) -> _Case:
    pstr = f"alpha={composition_str(alpha)},a={a},b={b},c={c}"

    def run():
        fam = list(enumerate_family(alpha, a, b, c))
        paths = {pf_to_path(pf, a, b, c).steps for pf in fam}
        injective = len(paths) == len(fam)
        expected = lhs_inner(alpha, a, b, c).evaluate(1, 1)
        return (
            injective and len(paths) == expected,
            f"paths={len(paths)} injective={injective}",
            f"inner(q=t=1)={expected}",
        )

    return _Case(f"paths[{pstr}]", pstr, run)


def _cases_paths(n_max: int) -> list:
    cases = []
    for n in range(1, min(n_max, 6) + 1):
        for alpha in compositions_of(n):
            for a, b, c in _abc_triples(n):
                cases.append(_paths_case(alpha, a, b, c))
    return cases


_SUITE_BUILDERS = {
    "macdonald": _cases_macdonald,
    "operators": _cases_operators,
    "recursion": _cases_recursion,
    "main-theorem": _cases_main_theorem,
    "shuffle-qsym": _cases_shuffle_qsym,
    "paths": _cases_paths,
}
SUITES = (*_SUITE_BUILDERS, "all")


def build_cases(suite: str, n_max: int) -> list:
    if suite == "all":
        return [case for builder in _SUITE_BUILDERS.values() for case in builder(n_max)]
    builder = _SUITE_BUILDERS.get(suite)
    if builder is None:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    return builder(n_max)


_POWER_TERM = re.compile(r"p(\[[0-9, ]*\])=(.+)")
_QSYM = re.compile(r"QSymFunc\(deg=\d+, \{(.*)\}\)")  # a side written by QSymFunc.__repr__
_QSYM_TERM = re.compile(r"(\[[0-9, ]*\]): ([^,]+)")
_HALVES = re.compile(r"(\w):(.*) (\w):(.*)")  # two labelled halves, as thm32 and sym-ab write them


def _power_terms(text: str) -> dict | None:
    """{partition: canonical coefficient} of a side written by _sym_canonical,
    or None when the text is no such side."""
    if text == "0":
        return {}
    out = {}
    for item in text.split("; "):
        m = _POWER_TERM.fullmatch(item)
        if m is None:
            return None
        out[tuple(json.loads(m[1]))] = m[2]
    return out


def _scalar_difference(lhs: str, rhs: str) -> str:
    """The leading term of the reduced lhs - rhs, or "" unless both are canonical scalars."""
    try:
        diff = parse_rational(lhs) - parse_rational(rhs)
    except ValueError:
        return ""
    num, den = diff.canonical().split("|")
    return f"lhs - rhs leads with {num.split(' + ')[0]} (denominator {den})"


def _first_key_difference(prefix: str, a: dict, b: dict) -> str:
    """The first key (sorted) whose canonical coefficients differ, with both."""
    zero = QTR_ZERO.canonical()
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key, zero), b.get(key, zero)
        if x != y:
            return f"{prefix}{list(key)}: lhs {x} rhs {y}"
    return ""


def _first_difference(lhs: str, rhs: str) -> str:
    """Where the two canonical sides of a fail case first differ: for two
    scalars, the leading term of the reduced lhs - rhs; for two symmetric
    functions in power sums, the first partition (sorted) whose coefficients
    differ, with both; for two quasisymmetric functions, the first descent
    set likewise; for two sides of two labelled halves (thm32's '1:' and
    '2:', sym-ab's 'a:' and 'b:'), the first half that differs and where;
    for two '; '-joined lists of as many scalars (the pairs of
    _report_pairs), the first differing position and its scalar
    difference; "" for any other report."""
    a, b = _power_terms(lhs), _power_terms(rhs)
    if a is not None and b is not None:
        return _first_key_difference("p", a, b)
    qa, qb = _QSYM.fullmatch(lhs), _QSYM.fullmatch(rhs)
    if qa and qb:
        a, b = ({tuple(json.loads(S)): c for S, c in _QSYM_TERM.findall(m[1])} for m in (qa, qb))
        return _first_key_difference("F", a, b)
    ha, hb = _HALVES.fullmatch(lhs), _HALVES.fullmatch(rhs)
    if ha and hb and (ha[1], ha[3]) == (hb[1], hb[3]):
        for label, x, y in ((ha[1], ha[2], hb[2]), (ha[3], ha[4], hb[4])):
            if x != y:
                return f"{label}: {_first_difference(x, y)}"
        return ""
    xs, ys = lhs.split("; "), rhs.split("; ")
    pairs = [_scalar_difference(x, y) for x, y in zip(xs, ys)]
    if len(xs) == len(ys) and all(pairs):
        for i, (x, y) in enumerate(zip(xs, ys)):
            if x != y:
                return pairs[i] if len(xs) == 1 else f"pair {i}: {pairs[i]}"
    return ""


def _run_case(case: _Case) -> CaseResult:
    t0 = time.perf_counter()
    detail = ""
    try:
        ok, lhs, rhs = case.run()
        status = "pass" if ok else "fail"
        if not ok:
            detail = _first_difference(lhs, rhs)
            if detail:
                print(f"fail: {case.case_id}: {detail}", file=sys.stderr)
    except Exception as err:  # a math bug must surface, not crash the grid
        status, lhs, rhs = "error", f"{type(err).__name__}: {err}", ""
        frame = traceback.extract_tb(err.__traceback__)[-1]
        print(
            f"error: {case.case_id}: {type(err).__name__} at {frame.filename}:{frame.lineno}",
            file=sys.stderr,
        )
    return CaseResult(case.case_id, case.params, status, lhs, rhs, time.perf_counter() - t0, detail)


def run_suite(suite: str, n_max: int) -> VerificationReport:
    results = [_run_case(c) for c in build_cases(suite, n_max)]
    results.sort(key=lambda r: r.case_id)
    return VerificationReport(suite, n_max, results)


# -- commands ---------------------------------------------------------------


def _cache_dir(arg: str | None) -> tuple[str, str]:
    """The build-cache directory and where it came from, for messages."""
    if arg:
        return arg, "--cache"
    if os.environ.get(ENV_CACHE):
        return os.environ[ENV_CACHE], f"${ENV_CACHE}"
    return os.path.join(os.getcwd(), "qtshuffle-cache"), "default cache directory"


def _load_cached_table(path: str, n: int) -> bool:
    """Load, verify and install the degree-n cache file; on failure say why and return False."""
    try:
        table = HTildeTable.load(path)
        if table.degree != n:
            raise ValueError(f"it holds the degree {table.degree} table, not degree {n}")
    except Exception as err:
        print(f"error: cache file {path} failed validation: {err}", file=sys.stderr)
        return False
    install_table(table)
    return True


def cmd_build_cache(n_max: int, cache_dir: str, source: str = "--cache") -> int:
    try:
        if n_max < 0:  # building nothing proves nothing
            raise ValueError(f"build-cache has no tables to build at --n-max {n_max}")
        check_degree(n_max)
        if os.path.exists(cache_dir) and not os.path.isdir(cache_dir):
            raise ValueError(f"{source} {cache_dir} is not a directory")
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    os.makedirs(cache_dir, exist_ok=True)
    for n in range(0, n_max + 1):
        path = os.path.join(cache_dir, f"htilde-{n}.json")
        if os.path.exists(path):
            if not _load_cached_table(path, n):
                return 1
            print(f"degree {n}: loaded and revalidated {path}")
        else:
            table = build_htilde(n)
            table.save(path)
            print(f"degree {n}: built and wrote {path}")
    return 0


def cmd_inner(comp, a: int, b: int, c: int, fmt: str = "plain") -> int:
    value = lhs_inner(comp, a, b, c)
    if fmt == "json":
        print(json.dumps({
            "comp": composition_str(comp),
            "abc": [a, b, c],
            "value": value.canonical(),
            "display": value.display(),
        }, sort_keys=True))
    elif fmt == "latex":
        print(value.display("latex"))
    else:
        print(value.display())
    return 0


def cmd_enumerate(comp, a: int, b: int, c: int, list_flag: bool = False, fmt: str = "plain") -> int:
    comp = tuple(comp)
    fam = list(enumerate_family(comp, a, b, c))
    poly = pi_poly(comp, a, b, c)
    if fmt == "json":
        data = {
            "comp": composition_str(comp),
            "abc": [a, b, c],
            "count": len(fam),
            "polynomial": poly.canonical(),
        }
        if list_flag:
            data["parking_functions"] = [
                {
                    "pf": pf.text(),
                    "area": pf.stats.area,
                    "dinv": pf.stats.dinv,
                    "sigma": list(pf.stats.sigma),
                    "ides": sorted(pf.stats.ides),
                    "path": pf_to_path(pf, a, b, c).render(),
                }
                for pf in fam
            ]
        print(json.dumps(data, sort_keys=True))
        return 0
    print(f"count: {len(fam)}")
    print(f"polynomial: {poly.display()}")
    if list_flag:
        for pf in fam:
            st = pf.stats
            print(
                f"  {pf.text()} | area={st.area} dinv={st.dinv} "
                f"sigma={''.join(str(v) if v < 10 else f'({v})' for v in st.sigma)} "
                f"ides={sorted(st.ides)} path={pf_to_path(pf, a, b, c).render()}"
            )
    return 0


def cmd_verify(suite: str, n_max: int, fmt: str = "plain", cache_dir: str | None = None) -> int:
    try:
        check_degree(n_max)
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    if cache_dir:
        if not os.path.isdir(cache_dir):
            print(f"usage error: --cache {cache_dir} is not a directory", file=sys.stderr)
            return 2
        for n in range(0, n_max + 1):
            path = os.path.join(cache_dir, f"htilde-{n}.json")
            if os.path.exists(path) and not _load_cached_table(path, n):
                return 1
    try:
        report = run_suite(suite, n_max)
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    if not report.cases:  # an empty grid proves nothing
        print(f"usage error: suite {suite} has no cases at --n-max {n_max}", file=sys.stderr)
        return 2
    if fmt == "json":
        print(report.to_json())
    elif fmt == "csv":
        print(report.to_csv(), end="")
    else:
        print(report.to_plain())
    return 0 if report.passed else 1


# -- argument parsing -------------------------------------------------------


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} needs comma-separated integers, got {text!r}") from None


def _parse_comp_abc(comp_text: str, abc_text: str):
    """(composition, (a, b, c)) from --comp and --abc; ValueError says what is wrong.

    Shared by `inner` and `enumerate`, so both reject the same inputs with the
    same message.
    """
    comp = _parse_ints(comp_text, "--comp")
    if any(part < 1 for part in comp):
        raise ValueError(f"--comp parts must be positive, got {comp_text!r}")
    abc = _parse_ints(abc_text, "--abc")
    if len(abc) != 3:
        raise ValueError("--abc needs exactly three integers")
    if min(abc) < 0 or sum(abc) != sum(comp):
        a, b, c = abc
        raise ValueError(f"(a,b,c)=({a},{b},{c}) must be nonnegative and sum to {sum(comp)}")
    return comp, abc


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtshuffle",
        description="Exact q,t verification of compositional shuffle identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cache = sub.add_parser("build-cache", help="build and validate Macdonald table caches")
    p_cache.add_argument("--n-max", type=int, default=4)
    p_cache.add_argument("--cache", default=None, help=f"cache directory (or ${ENV_CACHE})")

    p_inner = sub.add_parser("inner", help="print the pairing against e_a h_b h_c")
    p_inner.add_argument("--comp", required=True, help="composition, e.g. 3,2")
    p_inner.add_argument("--abc", required=True, help="a,b,c with a+b+c = |comp|")
    p_inner.add_argument("--format", default="plain", choices=("plain", "json", "latex"))

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--n-max", type=int, default=4)
    p_verify.add_argument("--format", default="plain", choices=("plain", "json", "csv"))
    p_verify.add_argument("--cache", default=None, help="warm table cache directory to load first")

    p_enum = sub.add_parser("enumerate", help="list a shuffle-filtered parking family")
    p_enum.add_argument("--comp", required=True)
    p_enum.add_argument("--abc", required=True)
    p_enum.add_argument("--list", action="store_true")
    p_enum.add_argument("--format", default="plain", choices=("plain", "json"))

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if args.command == "build-cache":
        return cmd_build_cache(args.n_max, *_cache_dir(args.cache))
    if args.command == "verify":
        return cmd_verify(args.suite, args.n_max, args.format, args.cache)
    try:
        comp, abc = _parse_comp_abc(args.comp, args.abc)
        check_degree(sum(comp))
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    if args.command == "inner":
        return cmd_inner(comp, *abc, fmt=args.format)
    return cmd_enumerate(comp, *abc, list_flag=args.list, fmt=args.format)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
