"""Command-line front end: cache management, verification suites, reports.

Suites aggregate the identity registry, the first-section recursion, and
the cross-checks between the symbolic and enumeration pipelines.  Each case
returns the values it compares, as (label, lhs, rhs) triples, and this module
alone judges and renders them: a case's verdict, its two side texts (side_text)
and, on a fail, where the sides first differ (first_difference) are all read
off those values; no report text is parsed back.  A case's run() is _verdict
of its sides, which renders a pass's equal sides once; _run_case reads the
sides again only for a failure's first difference, and keeps the side texts
of a fail or an error only, as no report prints a pass's.  Reports are
deterministic: case order is fixed by case id, and the canonical JSON form
carries no timings, so every run of a suite prints the same bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import cache

from .macdonald import (
    HTildeTable,
    build_htilde,
    check_identity,
    install_table,
    lhs_inner,
    nabla_c_word,
)
from .parking import (
    enumerate_by_comp,
    enumerate_family,
    is_triple_shuffle,
    pf_to_path,
    pi_poly,
    rhs_quasisym,
)
from .qtfield import QTR_ZERO, QtRational
from .shapes import (
    composition_str,
    compositions_of,
    partitions_of,
    recursion_rhs,
)
from .symfunc import QSymFunc, SymFunc, check_degree, fundamental_expand, p_

ENV_CACHE = "QTSHUFFLE_CACHE"


@dataclass
class CaseResult:
    case_id: str
    params: str
    status: str  # pass | fail | error
    lhs: str = ""  # the side texts of a fail, or an error's message; "" for a pass
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


def _sym_canonical(f: SymFunc) -> str:
    fp = f.to_power()
    items = sorted(fp.coeffs.items())
    return "; ".join(f"p{list(lam)}={c.canonical()}" for lam, c in items) or "0"


def _value_text(x) -> str:
    """A compared value as report text: a symmetric function by its power-sum
    coefficients, a scalar canonically, a two-alphabet tensor (cauchy's
    {(lam, rho): coefficient}) key by key, anything else by str()."""
    if isinstance(x, SymFunc):
        return _sym_canonical(x)
    if isinstance(x, QtRational):
        return x.canonical()
    if isinstance(x, dict):
        return "; ".join(f"{k}={v.canonical()}" for k, v in sorted(x.items())) or "0"
    return str(x)


def side_text(sides: list, k: int) -> str:
    """Side k (1 for lhs, 2 for rhs) of (label, lhs, rhs) triples: named values
    as label:text joined by spaces, unnamed ones joined by '; ' ("0" if none)."""
    if sides and sides[0][0] is not None:
        return " ".join(f"{side[0]}:{_value_text(side[k])}" for side in sides)
    return "; ".join(_value_text(side[k]) for side in sides) or "0"


def _value_difference(x, y) -> str:
    """Where two unequal values differ: for two scalars the leading term of the
    reduced x - y; for two symmetric functions the first power-sum partition
    (sorted) whose coefficients differ, and for two quasisymmetric functions
    the first descent set, with both coefficients; otherwise both values."""
    if isinstance(x, QtRational) and isinstance(y, QtRational):
        num, den = (x - y).canonical().split("|")
        return f"lhs - rhs leads with {num.split(' + ')[0]} (denominator {den})"
    if isinstance(x, SymFunc) and isinstance(y, SymFunc):
        letter, a, b = "p", x.to_power().coeffs, y.to_power().coeffs
    elif isinstance(x, QSymFunc) and isinstance(y, QSymFunc):
        letter, (a, b) = "F", ({tuple(sorted(S)): c for S, c in f.coeffs.items()} for f in (x, y))
    else:
        a = b = {}
    for key in sorted(a.keys() | b.keys()):
        u, v = a.get(key, QTR_ZERO), b.get(key, QTR_ZERO)
        if u != v:
            return f"{letter}{list(key)}: lhs {u.canonical()} rhs {v.canonical()}"
    return f"lhs {_value_text(x)} rhs {_value_text(y)}"


def first_difference(sides: list) -> str:
    """Where a fail case's sides first differ: the first unequal triple, named
    by its label (or pair <i> when unnamed and not alone), then where its two
    values differ; "" when every triple is equal."""
    for i, (label, x, y) in enumerate(sides):
        if x != y:
            where = label if label is not None else f"pair {i}" if len(sides) > 1 else None
            diff = _value_difference(x, y)
            return diff if where is None else f"{where}: {diff}"
    return ""


def _verdict(sides: list) -> tuple[bool, str, str]:
    """(all triples equal, lhs text, rhs text) of a case's (label, lhs, rhs) triples.

    Equal values of one type print alike (QtRational and SymFunc equality is
    structural on what side_text prints), so a pass whose triples pair values
    of one type renders its sides once; QTR_ONE against 1 still renders both."""
    ok = all(x == y for _, x, y in sides)
    lhs = side_text(sides, 1)
    if ok and all(type(x) is type(y) for _, x, y in sides):
        return True, lhs, lhs
    return ok, lhs, side_text(sides, 2)


@dataclass(frozen=True)
class _Case:
    case_id: str
    params: str
    sides: object  # () -> list of (label, lhs, rhs): the values this case compares
    run: object = None  # () -> tuple[bool, str, str]: _verdict of sides(); a field, so a copy can wrap it

    def __post_init__(self):
        if self.run is None:
            object.__setattr__(self, "run", self._run_sides)

    def _run_sides(self) -> tuple[bool, str, str]:
        return _verdict(self.sides())


def _ident_case(ident: str, **params) -> _Case:
    pstr = ",".join(f"{k}={v}" for k, v in params.items())
    return _Case(f"{ident}[{pstr}]", pstr, lambda: check_identity(ident, **params))


def _abc_triples(n: int):
    for a in range(n + 1):
        for b in range(n - a + 1):
            yield a, b, n - a - b


# -- suite grids ------------------------------------------------------------


def _cases_macdonald(n_max: int) -> list:
    cases = []
    for n in range(0, n_max + 1):
        def sides(n=n):
            build_htilde(n).verify()  # raises TableInvariantError unless they hold
            return [(None, "invariants hold", "invariants hold")]

        cases.append(_Case(f"htilde-invariants[n={n}]", f"n={n}", sides))
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

    def sides():  # each pipeline against the recursion applied to its own values
        sym = lhs_inner((m,) + alpha, a, b, c)
        comb = pi_poly((m,) + alpha, a, b, c)
        return [
            ("sym", sym, recursion_rhs(lhs_inner, m, alpha, a, b, c)),
            ("comb", comb, recursion_rhs(pi_poly, m, alpha, a, b, c)),
            ("bridge", sym, comb),
        ]

    return _Case(f"recursion[{pstr}]", pstr, sides)


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

    def sides():
        return [(None, lhs_inner(alpha, a, b, c), pi_poly(alpha, a, b, c))]

    return _Case(f"main-theorem[{pstr}]", pstr, sides)


def _cases_main_theorem(n_max: int) -> list:
    cases = []
    for n in range(1, n_max + 1):
        for alpha in compositions_of(n):
            for a, b, c in _abc_triples(n):
                cases.append(_main_theorem_case(alpha, a, b, c))
    return cases


def _cases_shuffle_qsym(n_max: int) -> list:
    cases = []
    for n in range(1, min(n_max, 7) + 1):
        for p in compositions_of(n):
            pstr = f"p={composition_str(p)}"

            def sides(p=p):  # the main grid's cached nabla C_p 1, in the Schur basis
                return [(None, fundamental_expand(nabla_c_word(p)), rhs_quasisym(p))]

            cases.append(_Case(f"shuffle-qsym[{pstr}]", pstr, sides))
    return cases


def _paths_case(alpha, a, b, c, members) -> _Case:
    """members() is the class of alpha, enumerated once for all its triples."""
    pstr = f"alpha={composition_str(alpha)},a={a},b={b},c={c}"

    def sides():
        fam = [pf for pf in members() if is_triple_shuffle(pf.stats.sigma, a, b, c)]
        paths = {pf_to_path(pf, a, b, c).steps for pf in fam}
        # distinct paths against the family (injective), then against the count
        return [
            ("family", len(paths), len(fam)),
            ("inner(q=t=1)", len(paths), lhs_inner(alpha, a, b, c).evaluate(1, 1)),
        ]

    return _Case(f"paths[{pstr}]", pstr, sides)


def _cases_paths(n_max: int) -> list:
    cases = []
    for n in range(1, min(n_max, 6) + 1):
        for alpha in compositions_of(n):
            @cache
            def members(alpha=alpha):
                return list(enumerate_by_comp(alpha))

            for a, b, c in _abc_triples(n):
                cases.append(_paths_case(alpha, a, b, c, members))
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
    """Every case of the suite up to degree n_max; none for a negative n_max,
    as every grid starts at degree 0."""
    if suite != "all" and suite not in _SUITE_BUILDERS:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if n_max < 0:
        return []
    builders = _SUITE_BUILDERS.values() if suite == "all" else [_SUITE_BUILDERS[suite]]
    return [case for builder in builders for case in builder(n_max)]


def _top_degree(suite: str, n_max: int) -> int:
    """The least degree whose grid has the case ids of the grid at n_max: the
    highest degree the suite checks, up to n_max."""
    ids = [case.case_id for case in build_cases(suite, n_max)]
    top = n_max
    while top >= 1 and ids and [case.case_id for case in build_cases(suite, top - 1)] == ids:
        top -= 1
    return top


def _run_case(case: _Case) -> CaseResult:
    t0 = time.perf_counter()
    detail = ""
    try:
        ok, lhs, rhs = case.run()
        status = "pass" if ok else "fail"
        if ok:
            lhs = rhs = ""
        else:
            detail = first_difference(case.sides())
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
        suites = _SUITE_BUILDERS if suite == "all" else [suite]
        short = {s: top for s in suites if (top := _top_degree(s, n_max)) < n_max}
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    if suite in short:  # a report must not claim a degree its grid never reached
        print(f"usage error: suite {suite} checks nothing above degree {short[suite]}", file=sys.stderr)
        return 2
    for s, top in short.items():  # `all` reports n_max, so name the suites that stop below it
        print(f"note: suite {s} checks nothing above degree {top}", file=sys.stderr)
    if cache_dir:
        if not os.path.isdir(cache_dir):
            print(f"usage error: --cache {cache_dir} is not a directory", file=sys.stderr)
            return 2
        for n in range(0, n_max + 1):
            path = os.path.join(cache_dir, f"htilde-{n}.json")
            if os.path.exists(path) and not _load_cached_table(path, n):
                return 1
    report = run_suite(suite, n_max)
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
