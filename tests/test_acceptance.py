"""Acceptance criteria, one test per criterion, exact comparisons throughout.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the summary
lines).  Everything is computed with exact rational-function arithmetic, so
every assertion is an equality, never a tolerance.
"""

import time

from qtshuffle.qtfield import Q, QTR_ONE, QTR_ZERO, T, parse_rational, swap_qt
from qtshuffle.shapes import compositions_of, partition_invariants, partitions_of, recursion_rhs
from qtshuffle.symfunc import SymFunc, e_, fundamental_expand, h_, p_, star_inner
from qtshuffle.macdonald import (
    HTildeTable,
    build_htilde,
    c_word,
    check_identity,
    lhs_inner,
    nabla,
)
from qtshuffle.parking import (
    _ides_fits,
    enumerate_by_comp,
    enumerate_family,
    is_triple_shuffle,
    m1_split,
    pf_to_path,
    phi_inverse,
    phi_map,
    pi_poly,
    rhs_quasisym,
    sieve_expand,
)
from qtshuffle.cli import run_suite, side_text


def _ok(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def _abc_triples(n: int):
    for a in range(n + 1):
        for b in range(n - a + 1):
            yield a, b, n - a - b


def test_criterion_01_worked_example():
    t0 = time.perf_counter()
    want = T**4 * Q**2 + T**3 * (Q**4 + 2 * Q**3 + 2 * Q**2)
    symbolic = lhs_inner((3, 2), 1, 2, 2)
    family = list(enumerate_family((3, 2), 1, 2, 2))
    combinatorial = pi_poly((3, 2), 1, 2, 2)
    elapsed = time.perf_counter() - t0
    assert symbolic == want
    assert combinatorial == want
    assert len(family) == 6
    assert elapsed < 10.0, f"worked example took {elapsed:.1f}s"
    _ok(1, f"worked example via both pipelines, 6 parking functions, {elapsed:.2f}s")


def test_criterion_02_main_theorem_n_le_6():
    checked = 0
    for n in range(1, 7):
        for alpha in compositions_of(n):
            for a, b, c in _abc_triples(n):
                lhs = lhs_inner(alpha, a, b, c)
                rhs = pi_poly(alpha, a, b, c)
                assert lhs == rhs, (alpha, (a, b, c), lhs.canonical(), rhs.canonical())
                checked += 1
    _ok(2, f"main identity on {checked} (composition, a,b,c) instances, n <= 6")


def test_criterion_03_shuffle_qsym_n_le_6():
    checked = 0
    for n in range(1, 7):
        for p in compositions_of(n):
            lhs = fundamental_expand(nabla(c_word(p)))
            rhs = rhs_quasisym(p)
            assert lhs == rhs, p
            checked += 1
    _ok(3, f"quasisymmetric refinement on {checked} compositions, n <= 6")


def test_criterion_04_en_decomposition_n_le_7():
    for n in range(1, 8):
        total = SymFunc.zero()
        for p in compositions_of(n):
            total = total + c_word(p)
        assert total == e_(n), n
    _ok(4, "creation-word decomposition of e_n for n <= 7")


def test_criterion_05_table_invariants_n_le_6():
    for n in range(0, 7):
        table = build_htilde(n)
        table.verify()
        for mu in partitions_of(n):
            diag = star_inner(table.power[mu], table.power[mu])
            assert diag == partition_invariants(mu).w, mu
    _ok(5, "orthogonality, normalization, and Gram-diagonal norms for n <= 6")


def test_criterion_06_identity_registry():
    count = 0

    def check(ident, **params):
        nonlocal count
        sides = check_identity(ident, **params)
        assert all(x == y for _, x, y in sides), (ident, params, side_text(sides, 1), side_text(sides, 2))
        count += 1

    for n in range(1, 5):
        check("cauchy", n=n)
    shapes4 = [mu for d in range(1, 5) for mu in partitions_of(d)]
    for alpha in shapes4:
        for beta in shapes4:
            check("sym-ab", alpha=alpha, beta=beta)
    for n in range(1, 6):
        for mu in partitions_of(n):
            check("pieri-rel", mu=mu)
            for k in range(0, 4):
                check("sum-c", mu=mu, k=k)
                check("sum-d", nu=mu, k=k)
    for n in range(1, 6):
        for k in range(0, n + 1):
            check("exp-abc", n=n, k=k)
        for r in range(0, n + 1):
            check("reproducing", fname="e", r=r, lam=None, n=n)
            check("reproducing", fname="h", r=r, lam=None, n=n)
        for d in range(1, n + 1):
            for lam in partitions_of(d):
                check("reproducing", fname="s", r=d, lam=lam, n=n)
    for n in range(1, 7):
        for mu in partitions_of(n):
            for r in range(0, n + 1):
                check("erh", mu=mu, r=r)
    probes = [("1", SymFunc.one())] + [
        (f"p{list(lam)}", p_(lam)) for d in range(1, 4) for lam in partitions_of(d)
    ]
    for tag, P in probes:
        for a in (1, 2):
            for b in (1, 2):
                check("commute", a=a, b=b, P=P, tag=tag)
        for a in range(-3, 3):
            for b in (1, 2, 3):
                check("commutator", a=a, b=b, P=P, tag=tag)
    for n in range(1, 6):  # m >= 1 forces the lemma31 degree to stay below 6
        for a, b, c in _abc_triples(n):
            check("lemma31", a=a, b=b, c=c)
    for n in range(1, 6):
        for m in range(1, min(n, 6 - n) + 1):
            for d in range(0, min(3, 6 - n) + 1):
                for nu in partitions_of(d):
                    check("lemma32", m=m, nu=nu, n=n)
    for n in range(1, 7):
        for m in range(1, n + 1):
            for a in range(0, n + 1):
                for b in range(0, n - a + 1):
                    check("prop31", m=m, a=a, b=b, n=n)
                    check("thm31", m=m, a=a, b=b, n=n)
                    check("thm32", m=m, a=a, b=b, n=n)
                    check("thm21", m=m, a=a, b=b, c=n - a - b)
    _ok(6, f"identity registry, {count} instances at the stated bounds")


def test_criterion_07_recursions_four_way():
    checked = 0
    for n in range(1, 7):
        for m in range(1, n + 1):
            for alpha in compositions_of(n - m):
                for a, b, c in _abc_triples(n):
                    # the four values coincide: each pipeline's value, and the
                    # recursion applied to that pipeline's own values
                    sym = lhs_inner((m,) + alpha, a, b, c)
                    sym_rhs = recursion_rhs(lhs_inner, m, alpha, a, b, c)
                    comb = pi_poly((m,) + alpha, a, b, c)
                    comb_rhs = recursion_rhs(pi_poly, m, alpha, a, b, c)
                    assert sym == sym_rhs == comb == comb_rhs, (m, alpha, a, b, c)
                    checked += 1
    _ok(7, f"both recursions, symbolic and combinatorial, {checked} instances")


def _by_ides(pfs):
    """{iDes: [parking functions]}: a class grouped once, so that each (a, b, c)
    filter reads _ides_fits per group (tests/test_parking.py checks it against
    is_triple_shuffle) instead of one word scan per parking function."""
    groups = {}
    for pf in pfs:
        groups.setdefault(pf.stats.ides, []).append(pf)
    return groups


def _fitting(groups, a, b, c):
    if min(a, b, c) < 0:
        return []
    return [pf for ides, pfs in groups.items() if _ides_fits(ides, a, b) for pf in pfs]


def test_criterion_08_phi_bijection_and_sieve():
    small_classes = {
        alpha: _by_ides(enumerate_by_comp(alpha))
        for d in range(0, 7)
        for alpha in compositions_of(d)
    }

    def members(alpha, a, b, c):
        cls = small_classes.get(alpha)
        return _fitting(cls if cls is not None else _by_ides(enumerate_by_comp(alpha)), a, b, c)

    bijections = 0
    for n in range(2, 8):
        for m in range(2, n + 1):
            for alpha in compositions_of(n - m):
                source = _by_ides(enumerate_by_comp((m,) + alpha))
                for a, b, c in _abc_triples(n):
                    mem = _fitting(source, a, b, c)
                    imgs_short, imgs_long = [], []
                    for pf in mem:
                        img = phi_map(pf, a, b, c)
                        assert pf.stats.area - img.stats.area == m - 1
                        assert pf.stats.dinv - img.stats.dinv == len(alpha)
                        (imgs_long if len(img) == n - 1 else imgs_short).append(img)
                        assert phi_inverse(img, m, alpha, a, b, c) == pf
                    target_long = set()
                    if a >= 1:
                        for beta in compositions_of(m - 1):
                            target_long.update(members(alpha + beta, a - 1, b, c))
                    target_short = set()
                    if b >= 1 and c >= 1:
                        for beta in compositions_of(m - 2):
                            target_short.update(members(alpha + beta, a, b - 1, c - 1))
                    assert len(set(imgs_long)) == len(imgs_long)
                    assert len(set(imgs_short)) == len(imgs_short)
                    assert set(imgs_long) == target_long, (m, alpha, a, b, c)
                    assert set(imgs_short) == target_short, (m, alpha, a, b, c)
                    bijections += 1

    # the telescoped weight identity, term by term, for leading singleton parts
    weight_terms = 0
    for n in range(2, 8):
        for alpha in compositions_of(n - 1):
            source = tuple(enumerate_by_comp((1,) + alpha))
            for a, b, c in _abc_triples(n):
                if b < 1:
                    continue
                for pf in source:
                    if pf.cars[0] != a + b or not _ides_fits(pf.stats.ides, a, b):
                        continue
                    tag, img = m1_split(pf, a, b, c)
                    assert tag == "M"
                    rhs = img.weight()
                    for i, red in sieve_expand(img, a, b - 1, c):
                        rhs = rhs + (Q - 1) * Q ** (i - 1) * red.weight()
                    assert pf.weight() == rhs, pf.text()
                    weight_terms += 1

    # the sieve aggregate over whole families, for compositions with a singleton part
    aggregates = 0
    for n in range(1, 7):
        for alpha in compositions_of(n):
            if 1 not in alpha:
                continue
            for a, b, c in _abc_triples(n):
                lhs = QTR_ZERO
                for pf in members(alpha, a, b, c):
                    for i, red in sieve_expand(pf, a, b, c):
                        lhs = lhs + Q ** (i - 1) * red.weight()
                rhs = QTR_ZERO
                for i, part in enumerate(alpha, start=1):
                    if part == 1:
                        hat = alpha[: i - 1] + alpha[i:]
                        rhs = rhs + Q ** (i - 1) * pi_poly(hat, a, b, c - 1)
                assert lhs == rhs, (alpha, a, b, c)
                aggregates += 1
    _ok(8, f"{bijections} bijection grids, {weight_terms} weight terms, {aggregates} sieve sums")


def test_criterion_09_specializations_n_le_6():
    for n in range(1, 7):
        nabla_en = nabla(e_(n))
        from qtshuffle.symfunc import hall_inner

        # q,t-Catalan: decreasing diagonal words
        catalan = hall_inner(nabla_en, e_(n))
        enum = QTR_ZERO
        for alpha in compositions_of(n):
            enum = enum + pi_poly(alpha, n, 0, 0)
        assert catalan == enum, n
        assert swap_qt(catalan) == catalan, n
        # two-segment specializations, all k
        for k in range(0, n + 1):
            lhs_eh = hall_inner(nabla_en, e_(k) * h_(n - k))
            lhs_hh = hall_inner(nabla_en, h_(k) * h_(n - k))
            rhs_eh = QTR_ZERO
            rhs_hh = QTR_ZERO
            for alpha in compositions_of(n):
                rhs_eh = rhs_eh + pi_poly(alpha, k, n - k, 0)
                rhs_hh = rhs_hh + pi_poly(alpha, 0, k, n - k)
            assert lhs_eh == rhs_eh, (n, k)
            assert lhs_hh == rhs_hh, (n, k)
    _ok(9, "q,t-Catalan with q<->t symmetry and both two-segment forms, n <= 6")


def test_criterion_10_path_conversion_n_le_6():
    grids = 0
    for n in range(1, 7):
        for alpha in compositions_of(n):
            members = list(enumerate_by_comp(alpha))  # the class, read once for every triple
            for a, b, c in _abc_triples(n):
                fam = [pf for pf in members if is_triple_shuffle(pf.stats.sigma, a, b, c)]
                paths = {pf_to_path(pf, a, b, c).steps for pf in fam}
                assert len(paths) == len(fam), (alpha, a, b, c)
                expected = lhs_inner(alpha, a, b, c).evaluate(1, 1)
                assert len(paths) == expected, (alpha, a, b, c)
                grids += 1
    _ok(10, f"path conversion injective with matching counts on {grids} families")


def test_criterion_11_base_cases():
    for n in range(1, 7):
        assert lhs_inner((1,) * n, 0, n, 0) == QTR_ONE, n
    for n in (2, 3):
        assert nabla(c_word((1,) * n)) == build_htilde(n).power[(n,)], n
    assert lhs_inner((1,), 1, 0, 0) == QTR_ONE
    assert lhs_inner((1,), 0, 1, 0) == QTR_ONE
    _ok(11, "column-word and single-car base cases")


def test_criterion_12_engineering(tmp_path):
    # cache round trip is bit-exact and revalidates invariants on load
    table = build_htilde(4)
    p1 = tmp_path / "t4.json"
    table.save(str(p1))
    loaded = HTildeTable.load(str(p1))  # verify() runs inside
    p2 = tmp_path / "t4-again.json"
    loaded.save(str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    for mu in partitions_of(4):
        for lam, c in table[mu].coeffs.items():
            assert parse_rational(c.canonical()) == c
    # reports carry no timings, so two runs print the same bytes
    r1 = run_suite("shuffle-qsym", 4)
    r2 = run_suite("shuffle-qsym", 4)
    assert r1.passed and r2.passed
    assert r1.to_json() == r2.to_json()
    _ok(12, "bit-exact cache round trip and deterministic reports")
