import random
from itertools import combinations, permutations, product

import pytest

from qtshuffle.qtfield import Q, QTR_ONE, QTR_ZERO, QtRational, T
from qtshuffle.shapes import compositions_of, partitions_of, recursion_rhs
from qtshuffle.symfunc import QSymFunc, SymFunc, e_, fundamental_expand, h_, hall_inner
from qtshuffle.macdonald import c_word, lhs_inner, nabla
from qtshuffle.parking import (
    FiveStepPath,
    InvalidParkingFunction,
    ParkingFunction,
    PFStats,
    _dead_masks,
    _diag_vectors,
    _ides_fits,
    _ides_index,
    _index,
    enumerate_by_comp,
    enumerate_family,
    is_triple_shuffle,
    m1_split,
    parse_pf,
    pf_to_path,
    phi_inverse,
    phi_map,
    pi_poly,
    rhs_quasisym,
    sieve_expand,
    stats,
    validate_pf,
)


def _abc_triples(n):
    for a in range(n + 1):
        for b in range(n - a + 1):
            yield a, b, n - a - b


# -- validation ---------------------------------------------------------------


def test_running_example_is_valid():
    pf = validate_pf((4, 6, 8, 1, 3, 2, 7, 5), (0, 1, 2, 2, 3, 0, 1, 1))
    assert len(pf) == 8


def test_validation_violations_distinct():
    with pytest.raises(InvalidParkingFunction) as err:
        validate_pf((1, 2), (0, 2))
    assert err.value.code == "diag-jump"
    with pytest.raises(InvalidParkingFunction) as err:
        validate_pf((2, 1), (0, 1))
    assert err.value.code == "rise-order"
    with pytest.raises(InvalidParkingFunction) as err:
        validate_pf((1, 1), (0, 0))
    assert err.value.code == "cars"
    with pytest.raises(InvalidParkingFunction) as err:
        validate_pf((1, 2), (1, 0))
    assert err.value.code == "diag-start"


def test_text_round_trip():
    pf = validate_pf((4, 6, 8, 1, 3, 2, 7, 5), (0, 1, 2, 2, 3, 0, 1, 1))
    assert parse_pf(pf.text()) == pf


# -- statistics ---------------------------------------------------------------


def test_running_example_stats():
    st = stats(validate_pf((4, 6, 8, 1, 3, 2, 7, 5), (0, 1, 2, 2, 3, 0, 1, 1)))
    assert st.area == 10
    assert st.dinv == 4
    assert st.sigma == (3, 1, 8, 5, 7, 6, 2, 4)
    assert st.ides == frozenset({2, 4, 6, 7})
    assert st.dcomp == (5, 3)


def test_small_stats():
    assert stats(validate_pf((1, 2), (0, 1))) == PFStats(1, 0, (2, 1), frozenset({1}), (2,))
    assert stats(validate_pf((2, 1), (0, 0))) == PFStats(0, 0, (1, 2), frozenset(), (1, 1))


def test_dcomp_matches_zero_gaps():
    for alpha in compositions_of(4):
        for pf in enumerate_by_comp(alpha):
            assert pf.stats.dcomp == alpha
            zeros = [i for i, u in enumerate(pf.diags) if u == 0]
            gaps = [
                (zeros[k + 1] if k + 1 < len(zeros) else len(pf)) - zeros[k]
                for k in range(len(zeros))
            ]
            assert tuple(gaps) == alpha


# -- enumeration ----------------------------------------------------------------


def test_total_count_classical():
    # (n+1)^(n-1) parking functions in total
    for n in (1, 2, 3, 4):
        total = sum(1 for alpha in compositions_of(n) for _ in enumerate_by_comp(alpha))
        assert total == (n + 1) ** (n - 1)


def test_enumeration_deterministic_and_unique():
    seen = list(enumerate_by_comp((2, 1)))
    assert seen == list(enumerate_by_comp((2, 1)))
    assert len(set(seen)) == len(seen)


def test_diag_vectors_match_brute_force():
    # the filter of {0..n-1}^n: zeros exactly at the section starts, steps <= +1
    assert list(_diag_vectors(())) == [()]
    for n in range(1, 8):
        classes = {}
        for diags in product(range(n), repeat=n):
            if diags[0] == 0 and all(y <= x + 1 for x, y in zip(diags, diags[1:])):
                zeros = [i for i, d in enumerate(diags) if d == 0] + [n]
                alpha = tuple(j - i for i, j in zip(zeros, zeros[1:]))
                classes.setdefault(alpha, []).append(diags)
        for alpha in compositions_of(n):
            got = list(_diag_vectors(alpha))
            assert got == classes.pop(alpha, [])  # in lex order, as product yields them
            assert len(set(got)) == len(got)
        assert not classes


def test_all_diagonal_class():
    assert sum(1 for _ in enumerate_by_comp((1, 1))) == 2


def test_worked_family_has_six_members():
    fam = list(enumerate_family((3, 2), 1, 2, 2))
    assert len(fam) == 6
    assert pi_poly((3, 2), 1, 2, 2) == T**4 * Q**2 + T**3 * (Q**4 + 2 * Q**3 + 2 * Q**2)


def test_pi_poly_small_values():
    assert pi_poly((1, 1), 0, 1, 1) == 1 + Q
    assert pi_poly((1,), 1, 0, 0) == QTR_ONE
    assert pi_poly((), 0, 0, 0) == QTR_ONE
    assert pi_poly((2,), 0, 2, 0) == QTR_ZERO  # would need two stacked middles


def test_pi_row_matches_the_bucket_scan():
    # the per-composition row against summing the buckets that pass _ides_fits
    for n in range(8):
        for alpha in compositions_of(n):
            for a, b, c in _abc_triples(n):
                terms = {}
                for ides, bucket in _ides_index(alpha).items():
                    if _ides_fits(ides, a, b):
                        for key, count in bucket.items():
                            terms[key] = terms.get(key, 0) + count
                want = QtRational(terms, 1) if terms else QTR_ZERO
                got = pi_poly(alpha, a, b, c)
                assert got == want and got.canonical() == want.canonical(), (alpha, a, b, c)


def _read_by_pi_row(ides, n):
    """At most one element of ides above its least gap g >= 1."""
    g = min(set(range(1, n + 2)) - ides)
    return len([e for e in ides if e > g]) <= 1


def test_pruned_index_is_the_full_index_on_its_live_buckets():
    # _pi_row reads an index whose DP drops each iDes set with two or more
    # elements above its least gap as the set forms; the full index is the oracle
    for n in range(8):
        subsets = [frozenset(S) for k in range(n) for S in combinations(range(1, n), k)]
        dead = _dead_masks(n)
        assert dead == {sum(1 << i for i in S) for S in subsets if not _read_by_pi_row(S, n)}, n
        for alpha in compositions_of(n):
            live = {ides: bucket for ides, bucket in _ides_index(alpha).items() if _read_by_pi_row(ides, n)}
            assert _index(alpha, dead) == live, alpha
    # n = 7 keeps 22 of its 64 iDes sets
    assert len(_dead_masks(7)) == 64 - 22


def test_shuffle_filter():
    assert is_triple_shuffle((4, 5, 9, 10, 3, 11, 6, 7, 12, 2, 8, 1), 3, 5, 4)
    assert is_triple_shuffle((1, 2), 0, 1, 1)
    assert not is_triple_shuffle((1, 2), 2, 0, 0)
    with pytest.raises(ValueError):
        is_triple_shuffle((1, 2), 1, 0, 0)


def test_shuffle_structure_constraints():
    # no M atop M, no B atop B, B tops a column, M sits on an S or the ground
    for alpha in compositions_of(4):
        for a, b, c in _abc_triples(4):
            for pf in enumerate_family(alpha, a, b, c):
                kind = ["S" if v <= a else ("M" if v <= a + b else "B") for v in pf.cars]
                for i in range(1, len(pf)):
                    if pf.diags[i] == pf.diags[i - 1] + 1:
                        below, above = kind[i - 1], kind[i]
                        assert not (below == "M" and above == "M")
                        assert not (below == "B" and above == "B")
                        assert not (below == "B")
                        if above == "M":
                            assert below == "S"


def test_ides_rule_matches_shuffle_definition():
    # every permutation with n <= 7 against every triple: 204,556 pairs
    for n in range(8):
        for sigma in permutations(range(1, n + 1)):
            pos = {v: i for i, v in enumerate(sigma)}
            ides = frozenset(i for i in range(1, n) if pos[i] > pos[i + 1])
            for a, b, c in _abc_triples(n):
                assert _ides_fits(ides, a, b) == is_triple_shuffle(sigma, a, b, c), (
                    sigma, (a, b, c))


def test_ides_rule_matches_the_hall_pairing():
    # for symmetric f = sum c_S F_S, <f, e_a h_b h_c> is the sum of the c_S whose
    # S passes _ides_fits(S, a, b); no parking function is enumerated here
    rng = random.Random(2012)
    fs = [nabla(c_word(p)) for n in range(1, 6) for p in compositions_of(n)]
    for n in range(1, 7):
        for _ in range(3):
            coeffs = {
                lam: Q ** rng.randrange(3) * T ** rng.randrange(3) * rng.randint(-3, 3)
                for lam in partitions_of(n)
            }
            fs.append(SymFunc("schur", coeffs))
    for f in fs:
        n = f.max_degree()
        fq = fundamental_expand(f)
        for a, b, c in _abc_triples(n):
            want = hall_inner(f, e_(a) * h_(b) * h_(c))
            got = QTR_ZERO
            for S, coeff in fq.coeffs.items():
                if _ides_fits(S, a, b):
                    got = got + coeff
            assert got == want, (f, a, b, c)


def test_ides_index_matches_brute_force():
    # pi_poly and rhs_quasisym read one shared index; recount both per parking function
    for n in range(6):
        for alpha in compositions_of(n):
            for a, b, c in _abc_triples(n):
                terms = {}
                for pf in enumerate_family(alpha, a, b, c):
                    key = (pf.stats.dinv, pf.stats.area)
                    terms[key] = terms.get(key, 0) + 1
                assert pi_poly(alpha, a, b, c) == QtRational(terms, 1), (alpha, (a, b, c))
            for a, b, c in [(-1, n, 1), (n + 1, -1, 0), (0, n + 1, -1)]:
                assert pi_poly(alpha, a, b, c) is QTR_ZERO
            coeffs = {}
            for pf in enumerate_by_comp(alpha):
                coeffs[pf.stats.ides] = coeffs.get(pf.stats.ides, QTR_ZERO) + pf.weight()
            assert rhs_quasisym(alpha) == QSymFunc(n, coeffs), alpha


def test_ides_index_matches_the_parking_function_stats():
    # the per-diagonal-vector counts against enumerate_by_comp and PFStats, |alpha| <= 6
    for n in range(7):
        for alpha in compositions_of(n):
            want = {}
            for pf in enumerate_by_comp(alpha):
                bucket = want.setdefault(pf.stats.ides, {})
                key = (pf.stats.dinv, pf.stats.area)
                bucket[key] = bucket.get(key, 0) + 1
            got = _ides_index(alpha)
            assert got == want, alpha
            assert all(type(ides) is frozenset for ides in got), alpha
    with pytest.raises(ValueError, match="parts must be >= 1"):
        _ides_index((0, 2))


def test_ides_index_counts_every_parking_function():
    # the diagonal vectors of size n carry (n + 1)^(n - 1) parking functions
    for n in range(1, 8):
        total = sum(
            count
            for alpha in compositions_of(n)
            for bucket in _ides_index(alpha).values()
            for count in bucket.values()
        )
        assert total == (n + 1) ** (n - 1), n


def test_both_sides_reject_a_bad_sum_before_a_negative_index():
    # a negative index with the wrong total is a size error on both sides
    want = r"must sum to \|alpha\|=2"
    with pytest.raises(ValueError, match=want):
        lhs_inner((2,), -1, 5, 5)
    with pytest.raises(ValueError, match=want):
        pi_poly((2,), -1, 5, 5)
    with pytest.raises(ValueError, match=want):
        list(enumerate_family((2,), -1, 5, 5))


def test_parking_side_checks_parts_then_the_degree_cap_first(monkeypatch):
    # pi_poly and rhs_quasisym check the composition, then the degree cap,
    # before any cache or early return, as lhs_inner does
    import qtshuffle.symfunc as sf

    for side in (lhs_inner, pi_poly):
        with pytest.raises(ValueError, match="parts must be >= 1"):
            side((0, 2), -1, 1, 2)  # a negative index, which would return 0
    with pytest.raises(ValueError, match="parts must be >= 1"):
        rhs_quasisym((0, 2))
    assert pi_poly((2.0, 1), 3, 0, 0) == pi_poly((2, 1), 3, 0, 0)
    pi_poly((4,), 4, 0, 0), rhs_quasisym((4,))  # cached below the cap
    monkeypatch.setattr(sf, "_DEGREE_CAP", 3)
    cap = r"^degree 4 exceeds the configured cap 3$"
    with pytest.raises(ValueError, match=cap):
        pi_poly((4,), 4, 0, 0)
    with pytest.raises(ValueError, match=cap):
        rhs_quasisym((4,))


def test_enumerate_family_checks_parts_then_the_degree_cap_first(monkeypatch):
    # the per-object route refuses what pi_poly refuses, before check_abc
    import qtshuffle.symfunc as sf

    with pytest.raises(ValueError, match="^composition parts must be >= 1"):
        list(enumerate_family((0, 2), -1, 1, 2))  # a negative index, which would return nothing
    monkeypatch.setattr(sf, "_DEGREE_CAP", 3)
    with pytest.raises(ValueError, match=r"^degree 4 exceeds the configured cap 3$"):
        list(enumerate_family((4,), 4, 0, 0))


# -- quasisymmetric side -----------------------------------------------------------


def test_rhs_quasisym_values():
    assert rhs_quasisym((1, 1)) == QSymFunc(2, {frozenset(): QTR_ONE, frozenset({1}): Q})
    assert rhs_quasisym((2,)) == QSymFunc(2, {frozenset({1}): T})


# -- the cycling bijection ----------------------------------------------------------


def test_phi_on_smallest_family():
    fam = list(enumerate_family((2, 1), 1, 1, 1))
    for pf in fam:
        img = phi_map(pf, 1, 1, 1)
        assert pf.stats.area - img.stats.area == 1
        assert pf.stats.dinv - img.stats.dinv == 1


def test_phi_bijection_on_worked_family():
    fam = list(enumerate_family((3, 2), 1, 2, 2))
    images = [phi_map(pf, 1, 2, 2) for pf in fam]
    assert len(set(images)) == 6
    targets = set()
    for beta in compositions_of(2):
        targets |= set(enumerate_family((2,) + beta, 0, 2, 2))
    for beta in compositions_of(1):
        targets |= set(enumerate_family((2,) + beta, 1, 1, 1))
    assert set(images) == targets
    for pf in fam:
        assert phi_inverse(phi_map(pf, 1, 2, 2), 3, (2,), 1, 2, 2) == pf


def _searched_pre_images(image, m, alpha, a, b, c):
    """Every pre-image of a column-case image, by trying each big value u of
    the removed column (phi_inverse's former search)."""
    rest_len = sum(alpha)
    cars = image.cars[rest_len:] + image.cars[:rest_len]
    diags = tuple(d + 1 for d in image.diags[rest_len:]) + image.diags[:rest_len]
    found = []
    for u in range(a + b + 1, len(image) + 3):
        unrel = {v: v if v < a + b else v + 1 if v + 1 < u else v + 2 for v in cars}
        try:
            pre = ParkingFunction((a + b, u) + tuple(unrel[v] for v in cars), (0, 1) + diags)
        except InvalidParkingFunction:
            continue
        st = pre.stats
        if st.dcomp == (m,) + alpha and is_triple_shuffle(st.sigma, a, b, c) and phi_map(pre, a, b, c) == image:
            found.append(pre)
    return found


def test_phi_inverse_column_case_matches_the_search():
    # every pre-image whose first car is the middle a+b, n <= 6: the search
    # finds exactly one candidate, the one phi_inverse computes directly
    checked = 0
    for n in range(2, 7):
        for m in range(2, n + 1):
            for alpha in compositions_of(n - m):
                for pf in enumerate_by_comp((m,) + alpha):
                    top = pf.cars[0]
                    for a in range(top):
                        b, c = top - a, n - top
                        if c < 1 or not is_triple_shuffle(pf.stats.sigma, a, b, c):
                            continue
                        image = phi_map(pf, a, b, c)
                        assert len(image) == n - 2
                        assert _searched_pre_images(image, m, alpha, a, b, c) == [pf]
                        assert phi_inverse(image, m, alpha, a, b, c) == pf
                        checked += 1
    assert checked == 1587


def test_phi_weight_recursion_instance():
    assert pi_poly((3, 2), 1, 2, 2) == recursion_rhs(pi_poly, 3, (2,), 1, 2, 2)


def test_phi_rejects_short_leading_section():
    pf = validate_pf((1, 2), (0, 0))
    with pytest.raises(ValueError):
        phi_map(pf, 0, 1, 1)


# -- the m = 1 split and the sieve ----------------------------------------------------


def test_m1_split_weight_laws():
    for alpha, (a, b, c) in [
        ((1, 1, 1), (1, 1, 1)),
        ((1, 2), (1, 1, 1)),
        ((1, 1), (0, 1, 1)),
        ((1, 2, 1), (1, 2, 1)),
    ]:
        for pf in enumerate_family(alpha, a, b, c):
            tag, img = m1_split(pf, a, b, c)
            w, wi = pf.weight(), img.weight()
            if tag == "S":
                assert w == Q ** (len(alpha) - 1) * wi
            elif tag == "B":
                assert w == wi
            else:
                r = len(sieve_expand(img, a, b - 1, c))
                assert w == Q**r * wi


def test_m1_split_requires_singleton_head():
    with pytest.raises(ValueError):
        m1_split(validate_pf((1, 2), (0, 1)), 0, 1, 1)


def test_sieve_weight_identity_term_by_term():
    # the telescoped weight identity, checked per parking function
    for alpha, (a, b, c) in [((1, 1, 1), (1, 1, 1)), ((1, 2, 1), (1, 1, 2))]:
        for pf in enumerate_family(alpha, a, b, c):
            tag, img = m1_split(pf, a, b, c)
            if tag != "M":
                continue
            rhs = img.weight()
            for i, red in sieve_expand(img, a, b - 1, c):
                rhs = rhs + (Q - 1) * Q ** (i - 1) * red.weight()
            assert pf.weight() == rhs


def test_sieve_empty_when_no_singleton_big():
    pf = validate_pf((1, 2), (0, 1))  # one section of length 2
    assert sieve_expand(pf, 0, 1, 1) == []


def test_sieve_aggregate_small():
    # summing the sieve over a family reassembles the deleted-section sums
    for alpha, (a, b, c) in [((1, 1), (0, 1, 1)), ((2, 1), (1, 1, 1)), ((1, 2, 1), (1, 2, 1))]:
        lhs = QTR_ZERO
        for pf in enumerate_family(alpha, a, b, c):
            for i, red in sieve_expand(pf, a, b, c):
                lhs = lhs + Q ** (i - 1) * red.weight()
        rhs = QTR_ZERO
        for i, part in enumerate(alpha, start=1):
            if part == 1:
                hat = alpha[: i - 1] + alpha[i:]
                rhs = rhs + Q ** (i - 1) * pi_poly(hat, a, b, c - 1)
        assert lhs == rhs, (alpha, (a, b, c), lhs.canonical(), rhs.canonical())


def test_telescoping_geometric_identity():
    for r in range(0, 5):
        geo = QTR_ZERO
        for s in range(r):
            geo = geo + Q**s
        assert Q**r == 1 + (Q - 1) * geo


# -- paths ---------------------------------------------------------------------------


def test_path_single_car():
    assert pf_to_path(validate_pf((1,), (0,)), 1, 0, 0).steps == ("N", "E")


def test_path_two_diagonal_cars():
    assert pf_to_path(validate_pf((2, 1), (0, 0)), 0, 1, 1).steps == ("B", "E", "R", "E")


def test_path_step_counts():
    for alpha, (a, b, c) in [((3, 2), (1, 2, 2)), ((2, 2), (2, 1, 1)), ((1, 1, 1), (1, 1, 1))]:
        for pf in enumerate_family(alpha, a, b, c):
            path = pf_to_path(pf, a, b, c)
            counts = path.counts()
            s2 = counts["S2"]
            assert counts["N"] == a
            assert counts["R"] == b - s2
            assert counts["B"] == c - s2
            assert counts["E"] == len(pf)


def test_path_injective_on_worked_family():
    fam = list(enumerate_family((3, 2), 1, 2, 2))
    paths = {pf_to_path(pf, 1, 2, 2).steps for pf in fam}
    assert len(paths) == 6


def test_path_geometry_validated():
    with pytest.raises(ValueError):
        FiveStepPath(2, ("E", "N", "N", "E"))  # dips below the diagonal
    with pytest.raises(ValueError):
        FiveStepPath(2, ("N", "E"))  # wrong endpoint


# -- recursion ----------------------------------------------------------------------


def test_recursion_base_cases():
    assert pi_poly((1,), 1, 0, 0) == recursion_rhs(pi_poly, 1, (), 1, 0, 0) == QTR_ONE
    assert pi_poly((1, 1, 1), 1, 1, 1) == recursion_rhs(pi_poly, 1, (1, 1), 1, 1, 1)
    assert pi_poly((2, 1), 1, 1, 1) == recursion_rhs(pi_poly, 2, (1,), 1, 1, 1)
