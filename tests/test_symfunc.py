from fractions import Fraction
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from qtshuffle.qtfield import Q, QTR_ONE, QTR_ZERO, T, qtr
from qtshuffle.shapes import capital_m, cell_stats, cells, partition_invariants, partitions_of, zmu
from qtshuffle.symfunc import (
    _syt_descent_counts,
    BASES,
    Alphabet,
    QSymFunc,
    SymFunc,
    e_,
    extract_z,
    fundamental_expand,
    gessel_Q,
    h_,
    hall_inner,
    monomial_restriction,
    omega_involution,
    omega_series,
    p_,
    plethysm,
    plethysm_eval,
    s_,
    skew_by_e1,
    star_inner,
)

M = capital_m()


# -- basis conversions -------------------------------------------------------


def test_h2_and_e2_in_power():
    assert h_(2).to_power() == SymFunc("p", {(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)})
    assert e_(2).to_power() == SymFunc("p", {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)})


def test_s21_in_homogeneous():
    assert s_((2, 1)).convert("homogeneous") == h_(2) * h_(1) - h_(3)


def test_newton_matrices_are_inverse():
    # h -> p and p -> h are built separately from Newton's identities; their
    # product is the identity in every degree up to the cap
    from qtshuffle.symfunc import _DEGREE_CAP, _basis_data

    for n in range(_DEGREE_CAP + 1):
        data = _basis_data(n)
        h_to_p, p_to_h = data.to_p["homogeneous"], data.from_p["homogeneous"]
        for first, second in ((h_to_p, p_to_h), (p_to_h, h_to_p)):
            for lam, row in first.items():
                prod: dict = {}
                for rho, c in row.items():
                    for mu, d in second[rho].items():
                        prod[mu] = prod.get(mu, 0) + c * d
                assert {mu: v for mu, v in prod.items() if v} == {lam: 1}


def test_round_trip_all_bases():
    f = s_((2, 1)) + h_(3).scale(Q) - e_(2).scale(T) * e_(1)
    ref = f.convert("power")
    for basis in ("elementary", "homogeneous", "monomial", "schur"):
        assert f.convert(basis).convert("power") == ref


def test_negative_index_bases_are_zero():
    assert e_(-1).is_zero()
    assert h_(-2).is_zero()


def test_float_coefficients_are_refused():
    # a float is no exact scalar, as QtRational(0.1) already says
    with pytest.raises(TypeError):
        SymFunc("power", {(1,): 0.1})
    with pytest.raises(TypeError):
        QSymFunc(2, {(1,): 0.5})


# -- scalar products ----------------------------------------------------------


def test_hall_power_diagonal():
    assert hall_inner(p_((2,)), p_((2,))) == qtr(2)
    assert hall_inner(p_((1, 1)), p_((1, 1))) == qtr(2)
    assert hall_inner(p_((2,)), p_((1, 1))) == QTR_ZERO
    assert hall_inner(h_(2), h_(2)) == QTR_ONE


def _hall_oracle(f, g):
    """Independent route: <h_lam, m_mu> = delta."""
    fh = f.convert("homogeneous")
    gm = g.convert("monomial")
    total = QTR_ZERO
    for lam, c in fh.coeffs.items():
        d = gm.coeffs.get(lam)
        if d is not None:
            total = total + c * d
    return total


def test_hall_against_hm_duality_oracle():
    probes = [h_(3), e_(3), s_((2, 1)), p_((2, 1)), s_((1, 1, 1)), h_(2) * e_(1)]
    for f in probes:
        for g in probes:
            assert hall_inner(f, g) == _hall_oracle(f, g)


def test_star_values():
    assert star_inner(p_((1,)), p_((1,))) == M
    assert star_inner(p_((2,)), p_((2,))) == -2 * (1 - T**2) * (1 - Q**2)


def test_schur_orthonormality():
    for n in (1, 2, 3, 4):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                want = QTR_ONE if lam == mu else QTR_ZERO
                assert hall_inner(s_(lam), s_(mu)) == want


# -- omega ---------------------------------------------------------------------


def test_omega_examples():
    assert omega_involution(p_((2,))) == -p_((2,))
    assert omega_involution(h_(3)) == e_(3)
    assert omega_involution(omega_involution(s_((2, 1)))) == s_((2, 1))


def test_omega_sends_schur_to_conjugate():
    assert omega_involution(s_((3, 1))) == s_((2, 1, 1))


# -- plethysm -------------------------------------------------------------------


def test_plethysm_examples():
    got = plethysm(p_((2,)), Alphabet.X(M.inverse()))
    assert got == p_((2,)).scale(((1 - T**2) * (1 - Q**2)).inverse())
    assert plethysm(p_((3,)), -Alphabet.X(eps=True)) == p_((3,))
    assert plethysm_eval(h_(2), 1 - Q) == 1 - Q
    assert plethysm_eval(h_(0), 1 - Q) == QTR_ONE
    assert plethysm_eval(e_(1), partition_invariants((2, 1)).B) == 1 + Q + T


def test_plethysm_with_x_is_identity():
    for f in (s_((2, 1)), h_(3), e_(2) * h_(1)):
        assert plethysm(f, Alphabet.X()) == f.to_power()


def test_plethysm_negated_alphabet_is_signed_omega():
    for f in (s_((2, 1)), h_(4), e_(3)):
        k = f.max_degree()
        want = omega_involution(f).scale((-1) ** k)
        assert plethysm(f, -Alphabet.X()) == want


def test_plethysm_pure_scalar_gives_degree_zero():
    out = plethysm(h_(2), Alphabet.scalar(1 - Q))
    assert out.degrees() == (0,)
    assert out.coeffs[()] == 1 - Q


def test_plethysm_is_ring_hom():
    A = Alphabet.X(Q) + Alphabet.scalar(T, eps=True)
    f, g = h_(2), e_(2) + p_((1,))
    assert plethysm(f * g, A) == plethysm(f, A) * plethysm(g, A)
    assert plethysm(f + g, A) == plethysm(f, A) + plethysm(g, A)


def test_h_of_one_minus_q_values():
    one_minus_q = 1 - Q
    assert plethysm_eval(h_(0), one_minus_q) == QTR_ONE
    for s in (1, 2, 3, 4):
        assert plethysm_eval(h_(s), one_minus_q) == one_minus_q


# -- omega series ----------------------------------------------------------------


def test_omega_series_homogeneous_kernel():
    om = omega_series(Alphabet.X(), 4)
    for m in range(5):
        assert om.homogeneous_component(m) == h_(m).to_power()


def test_omega_series_elementary_kernel():
    om = omega_series(-Alphabet.X(eps=True), 4)
    for m in range(5):
        assert om.homogeneous_component(m) == e_(m).to_power()


@pytest.mark.parametrize(
    "kernel",
    [
        Alphabet.X(),
        -Alphabet.X(eps=True),
        Alphabet.X(-(Q * (1 - T)).inverse(), eps=True),
        Alphabet.X(-(1 - T).inverse()),
    ],
    ids=["X", "-eps X", "-eps X/(q(1-t))", "-X/(1-t)"],
)
def test_omega_series_times_its_negative_is_one(kernel):
    # the four creation-operator kernels: Omega[K] Omega[-K] = 1 through degree 5
    prod = omega_series(kernel, 5) * omega_series(-kernel, 5)
    for m in range(6):
        assert prod.homogeneous_component(m) == (SymFunc.one() if m == 0 else SymFunc.zero())


def test_omega_series_takes_x_terms_only():
    with pytest.raises(ValueError):
        omega_series(Alphabet.X() + Alphabet.scalar(Q), 2)


def test_extract_z_pairs_degrees():
    # h_2[X + 1/z] = h_2 + h_1 / z + 1 / z^2, and Omega[zX] = sum z^m h_m
    shift = Alphabet.X() + Alphabet.scalar(1)
    for a, want in ((0, h_(2)), (-1, h_(1)), (-2, SymFunc.one()), (1, SymFunc.zero())):
        assert extract_z(h_(2), shift, Alphabet(), a) == want
    # [z^1] (h_2 + h_1 / z + 1 / z^2) (1 + z h_1 + z^2 h_2 + z^3 h_3)
    want = h_(2) * h_(1) + h_(1) * h_(2) + h_(3)
    assert extract_z(h_(2), shift, Alphabet.X(), 1) == want


# -- skewing ----------------------------------------------------------------------


def test_skew_examples():
    assert skew_by_e1(h_(2)) == h_(1)
    assert skew_by_e1(s_((2, 1))) == s_((2,)) + s_((1, 1))
    assert skew_by_e1(SymFunc.one()).is_zero()


def test_skew_is_hall_adjoint_of_e1():
    for d in (1, 2, 3, 4):
        for lam in partitions_of(d):
            for mu in partitions_of(d - 1):
                lhs = hall_inner(skew_by_e1(s_(lam)), s_(mu))
                rhs = hall_inner(s_(lam), e_(1) * s_(mu))
                assert lhs == rhs


def test_skew_matches_schur_corner_oracle():
    from qtshuffle.shapes import corners

    for d in (2, 3, 4, 5):
        for lam in partitions_of(d):
            want = SymFunc.zero()
            for nu in corners(lam)[0]:
                want = want + s_(nu)
            assert skew_by_e1(s_(lam)) == want


# -- quasisymmetric bridge ----------------------------------------------------------


def test_fundamental_single_row_and_column():
    assert fundamental_expand(s_((2,))) == QSymFunc(2, {frozenset(): QTR_ONE})
    assert fundamental_expand(s_((1, 1))) == QSymFunc(2, {frozenset({1}): QTR_ONE})


def _syt_descents_by_permutations(lam):
    # every word of 1..n written row by row from the bottom row, kept when its
    # rows and columns increase; i is a descent when i + 1 lies in a higher row
    n = sum(lam)
    counts = {}
    for w in permutations(range(1, n + 1)):
        rows, k = [], 0
        for part in lam:
            rows.append(w[k:k + part])
            k += part
        if any(row[j] > row[j + 1] for row in rows for j in range(len(row) - 1)):
            continue
        if any(rows[r][j] < rows[r - 1][j] for r in range(1, len(rows)) for j in range(len(rows[r]))):
            continue
        rowof = {v: r for r, row in enumerate(rows) for v in row}
        des = frozenset(i for i in range(1, n) if rowof[i + 1] > rowof[i])
        counts[des] = counts.get(des, 0) + 1
    return counts


def test_syt_descent_counts_match_brute_force():
    for n in range(8):
        for lam in partitions_of(n):
            got = _syt_descent_counts(lam)
            assert got == _syt_descents_by_permutations(lam), lam
            assert list(got) == sorted(got, key=sorted), lam


def test_syt_counts_match_the_hook_length_formula():
    for n in range(9):
        for lam in partitions_of(n):
            hooks = prod(arm + leg + 1 for arm, leg, _, _ in (cell_stats(lam, c) for c in cells(lam)))
            assert sum(_syt_descent_counts(lam).values()) == factorial(n) // hooks, lam


def test_gessel_examples():
    assert gessel_Q(set(), 2, 2) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert gessel_Q({1}, 2, 2) == {(1, 1): 1}
    assert gessel_Q({1, 2}, 3, 3) == {(1, 1, 1): 1}


def test_gessel_full_descents_is_elementary():
    n, nvars = 3, 4
    full = gessel_Q(set(range(1, n)), n, nvars)
    restriction = monomial_restriction(e_(n), nvars)
    assert set(full) == set(restriction)
    for k, v in full.items():
        assert restriction[k] == qtr(v)


def test_fundamental_matches_monomial_restriction():
    probes = [h_(3), e_(3), s_((2, 1)), s_((2, 2)), h_(2) * e_(2)]
    for f in probes:
        n = f.max_degree()
        qs = fundamental_expand(f)
        assert qs.monomials(n + 1) == monomial_restriction(f, n + 1)


def test_fundamental_requires_homogeneous():
    with pytest.raises(ValueError):
        fundamental_expand(h_(1) + h_(2))


# -- randomized laws ------------------------------------------------------------------

_shapes = [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


@st.composite
def symfuncs(draw):
    coeffs = {}
    for lam in draw(st.lists(st.sampled_from(_shapes), min_size=1, max_size=3)):
        coeffs[lam] = draw(st.sampled_from([QTR_ONE, Q, T, 1 + Q, Q - T, qtr(2)]))
    return SymFunc("power", coeffs)


@settings(max_examples=25, deadline=None)
@given(symfuncs(), symfuncs())
def test_hall_star_duality(f, g):
    # <f, g> = <f, omega g*>_* with g* = g[X/M]
    gstar = plethysm(g, Alphabet.X(M.inverse()))
    assert hall_inner(f, g) == star_inner(f, omega_involution(gstar))


@settings(max_examples=25, deadline=None)
@given(symfuncs())
def test_star_phi_inversion(f):
    # f*[MX] = f and (f[MX])* = f
    fstar = plethysm(f, Alphabet.X(M.inverse()))
    fphi = plethysm(f, Alphabet.X(M))
    assert plethysm(fstar, Alphabet.X(M)) == f
    assert plethysm(fphi, Alphabet.X(M.inverse())) == f


@settings(max_examples=20, deadline=None)
@given(symfuncs(), symfuncs())
def test_omega_is_hall_isometry(f, g):
    assert hall_inner(omega_involution(f), omega_involution(g)) == hall_inner(f, g)


_probe_shapes = [lam for d in range(5) for lam in partitions_of(d)]


@st.composite
def probes(draw):
    """Symmetric functions of degree <= 4 in any basis, some coefficients with
    denominators in q and t."""
    coeffs = {}
    for lam in draw(st.lists(st.sampled_from(_probe_shapes), min_size=1, max_size=4)):
        coeffs[lam] = draw(st.sampled_from([QTR_ONE, Q, T - 2, 1 + Q, Q / (1 - T), M.inverse(), qtr(Fraction(-3, 2))]))
    return SymFunc(draw(st.sampled_from(BASES)), coeffs)


@settings(max_examples=30, deadline=None)
@given(probes(), probes())
def test_trusted_results_equal_the_public_constructor(f, g):
    # results built by the trusted constructor hold what the public one,
    # which validates keys and coefficients and drops zeros, would hold
    shift = Alphabet.X() - Alphabet.scalar(1 - Q, eps=True)
    outputs = [f.to_power(), f * g, f + g, f - f, f.scale(Q / (1 - T)), f.homogeneous_component(2)]
    outputs += [f.convert(basis) for basis in BASES]
    outputs += [plethysm(f, A) for A in (Alphabet.X(M), shift, Alphabet.X(-1, eps=True))]
    outputs += [extract_z(f, shift, kernel, a) for kernel in (Alphabet.X(), Alphabet.X(Q - 1)) for a in (-2, 0, 1)]
    for out in outputs:
        public = SymFunc(out.basis, dict(out.coeffs))
        assert public.basis == out.basis and public.coeffs == out.coeffs
