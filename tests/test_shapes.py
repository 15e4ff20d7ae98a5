from itertools import permutations
from math import factorial

import pytest

from qtshuffle.qtfield import Q, QTR_ONE, QTR_ZERO, T
from qtshuffle.shapes import (
    add_strip,
    capital_m,
    cell_stats,
    compositions_of,
    conjugate,
    corners,
    count_fillings,
    parse_composition,
    parse_partition,
    partition_invariants,
    partition_str,
    partitions_of,
    composition_str,
    remove_part,
    remove_strip,
    zmu,
)

M = capital_m()


def test_enumerate_counts():
    assert len(partitions_of(4)) == 5
    assert len(compositions_of(3)) == 4
    assert compositions_of(0) == ((),)
    assert compositions_of(-1) == ()


def test_enumeration_is_sorted_and_duplicate_free():
    for n in range(8):
        parts = partitions_of(n)
        assert len(set(parts)) == len(parts)
        assert all(sum(p) == n for p in parts)
        comps = compositions_of(n)
        assert len(set(comps)) == len(comps)
        assert list(comps) == sorted(comps)
        if n >= 1:
            assert len(comps) == 2 ** (n - 1)


def test_conjugate_involution():
    for n in range(8):
        for mu in partitions_of(n):
            assert conjugate(conjugate(mu)) == mu


@pytest.mark.parametrize(
    "cell,expected",
    [((0, 0), (2, 1, 0, 0)), ((1, 0), (1, 1, 1, 0)), ((2, 0), (0, 0, 2, 0))],
)
def test_cell_stats_32(cell, expected):
    assert cell_stats((3, 2), cell) == expected


def test_cell_stats_outside_raises():
    with pytest.raises(ValueError):
        cell_stats((3, 2), (2, 1))


def test_invariants_single_cell():
    inv = partition_invariants((1,))
    assert inv.w == M
    assert inv.T == QTR_ONE
    assert inv.B == QTR_ONE
    assert inv.Pi == QTR_ONE


def test_invariants_21():
    inv = partition_invariants((2, 1))
    assert inv.T == Q * T
    assert inv.B == 1 + Q + T
    assert inv.Pi == (1 - Q) * (1 - T)


def test_invariants_row2():
    inv = partition_invariants((2,))
    assert inv.T == Q
    assert inv.B == 1 + Q
    assert inv.nmu == 0
    assert inv.nmu_conj == 1


def test_invariants_empty():
    inv = partition_invariants(())
    assert inv.B == QTR_ZERO
    assert inv.Pi == QTR_ONE
    assert inv.T == QTR_ONE
    assert inv.w == QTR_ONE
    assert inv.D == -QTR_ONE


def test_d_is_mb_minus_one():
    for n in range(7):
        for mu in partitions_of(n):
            inv = partition_invariants(mu)
            assert inv.D == M * inv.B - 1


def test_corners_examples():
    assert corners((2, 1))[0] == ((1, 1), (2,))
    assert corners((1,))[1] == ((2,), (1, 1))
    assert corners(()) == ((), ((1,),))


def test_corner_counts_match_distinct_parts():
    for n in range(1, 8):
        for mu in partitions_of(n):
            removable, addable = corners(mu)
            assert len(removable) == len(set(mu))
            assert len(addable) == len(set(mu)) + 1


def _is_strip(outer, inner, vertical):
    """outer contains inner and no two cells of outer / inner share a column
    (a row, when vertical)."""
    if len(inner) > len(outer) or any(x < y for x, y in zip(outer, inner)):
        return False
    if not vertical:
        outer, inner = conjugate(outer), conjugate(inner)
    return all(x - y <= 1 for x, y in zip(outer, inner + (0,) * len(outer)))


@pytest.mark.parametrize("vertical", [False, True])
def test_strips_match_the_containment_filter(vertical):
    for n in range(9):
        for lam in partitions_of(n):
            for k in range(-1, 10):
                added = add_strip(lam, k, vertical)
                removed = remove_strip(lam, k, vertical)
                assert len(set(added)) == len(added) and len(set(removed)) == len(removed)
                if n + k <= 8:
                    want = {kappa for kappa in partitions_of(n + k) if _is_strip(kappa, lam, vertical)}
                    assert set(added) == want, (lam, k)
                want = {mu for mu in partitions_of(n - k) if _is_strip(lam, mu, vertical)}
                assert set(removed) == want, (lam, k)


def test_remove_part():
    assert remove_part((3, 1, 2, 1), 2) == (3, 2, 1)
    assert remove_part((1, 2, 1), 1) == (2, 1)
    assert remove_part((1,), 1) == ()
    with pytest.raises(IndexError):
        remove_part((1, 2), 3)


def test_n_of_mu_three_ways():
    # row formula == sum of legs == sum of colegs
    for n in range(9):
        for mu in partitions_of(n):
            inv = partition_invariants(mu)
            legs = colegs = 0
            for row, part in enumerate(mu):
                for col in range(part):
                    arm, leg, coarm, coleg = cell_stats(mu, (col, row))
                    legs += leg
                    colegs += coleg
            assert inv.nmu == legs == colegs


def test_t_ratio_over_corners_is_monomial_sum():
    for n in range(1, 8):
        for mu in partitions_of(n):
            t_mu = partition_invariants(mu).T
            removable, _ = corners(mu)
            for nu in removable:
                ratio = t_mu / partition_invariants(nu).T
                num, den = ratio.canonical().split("|")
                assert den == "1*q^0*t^0"  # a polynomial ...
                assert num != "0" and " + " not in num  # ... with exactly one term


def test_pk_consistency_of_d():
    for n in range(6):
        for mu in partitions_of(n):
            inv = partition_invariants(mu)
            for k in (1, 2, 3):
                scaled = inv.D.frobenius(k)
                want = M.frobenius(k) * inv.B.frobenius(k) - 1
                assert scaled == want


def test_zmu():
    assert zmu((1,)) == 1
    assert zmu((2,)) == 2
    assert zmu((1, 1)) == 2
    assert zmu((2, 1)) == 2
    assert zmu((3, 1, 1)) == 6


def test_string_round_trips():
    assert partition_str((3, 2, 1)) == "[3,2,1]"
    assert composition_str((3, 1, 2)) == "(3,1,2)"
    assert parse_partition("[3,2,1]") == (3, 2, 1)
    assert parse_partition("[]") == ()
    assert parse_composition("(3,1,2)") == (3, 1, 2)
    assert parse_composition("()") == ()


def test_count_fillings_without_constraints_counts_every_permutation():
    for n in range(7):
        counts = count_fillings(range(n))
        assert sum(counts.values()) == factorial(n)
        assert all(q == t == 0 for _, q, t in counts)
        # every subset of 1..n-1 is the inverse descent set of some word
        assert len(counts) == 2 ** max(n - 1, 0)


def test_count_fillings_matches_listing_the_fillings():
    # a scrambled reading order, repeated and negative weights, and two order rules
    rank = [3, 0, 4, 1, 2]
    gain = [(0, 1, 1, 0), (2, 0, 0, 2), (2, 0, 1, -1), (4, 3, -2, 1), (1, 4, 1, 1), (3, 2, 0, 1)]
    needs = [0, 0, 1 << 1, 0, 1 << 0 | 1 << 3]
    want = {}
    for value in permutations(range(1, 6)):
        if any(value[y] > value[x] for x in range(5) for y in range(5) if needs[x] >> y & 1):
            continue
        cell = {v: x for x, v in enumerate(value)}
        ides = frozenset(i for i in range(1, 5) if rank[cell[i + 1]] < rank[cell[i]])
        q = sum(dq for x, y, dq, _ in gain if value[x] > value[y])
        t = sum(dt for x, y, _, dt in gain if value[x] > value[y])
        want[ides, q, t] = want.get((ides, q, t), 0) + 1
    assert count_fillings(rank, gain, needs) == want
