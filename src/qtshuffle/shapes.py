"""Partitions, compositions, cells, their q,t bookkeeping statistics, the
Pieri strips of Young's lattice (add_strip, remove_strip), the one counter of
fillings by 1..n (count_fillings), and the first-section recursion that both
sides of the main identity satisfy.

Shapes are plain tuples of ints: partitions weakly decreasing, compositions
arbitrary positive parts.  Cells use the French convention, zero-based, as
(col, row) with (0,0) the SW corner.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .qtfield import Q, QTR_ONE, QTR_ZERO, QtRational, T

Partition = tuple[int, ...]
Composition = tuple[int, ...]
Cell = tuple[int, int]  # (col, row)


def check_partition(mu) -> Partition:
    mu = tuple(int(p) for p in mu)
    if any(p < 1 for p in mu):
        raise ValueError(f"partition parts must be >= 1: {mu}")
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {mu}")
    return mu


def check_composition(alpha) -> Composition:
    alpha = tuple(int(p) for p in alpha)
    if any(p < 1 for p in alpha):
        raise ValueError(f"composition parts must be >= 1: {alpha}")
    return alpha


def check_abc(alpha: Composition, a: int, b: int, c: int) -> bool:
    """False when a size is negative (the (alpha; a, b, c) family is then
    empty); a ValueError unless a + b + c = |alpha|."""
    if a + b + c != sum(alpha):
        raise ValueError(f"(a,b,c)={(a, b, c)} must sum to |alpha|={sum(alpha)}")
    return min(a, b, c) >= 0


def conjugate(mu: Partition) -> Partition:
    if not mu:
        return ()
    out = [0] * mu[0]
    for p in mu:
        for i in range(p):
            out[i] += 1
    return tuple(out)


def cells(mu: Partition):
    """All cells of mu as (col, row)."""
    for row, p in enumerate(mu):
        for col in range(p):
            yield (col, row)


def cell_stats(mu: Partition, c: Cell) -> tuple[int, int, int, int]:
    """(arm, leg, coarm, coleg) of a cell: counts strictly E/N/W/S of it."""
    col, row = c
    if row < 0 or row >= len(mu) or col < 0 or col >= mu[row]:
        raise ValueError(f"cell {c} not in partition {mu}")
    conj = conjugate(mu)
    arm = mu[row] - col - 1
    leg = conj[col] - row - 1
    return arm, leg, col, row


def count_fillings(rank, gain=(), needs=None, dead=frozenset()) -> dict[tuple[frozenset, int, int], int]:
    """{(iDes, q-stat, t-stat): count} over the fillings of cells 0..n-1 by
    1..n, n = len(rank), where cell x is read before y when rank[x] < rank[y]
    and iDes holds each i with i + 1 read before i.  Each (x, y, dq, dt) in
    gain (pairs may repeat) adds (dq, dt) when value(x) > value(y); the cells
    of bitmask needs[x] must hold smaller values than x.  With the values
    placed in increasing order, a step depends only on the filled cells and
    on the cell of the previous value: one DP over those states, no listing.

    dead is a set of iDes bitmasks (bit i for i in iDes) whose fillings are
    dropped, tested only when placing v sets bit v - 1.  The test is final
    when dead holds, with each mask, every mask it gains by setting bits
    above its highest: bits >= v are still clear when v is placed, so a
    partial mask in dead can only end in dead.
    """
    n = len(rank)
    needs = needs or [0] * n
    pairs: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for x, y, dq, dt in gain:
        pairs[x].append((y, dq, dt))
    layer = {(0, -1): {(0, 0, 0): 1}}  # (filled cells, cell of the last value) -> counts
    for v in range(1, n + 1):
        nxt: dict = {}
        for (filled, last), counts in layer.items():
            for x in range(n):
                if filled >> x & 1 or needs[x] & ~filled:
                    continue
                dq = dt = 0
                for y, wq, wt in pairs[x]:
                    if filled >> y & 1:
                        dq += wq
                        dt += wt
                bit = 1 << (v - 1) if last >= 0 and rank[x] < rank[last] else 0
                out = nxt.setdefault((filled | 1 << x, x), {})
                for (mask, q, t), c in counts.items():
                    if bit and mask | bit in dead:
                        continue
                    key = (mask | bit, q + dq, t + dt)
                    out[key] = out.get(key, 0) + c
        layer = nxt
    total: dict = {}
    for counts in layer.values():
        for key, c in counts.items():
            total[key] = total.get(key, 0) + c
    return {
        (frozenset(i for i in range(n) if mask >> i & 1), q, t): c
        for (mask, q, t), c in total.items()
    }


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, lexicographically decreasing from (n)."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)

    def gen(remaining: int, maxpart: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, maxpart), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


@lru_cache(maxsize=None)
def compositions_of(n: int) -> tuple[Composition, ...]:
    """All compositions of n in lex order; n=0 gives (), negative n gives none."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)

    def gen(remaining: int):
        if remaining == 0:
            yield ()
            return
        for first in range(1, remaining + 1):
            for rest in gen(remaining - first):
                yield (first,) + rest

    return tuple(gen(n))


@dataclass(frozen=True)
class PartitionInvariants:
    """The scalar package attached to a partition, all exact."""

    nmu: int
    nmu_conj: int
    T: QtRational
    B: QtRational
    Pi: QtRational
    D: QtRational
    w: QtRational


def capital_m() -> QtRational:
    """(1-t)(1-q)."""
    return _CAP_M


_CAP_M = QtRational({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}, 1)


@lru_cache(maxsize=None)
def partition_invariants(mu: Partition) -> PartitionInvariants:
    mu = check_partition(mu)
    nmu = sum(i * p for i, p in enumerate(mu))
    nmu_conj = sum(p * (p - 1) // 2 for p in mu)
    T = QtRational({(nmu_conj, nmu): 1}, 1)
    B = QTR_ZERO
    Pi = QTR_ONE
    w = QTR_ONE
    for (col, row) in cells(mu):
        B = B + QtRational({(col, row): 1}, 1)
        if (col, row) != (0, 0):
            Pi = Pi * QtRational({(0, 0): 1, (col, row): -1}, 1)
        arm, leg, _, _ = cell_stats(mu, (col, row))
        w = w * QtRational({(arm, 0): 1, (0, leg + 1): -1}, 1)
        w = w * QtRational({(0, leg): 1, (arm + 1, 0): -1}, 1)
    D = _CAP_M * B - QTR_ONE
    return PartitionInvariants(nmu, nmu_conj, T, B, Pi, D, w)


@lru_cache(maxsize=None)
def _strips(lam: Partition, k: int, add: bool, vertical: bool) -> tuple[Partition, ...]:
    """The shapes that differ from lam by a horizontal (or vertical) k-strip,
    above lam (add) or inside it.  A horizontal strip interlaces the rows,
    lam_(i+1) <= mu_i <= lam_i; a vertical one is a horizontal one of the
    conjugates."""
    if vertical:
        return tuple(conjugate(m) for m in _strips(conjugate(lam), k, add, False))
    if k < 0:
        return ()
    if add:  # kappa_i in [lam_i, lam_(i-1)], one new row allowed
        rows = list(zip((lam[0] + k if lam else k,) + lam, lam + (0,)))
    else:  # mu_i in [lam_(i+1), lam_i]
        rows = list(zip(lam, lam[1:] + (0,)))
    out = []

    def place(i: int, left: int, parts: tuple):
        if i == len(rows):
            if not left:
                out.append(tuple(p for p in parts if p))
            return
        hi, lo = rows[i]
        for d in range(min(left, hi - lo), -1, -1):  # row by row, top row first
            place(i + 1, left - d, parts + (lo + d if add else hi - d,))

    place(0, k, ())
    return tuple(out)


def add_strip(lam: Partition, k: int, vertical: bool = False) -> tuple[Partition, ...]:
    """The shapes kappa with kappa / lam a horizontal (or vertical) k-strip:
    the Schur terms of s_lam h_k (of s_lam e_k when vertical)."""
    return _strips(tuple(lam), k, True, vertical)


def remove_strip(lam: Partition, k: int, vertical: bool = False) -> tuple[Partition, ...]:
    """The shapes mu with lam / mu a horizontal (or vertical) k-strip: the
    Schur terms of h_k^perp s_lam (of e_k^perp s_lam when vertical)."""
    return _strips(tuple(lam), k, False, vertical)


def corners(mu: Partition) -> tuple[tuple[Partition, ...], tuple[Partition, ...]]:
    """(removable, addable) neighbours of mu in Young's lattice, by row: its
    one-box strips."""
    mu = check_partition(mu)
    return remove_strip(mu, 1), add_strip(mu, 1)


def remove_part(alpha: Composition, i: int) -> Composition:
    """Delete the i-th part (1-based), preserving the order of the others."""
    if not 1 <= i <= len(alpha):
        raise IndexError(f"part index {i} out of range for {alpha}")
    return alpha[: i - 1] + alpha[i:]


def recursion_rhs(value, m: int, alpha: Composition, a: int, b: int, c: int) -> QtRational:
    """Right side of the first-section recursion that value((m,) + alpha, a, b, c)
    satisfies, value being either side of the main identity (lhs_inner or
    pi_poly).  Each pipeline applies it to its own values, so the checks stay
    independent; terms with a negative index are left out.
    """
    alpha = tuple(alpha)
    lead = Q ** len(alpha)
    rhs = QTR_ZERO
    if m > 1:
        if a >= 1:
            for beta in compositions_of(m - 1):
                rhs = rhs + value(alpha + beta, a - 1, b, c)
        if b >= 1 and c >= 1:
            for beta in compositions_of(m - 2):
                rhs = rhs + value(alpha + beta, a, b - 1, c - 1)
        return T ** (m - 1) * lead * rhs
    if a >= 1:
        rhs = rhs + lead * value(alpha, a - 1, b, c)
    if b >= 1:
        rhs = rhs + value(alpha, a, b - 1, c)
    if c >= 1:
        rhs = rhs + value(alpha, a, b, c - 1)
    if b >= 1 and c >= 1:
        for i, part in enumerate(alpha, start=1):
            if part == 1:
                rhs = rhs + (Q - 1) * Q ** (i - 1) * value(remove_part(alpha, i), a, b - 1, c - 1)
    return rhs


def zmu(mu: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type mu."""
    out = 1
    mult: dict[int, int] = {}
    for p in mu:
        mult[p] = mult.get(p, 0) + 1
    for p, m in mult.items():
        f = 1
        for j in range(1, m + 1):
            f *= j
        out *= p**m * f
    return out


def partition_str(mu: Partition) -> str:
    return "[" + ",".join(str(p) for p in mu) + "]"


def composition_str(alpha: Composition) -> str:
    return "(" + ",".join(str(p) for p in alpha) + ")"


def parse_partition(s: str) -> Partition:
    s = s.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"bad partition string: {s!r}")
    body = s[1:-1].strip()
    if not body:
        return ()
    return check_partition(int(p) for p in body.split(","))


def parse_composition(s: str) -> Composition:
    s = s.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"bad composition string: {s!r}")
    body = s[1:-1].strip()
    if not body:
        return ()
    return check_composition(int(p) for p in body.split(","))
