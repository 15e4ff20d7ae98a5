"""The modified Macdonald basis, nabla, Pieri coefficients, the creation
operators and their star-adjoints, and the registry of checkable identities.

Tables are built per degree from the Haglund-Haiman-Loehr combinatorial
formula (a sum over fillings of mu, in fundamental quasisymmetric functions),
then checked against the defining invariants (star-orthogonality with norms
w_mu, <H~_mu, h_n> = 1) before use; a table that fails raises
TableInvariantError.  A table loaded from a cache file is verified once, on
load; install_table does not repeat the check.

verify() works on two integer-polynomial matrices: K~, the table's Schur
coefficients, and G_n = (<s_lam, s_nu>_*), one per degree (_star_gram).
<H~_mu, h_n> is the lookup K~_mu,(n), and the Gram matrix <H~_lam, H~_mu>_*
is K~ G_n K~^T, compared with diag(w_mu) as one _packed_product: a product
of integer-polynomial matrices at q = 2^k, t = 2^(kD), with D and k from one
proven degree and coefficient bound, so each entry is one exact comparison
of Python ints.

Each coefficient on the H~ basis is <f, H~_mu>_* / w_mu (HTildeTable.coeff):
the expansion behind both Pieri directions, which one loop in pieri() computes
and checks against d_{mu,nu} = M c_{mu,nu} w_nu / w_mu.

nabla is one Schur-basis matrix per table and sign, R = K~^-1 diag(T_mu^sign) K~,
built by HTildeTable.nabla_matrix on first use, never on build, load or
install: verify() gives K~^-1 = G_n K~^T diag(1/w_mu), R is guessed at one
point and certified by K~ R = diag(T_mu^sign) K~ with _packed_product.
nabla(f) converts f to Schur, takes one sparse product with those rows and
returns power sums.  A table converts its Schur entries to power sums
(HTildeTable.power) only when something first reads them.

lhs_inner(alpha, a, b, c) = <nabla C_alpha 1, e_a h_b h_c> stays in the Schur
basis, which is orthonormal: nabla C_alpha 1 is cached per composition in
Schur coefficients, e_a h_b h_c per triple as integers, and the pairing is
their dot product.  c_word builds C_alpha 1 as C_{alpha_1} applied to the
cached word of alpha[1:].  The rec-m and rec-1 identities apply
shapes.recursion_rhs to lhs_inner; the parking side applies the same formula
to its own counts.

The creation operators op_C, op_B and their star-adjoints op_C_star, op_B_star
are each one symfunc.extract_z call with their own shift and Omega kernel, as is
the a + b < 0 side of the commutator identity (with the empty kernel).

Lemma 3.1, Lemma 3.2, Proposition 3.1 and Theorems 3.1-3.2 expand over the
same corners: an outer sum over r <= a, s <= b, nu |- r+s (_corner_sum) of an
inner sum over u that depends only on (kind, m, n, nu) (_corner_block, cached).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import permutations
from math import factorial, lcm

from .qtfield import (
    Q,
    QTR_ONE,
    QTR_ZERO,
    QtRational,
    T,
    int_poly,
    kronecker,
    parse_rational,
    qtr,
    unkronecker,
)
from .shapes import (
    Composition,
    Partition,
    capital_m,
    cell_stats,
    compositions_of,
    corners,
    partition_invariants,
    partition_str,
    parse_partition,
    partitions_of,
    recursion_rhs,
    zmu,
)
from .symfunc import (
    Alphabet,
    SymFunc,
    character,
    check_degree,
    e_,
    extract_z,
    h_,
    hall_inner,
    linear_map,
    omega_involution,
    plethysm,
    plethysm_eval,
    skew_by_e1,
    star_inner,
    star_z,
)


class TableInvariantError(RuntimeError):
    """A Macdonald table failed its defining invariants (convention bug)."""


# ---------------------------------------------------------------------------
# the modified Macdonald table
# ---------------------------------------------------------------------------


class HTildeTable:
    """Per-degree table mu -> modified Macdonald polynomial (Schur basis)."""

    def __init__(self, degree: int, entries: dict):
        self.degree = degree
        # a built table arrives in monomials, a loaded one already in Schur
        self.entries = {mu: f.convert("schur") for mu, f in entries.items()}
        self.invariants = {mu: partition_invariants(mu) for mu in entries}
        self.verified = False
        self.kostka: dict = {}  # mu -> {lam: K~_mu,lam as an integer polynomial}, filled by verify()
        self.nabla_rows: dict[int, dict[Partition, SymFunc]] = {}  # sign -> rows, filled by nabla_row

    def __getitem__(self, mu: Partition) -> SymFunc:
        return self.entries[tuple(mu)]

    @cached_property
    def power(self) -> dict[Partition, SymFunc]:
        """mu -> H~_mu in power sums, converted on first use (verify() and the
        nabla rows read the Schur entries only)."""
        return {mu: f.to_power() for mu, f in self.entries.items()}

    def coeff(self, f: SymFunc, mu: Partition) -> QtRational:
        """Coefficient of H~_mu in f: <f, H~_mu>_* / w_mu."""
        return star_inner(f, self.power[mu]) / self.invariants[mu].w

    def nabla_row(self, lam: Partition, sign: int) -> SymFunc:
        """nabla^sign s_lam in the Schur basis; the first call for a sign fills
        every row of that sign (nabla_matrix)."""
        rows = self.nabla_rows.get(sign)
        if rows is None:
            rows = self.nabla_rows[sign] = self.nabla_matrix(sign)
        return rows[lam]

    def nabla_matrix(self, sign: int) -> dict[Partition, SymFunc]:
        """{lam: nabla^sign s_lam in the Schur basis}, exact, from packed integers.

        The rows form R = K~^-1 diag(T_mu^sign) K~ (K~ the Schur coefficients).
        Both signs compute R^ = K~^-1 diag(T^_mu) K~, T^_mu = T_mu for sign +1
        and T_max / T_mu for sign -1 (T_max = (q t)^(n choose 2)); then
        R = R^ / T_max.  _guess_rows reads R^ off one point, and the
        certificate K~ R^ = diag(T^_mu) K~, one _packed_product, leaves it one
        value, since verify() showed that K~ is invertible: the rows are exact,
        not probable.  A guess that is no integer or fails the certificate
        doubles k and D and tries again; after _ROW_ATTEMPTS tries the table
        raises TableInvariantError (on the tables of degree <= 8 the first
        guess holds).  The table is verified first if it was not yet.
        """
        if not self.verified:
            self.verify()
        n, parts = self.degree, partitions_of(self.degree)
        top = n * (n - 1) // 2  # the q- and t-degree of T_max, and the q-degree of K~
        kostka = self.kostka
        shift, eigen = {}, {}  # mu -> the exponents of the monomial T^_mu, and row mu of diag(T^) K~
        for mu in parts:
            inv = self.invariants[mu]
            a, b = shift[mu] = (inv.nmu_conj, inv.nmu) if sign == 1 else (top - inv.nmu_conj, top - inv.nmu)
            eigen[mu] = {nu: {(i + a, j + b): c for (i, j), c in p.items()} for nu, p in kostka[mu].items()}
        k = _row_start(max(_size(p) for row in kostka.values() for p in row.values()))
        D = 1 + top  # at least n, so no w_mu vanishes at the point
        for _ in range(_ROW_ATTEMPTS):
            rows = _guess_rows(kostka, _star_gram(n), shift, k, D)
            if rows is not None:
                _, _, got, want = _packed_product([kostka, rows], eigen)
                if got == want:
                    den = {(top, top) if sign == -1 else (0, 0): 1}
                    return {
                        lam: SymFunc("schur", {nu: QtRational(p, den) for nu, p in row.items()})
                        for lam, row in rows.items()
                    }
            k, D = 2 * k, 2 * D
        raise TableInvariantError(f"nabla rows of degree {n} (sign {sign}) failed their certificate")

    def verify(self) -> None:
        """Assert the support (one entry per mu |- n, each Schur term of degree
        n), an integer polynomial K~_mu,lam for every Schur coefficient,
        <H~_mu, h_n> = K~_mu,(n) = 1 and <H~_lam, H~_mu>_* = (K~ G_n K~^T)_lam,mu
        = delta w_mu for lam >= mu, exactly, as one _packed_product."""
        parts = partitions_of(self.degree)
        degrees = {sum(lam) for f in self.entries.values() for lam in f.coeffs}
        if set(self.entries) != set(parts) or degrees - {self.degree}:
            raise TableInvariantError(f"degree {self.degree} table has wrong support")
        kostka = self.kostka = {mu: {} for mu in parts}
        for mu, f in self.entries.items():
            for lam, c in f.coeffs.items():
                if (p := int_poly(c)) is None:  # the true K~_mu,lam lie in N[q,t] (Haiman)
                    raise TableInvariantError(f"integrality failed at ({mu}, {lam}): K~_mu,lam not in Z[q,t]")
                kostka[mu][lam] = p
        norms = {mu: {mu: int_poly(self.invariants[mu].w)} for mu in parts}
        _, _, gram, want = _packed_product([kostka, _star_gram(self.degree), _transpose(kostka)], norms)
        for i, mu in enumerate(parts):
            if kostka[mu].get(parts[0]) != {(0, 0): 1}:  # parts[0] is (n), or () in degree 0
                raise TableInvariantError(f"normalization failed for {mu}")
            for lam in parts[i:]:
                if gram[lam].get(mu, 0) != want[lam].get(mu, 0):
                    raise TableInvariantError(f"orthogonality failed at ({lam}, {mu})")
        self.verified = True

    # -- cache file round trip

    def to_json(self) -> dict:
        entries = {}
        for mu in sorted(self.entries):
            f = self.entries[mu]
            entries[partition_str(mu)] = {
                partition_str(lam): c.canonical() for lam, c in sorted(f.coeffs.items())
            }
        return {"degree": self.degree, "format": 1, "entries": entries}

    @classmethod
    def from_json(cls, data: dict) -> "HTildeTable":
        if data.get("format") != 1:
            raise ValueError(f"unsupported table format: {data.get('format')!r}")
        entries = {}
        for mu_s, coeffs in data["entries"].items():
            mu = parse_partition(mu_s)
            entries[mu] = SymFunc(
                "schur", {parse_partition(lam): parse_rational(c) for lam, c in coeffs.items()}
            )
        table = cls(int(data["degree"]), entries)
        table.verify()
        return table

    def save(self, path: str) -> None:
        """Atomic write: temp file in the target directory, then rename."""
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(self.to_json(), fh, sort_keys=True, indent=1)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "HTildeTable":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _size(p: dict) -> int:
    """The 1-norm of an integer polynomial."""
    return sum(map(abs, p.values()))


def _q_degree(polys) -> int:
    return max((i for p in polys for i, _ in p), default=0)


def _transpose(m: dict) -> dict:
    out: dict = {}
    for i, row in m.items():
        for j, x in row.items():
            out.setdefault(j, {})[i] = x
    return out


def _matmul(a: dict, b: dict) -> dict:
    """The product of two sparse int matrices {row: {col: int}}, zeros left out."""
    out = {}
    for i, row in a.items():
        acc: dict = {}
        for j, x in row.items():
            for l, y in b.get(j, {}).items():
                acc[l] = acc.get(l, 0) + x * y
        out[i] = {l: x for l, x in acc.items() if x}
    return out


def _pack(m: dict, k: int, D: int) -> dict:
    return {i: {j: x for j, p in row.items() if (x := kronecker(p, k, D))} for i, row in m.items()}


def _packed_product(factors: list, want: dict) -> tuple[int, int, dict, dict]:
    """(k, D, got, wanted): the product of the integer-polynomial matrices in
    factors ({row: {col: poly}} each) and the matrix want, both packed by
    qtfield.kronecker at q = 2^k, t = 2^(kD), zero entries left out, where
    got[i][j] == wanted[i][j] exactly when the two polynomials are equal.

    kronecker is a ring homomorphism, injective on polynomials of q-degree
    below D with coefficients below 2^(k-1) in absolute value, so got is the
    product of the packed factors.  An entry of the product has q-degree at
    most the sum of the factors' largest q-degrees, and no coefficient above
    the matching entry of the product of the factors' 1-norm matrices
    (|f g|_1 <= |f|_1 |g|_1).  D exceeds that sum and the q-degree of want,
    and 2^(k-1) exceeds the largest entry of the 1-norm product plus the
    largest |want|_1, so every got - want lies where kronecker is injective.
    """
    degree = sum(_q_degree(p for row in f.values() for p in row.values()) for f in factors)
    D = 1 + max(degree, _q_degree(p for row in want.values() for p in row.values()))
    norms = [{i: {j: _size(p) for j, p in row.items()} for i, row in f.items()} for f in factors]
    bound = max((x for row in reduce(_matmul, norms).values() for x in row.values()), default=0)
    bound += max((_size(p) for row in want.values() for p in row.values()), default=0)
    k = bound.bit_length() + 1
    return k, D, reduce(_matmul, [_pack(f, k, D) for f in factors]), _pack(want, k, D)


@lru_cache(maxsize=None)
def _star_gram(n: int) -> dict:
    """G_n = {lam: {nu: <s_lam, s_nu>_*}} as integer polynomials, one matrix
    for every table of degree n: the sum over rho of chi^lam(rho) chi^nu(rho)
    W_rho / n!, W_rho = (n!/z_rho^2) <p_rho, p_rho>_* in Z[q,t].  The division
    is exact, as <s_lam, s_nu>_* = <s_lam, omega s_nu[(1-q)(1-t)X]> in Z[q,t]."""
    parts, nfact = partitions_of(n), factorial(n)
    weight = {rho: int_poly(star_z(rho), Fraction(nfact, zmu(rho) ** 2)) for rho in parts}
    gram: dict = {lam: {} for lam in parts}
    for i, lam in enumerate(parts):
        for nu in parts[i:]:
            total: dict = {}
            for rho, w in weight.items():
                c = character(lam, rho) * character(nu, rho)
                for key, x in w.items():
                    total[key] = total.get(key, 0) + c * x
            gram[lam][nu] = gram[nu][lam] = {key: x // nfact for key, x in total.items() if x}
    return gram


_ROW_ATTEMPTS = 4  # nabla_matrix widens its point three times at most


def _row_start(norm: int) -> int:
    """Bits per slot of nabla_matrix's first guess, norm the largest |K~_mu,nu|_1."""
    return norm.bit_length() + 2


def _guess_rows(kostka: dict, gram: dict, shift: dict, k: int, D: int) -> dict | None:
    """{lam: {nu: R^_lam,nu}} read off R^ = K~^-1 diag(T^_mu) K~ at q = 2^k,
    t = 2^(kD), or None when a value is no integer (shift[mu] the exponents of
    T^_mu).

    verify() showed K~ G K~^T = diag(w_mu), so K~^-1 = G K~^T diag(1/w_mu); with
    common the lcm of the w_mu at the point, common R^ = G K~^T diag(T^_mu
    common / w_mu) K~ is one integer product, then one division per entry.  No w_mu
    vanishes there when D >= n: a factor q^a - t^(l+1) or t^l - q^(a+1) of
    w_mu is zero only if a = D(l+1) or Dl = a+1, and a + l < n.
    """
    packed_norm = {mu: kronecker(int_poly(partition_invariants(mu).w), k, D) for mu in kostka}
    common = lcm(*packed_norm.values())
    packed = _pack(kostka, k, D)
    inverse = _matmul(_pack(gram, k, D), _transpose(packed))  # K~^-1 diag(w_mu) at the point
    for row in inverse.values():
        for mu, x in row.items():
            a, b = shift[mu]
            row[mu] = x * (common // packed_norm[mu]) << k * (a + D * b)
    product = _matmul(inverse, packed)
    if any(x % common for row in product.values() for x in row.values()):
        return None
    return {
        lam: {nu: unkronecker(x // common, k, D) for nu, x in row.items()} for lam, row in product.items()
    }


_tables: dict[int, HTildeTable] = {}
_tables_lock = threading.Lock()


def _hhl_monomial(mu: Partition) -> SymFunc:
    """H~_mu in the monomial basis by the Haglund-Haiman-Loehr formula,
    sum over fillings w of mu by 1..n of q^inv(w) t^maj(w) F_iDes(read w).

    The reading order runs row by row from the top, each row left to right.
    A descent is a cell whose value exceeds the value directly below it;
    maj sums leg+1 over descents.  Two cells attack when they share a row or
    when the lower one is one row down and strictly to the left; inv counts
    attacking pairs read larger value first, minus the arms of the descents.
    """
    n = sum(mu)
    order = [(col, row) for row in reversed(range(len(mu))) for col in range(mu[row])]
    at = {cell: k for k, cell in enumerate(order)}
    attacks = [
        (at[u], at[v])
        for u in order
        for v in order
        if at[u] < at[v] and (u[1] == v[1] or (u[1] == v[1] + 1 and v[0] < u[0]))
    ]
    below = []  # (cell, cell under it, arm, leg + 1)
    for col, row in order:
        if row:
            arm, leg, _, _ = cell_stats(mu, (col, row))
            below.append((at[col, row], at[col, row - 1], arm, leg + 1))
    by_ides: dict[int, dict[tuple[int, int], int]] = {}  # iDes bitmask -> q,t terms
    for w in permutations(range(n)):
        ides = sum(1 << i for i in range(n - 1) if w.index(i + 1) < w.index(i))
        inv = sum(w[k] > w[l] for k, l in attacks)
        maj = 0
        for k, l, arm, leg1 in below:
            if w[k] > w[l]:
                inv -= arm
                maj += leg1
        terms = by_ides.setdefault(ides, {})
        terms[inv, maj] = terms.get((inv, maj), 0) + 1
    # [m_lam] F_S = 1 exactly when S lies inside the partial sums of lam
    coeffs = {}
    for lam in partitions_of(n):
        sums = sum(1 << (sum(lam[:i]) - 1) for i in range(1, len(lam)))
        total: dict[tuple[int, int], int] = {}
        for ides, terms in by_ides.items():
            if not ides & ~sums:
                for key, c in terms.items():
                    total[key] = total.get(key, 0) + c
        coeffs[lam] = QtRational(total)
    return SymFunc("monomial", coeffs)


def build_htilde(n: int) -> HTildeTable:
    """Build (or fetch) the degree-n table; invariants asserted before return."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    check_degree(n)  # before the n! fillings per partition, not after
    table = _tables.get(n)
    if table is not None:
        return table
    with _tables_lock:
        table = _tables.get(n)
        if table is not None:
            return table
        table = HTildeTable(n, {mu: _hhl_monomial(mu) for mu in partitions_of(n)})
        table.verify()
        _tables[n] = table
    return table


def install_table(table: HTildeTable) -> None:
    """Adopt a table into the in-process cache, verifying it first unless it
    already passed verify() (as every loaded table has)."""
    if not table.verified:
        table.verify()
    with _tables_lock:
        _tables[table.degree] = table


def htilde_expand(f: SymFunc) -> dict:
    """Expansion coefficients of f on the modified Macdonald basis, per degree."""
    out: dict[Partition, QtRational] = {}
    fp = f.to_power()
    for d in fp.degrees():
        comp = fp.homogeneous_component(d)
        for mu in partitions_of(d):
            c = _htilde_coeff(comp, mu)
            if not c.is_zero():
                out[mu] = c
    return out


def _htilde_coeff(f: SymFunc, mu: Partition) -> QtRational:
    """Coefficient of H~_mu in f, read off the installed table."""
    return build_htilde(sum(mu)).coeff(f, mu)


def nabla(f: SymFunc, sign: int = 1) -> SymFunc:
    """The Macdonald eigenoperator (sign=-1 gives its inverse), in power sums."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _nabla_schur(f, sign).to_power()


def _nabla_schur(f: SymFunc, sign: int) -> SymFunc:
    """nabla^sign f in the Schur basis: one sparse product of f's Schur
    coefficients with the table rows nabla^sign s_lam."""
    schur = f.convert("schur").coeffs
    return SymFunc("schur", linear_map(schur, lambda lam: build_htilde(sum(lam)).nabla_row(lam, sign).coeffs))


# ---------------------------------------------------------------------------
# Pieri coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PieriData:
    shape: Partition
    direction: str  # "add" (d coefficients) or "remove" (c coefficients)
    coeffs: dict


def _d_coeff(mu: Partition, nu: Partition) -> QtRational:
    """d_{mu,nu}: coefficient of H~_mu in e_1 H~_nu."""
    return _htilde_coeff(e_(1) * build_htilde(sum(nu)).power[nu], mu)


def _c_coeff(mu: Partition, nu: Partition) -> QtRational:
    """c_{mu,nu}: coefficient of H~_nu in e_1-perp H~_mu."""
    return _htilde_coeff(skew_by_e1(build_htilde(sum(mu)).power[mu]), nu)


_PIERI_ARROWS = {"add": "<-", "remove": "->"}


def pieri(shape: Partition, direction: str) -> PieriData:
    """The d_{mu,shape} over mu = shape plus a box ("add"), or the c_{shape,nu}
    over nu = shape minus a box ("remove").  Each is checked against the other
    direction by d_{mu,nu} = M c_{mu,nu} w_nu / w_mu, and every other shape of
    the neighbouring degree must get coefficient zero."""
    shape = tuple(shape)
    arrow = _PIERI_ARROWS.get(direction)
    if arrow is None:
        raise ValueError(f"unknown Pieri direction {direction!r}")
    add = direction == "add"
    hshape = build_htilde(sum(shape)).power[shape]
    f = e_(1) * hshape if add else skew_by_e1(hshape)
    targets = corners(shape)[1 if add else 0]
    M = capital_m()
    coeffs = {}
    for other in partitions_of(sum(shape) + (1 if add else -1)):
        x = _htilde_coeff(f, other)
        mu, nu = (other, shape) if add else (shape, other)
        if other in targets:
            coeffs[other] = x
            d, c = (x, _c_coeff(mu, nu)) if add else (_d_coeff(mu, nu), x)
            if d != M * c * partition_invariants(nu).w / partition_invariants(mu).w:
                raise TableInvariantError(f"Pieri relation failed at {mu} {arrow} {nu}")
        elif not x.is_zero():
            raise TableInvariantError(f"spurious Pieri support {mu} {arrow} {nu}")
    return PieriData(shape, direction, coeffs)


@lru_cache(maxsize=None)
def _pieri(shape: Partition, direction: str) -> tuple[tuple[Partition, QtRational], ...]:
    return tuple(sorted(pieri(shape, direction).coeffs.items()))


@lru_cache(maxsize=None)
def _pieri_sum(shape: Partition, direction: str, power: int) -> QtRational:
    """sum over the Pieri neighbours of shape of coefficient * (T_mu/T_nu)^power,
    mu the larger and nu the smaller of the two shapes."""
    ts = partition_invariants(shape).T
    total = QTR_ZERO
    for other, x in _pieri(shape, direction):
        to = partition_invariants(other).T
        total = total + x * (to / ts if direction == "add" else ts / to) ** power
    return total


# ---------------------------------------------------------------------------
# creation operators and star-adjoints
# ---------------------------------------------------------------------------


def op_C(a: int, P: SymFunc) -> SymFunc:
    """C_a P = (-1/q)^(a-1) P[X - (1-1/q)/z] Omega[zX] |_(z^a); raises the degree by a >= 1."""
    if a < 1:
        raise ValueError("op_C is defined here for a >= 1 only")
    shift = Alphabet.X() + Alphabet.scalar(Q.inverse() - 1)
    return extract_z(P, shift, Alphabet.X(), a).scale((-Q.inverse()) ** (a - 1))


def op_B(a: int, P: SymFunc) -> SymFunc:
    """B_a P = P[X + eps(1-q)/z] Omega[-eps zX] |_(z^a); a may be zero or negative."""
    shift = Alphabet.X() + Alphabet.scalar(1 - Q, eps=True)
    return extract_z(P, shift, -Alphabet.X(eps=True), a)


def op_C_star(a: int, P: SymFunc) -> SymFunc:
    """Star-adjoint of op_C, (-1/q)^(a-1) P[X - eps M/z] Omega[-eps zX/(q(1-t))] |_(z^-a);
    lowers the degree by a >= 1."""
    if a < 1:
        raise ValueError("op_C_star is defined here for a >= 1 only")
    shift = Alphabet.X() - Alphabet.scalar(capital_m(), eps=True)
    kernel = Alphabet.X(-(Q * (1 - T)).inverse(), eps=True)
    return extract_z(P, shift, kernel, -a).scale((-Q.inverse()) ** (a - 1))


def op_B_star(a: int, P: SymFunc) -> SymFunc:
    """Star-adjoint of op_B, P[X + M/z] Omega[-zX/(1-t)] |_(z^-a)."""
    shift = Alphabet.X() + Alphabet.scalar(capital_m())
    return extract_z(P, shift, Alphabet.X(-(1 - T).inverse()), -a)


def c_word(alpha: Composition) -> SymFunc:
    """C_{alpha_1} ... C_{alpha_l} applied to 1, right to left."""
    return _c_word(tuple(alpha))


@lru_cache(maxsize=None)
def _c_word(alpha: Composition) -> SymFunc:
    """C_{alpha_1} applied to the cached word of alpha[1:], so each suffix is
    built once however many words share it."""
    return op_C(alpha[0], _c_word(alpha[1:])) if alpha else SymFunc.one()


@lru_cache(maxsize=None)
def _nabla_c_word(alpha: Composition) -> SymFunc:
    """nabla C_alpha 1 in the Schur basis."""
    return _nabla_schur(c_word(alpha), 1)


@lru_cache(maxsize=None)
def _eh_schur(a: int, b: int, c: int) -> dict[Partition, int]:
    """{lam: [s_lam] e_a h_b h_c}, each a nonnegative integer."""
    return {lam: int_poly(x)[0, 0] for lam, x in (e_(a) * h_(b) * h_(c)).convert("schur").coeffs.items()}


def lhs_inner(alpha: Composition, a: int, b: int, c: int) -> QtRational:
    """Hall pairing of nabla C_alpha 1 with e_a h_b h_c: the Schur basis is
    orthonormal, so it is sum over lam of [s_lam] nabla C_alpha 1 times
    [s_lam] e_a h_b h_c."""
    alpha = tuple(alpha)
    if a + b + c != sum(alpha):
        raise ValueError(f"(a,b,c)={(a, b, c)} must sum to |alpha|={sum(alpha)}")
    if min(a, b, c) < 0:
        return QTR_ZERO
    return _lhs_inner_cached(alpha, a, b, c)


@lru_cache(maxsize=None)
def _lhs_inner_cached(alpha: Composition, a: int, b: int, c: int) -> QtRational:
    f = _nabla_c_word(alpha).coeffs
    total = QTR_ZERO
    for lam, k in _eh_schur(a, b, c).items():
        x = f.get(lam)
        if x is not None:
            total = total + x * k
    return total


# ---------------------------------------------------------------------------
# shared plethystic building blocks (cached)
# ---------------------------------------------------------------------------


_INV_M = capital_m().inverse()
_INV_1MT = (1 - T).inverse()


@lru_cache(maxsize=None)
def _scalar_pleth(base, k: int, v: QtRational) -> QtRational:
    """base(k)[v] for base e_ or h_ and the scalar alphabet v; zero for k < 0."""
    return plethysm_eval(base(k), v)


@lru_cache(maxsize=None)
def _x_pleth(base, k: int, v: QtRational) -> SymFunc:
    """base(k)[X v] for base e_ or h_ and a scalar v; zero for k < 0."""
    return plethysm(base(k), Alphabet.X(v))


@lru_cache(maxsize=None)
def _nabla_hee(a: int, b: int, c: int) -> SymFunc:
    """nabla (h_a^* e_b^* e_c^*)."""
    if min(a, b, c) < 0:
        return SymFunc.zero()
    f = _x_pleth(h_, a, _INV_M) * _x_pleth(e_, b, _INV_M) * _x_pleth(e_, c, _INV_M)
    return nabla(f)


@lru_cache(maxsize=None)
def _adjoint_nabla_hee(adjoint, m: int, a: int, b: int, c: int) -> SymFunc:
    """adjoint(m, nabla (h_a^* e_b^* e_c^*)), adjoint being op_C_star or op_B_star."""
    return adjoint(m, _nabla_hee(a, b, c))


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


# ---------------------------------------------------------------------------
# identity registry
# ---------------------------------------------------------------------------


@dataclass
class IdentityReport:
    ident: str
    params: dict
    passed: bool
    lhs: str
    rhs: str


def _sym_canonical(f: SymFunc) -> str:
    fp = f.to_power()
    items = sorted(fp.coeffs.items())
    return "; ".join(f"p{list(lam)}={c.canonical()}" for lam, c in items) or "0"


def _report(ident, params, lhs, rhs) -> IdentityReport:
    if isinstance(lhs, SymFunc) or isinstance(rhs, SymFunc):
        passed = lhs == rhs
        return IdentityReport(ident, params, passed, _sym_canonical(lhs), _sym_canonical(rhs))
    if isinstance(lhs, QtRational):
        return IdentityReport(ident, params, lhs == rhs, lhs.canonical(), rhs.canonical())
    return IdentityReport(ident, params, lhs == rhs, repr(lhs), repr(rhs))


def _tensor_canonical(d: dict) -> str:
    return "; ".join(f"{k}={v.canonical()}" for k, v in sorted(d.items())) or "0"


def _check_cauchy(n: int) -> IdentityReport:
    """Reproducing-kernel decomposition on a two-alphabet tensor basis."""
    lhs: dict = {}
    for lam, c in e_(n).to_power().coeffs.items():
        v = c
        for part in lam:
            v = v * capital_m().frobenius(part).inverse()
        lhs[(lam, lam)] = v
    rhs: dict = {}
    table = build_htilde(n)
    for mu in partitions_of(n):
        hmu = table.power[mu]
        winv = table.invariants[mu].w.inverse()
        for lam, cx in hmu.coeffs.items():
            for rho, cy in hmu.coeffs.items():
                key = (lam, rho)
                cur = rhs.get(key, QTR_ZERO) + cx * cy * winv
                if cur.is_zero():
                    rhs.pop(key, None)
                else:
                    rhs[key] = cur
    passed = lhs == rhs
    return IdentityReport("cauchy", {"n": n}, passed, _tensor_canonical(lhs), _tensor_canonical(rhs))


def _check_sym_ab(alpha: Partition, beta: Partition) -> IdentityReport:
    ia, ib = partition_invariants(alpha), partition_invariants(beta)
    M = capital_m()
    ha = build_htilde(sum(alpha)).power[alpha]
    hb = build_htilde(sum(beta)).power[beta]
    lhs_a = plethysm_eval(ha, M * ib.B) / ia.Pi
    rhs_a = plethysm_eval(hb, M * ia.B) / ib.Pi
    lhs_b = plethysm_eval(ha, ib.D) / ia.T * _sign(sum(alpha))
    rhs_b = plethysm_eval(hb, ia.D) / ib.T * _sign(sum(beta))
    passed = lhs_a == rhs_a and lhs_b == rhs_b
    return IdentityReport(
        "sym-ab",
        {"alpha": alpha, "beta": beta},
        passed,
        f"a:{lhs_a.canonical()} b:{lhs_b.canonical()}",
        f"a:{rhs_a.canonical()} b:{rhs_b.canonical()}",
    )


def _report_pairs(ident, params, pairs) -> IdentityReport:
    """One report over several scalar (lhs, rhs) pairs, each side joined by '; '."""
    return IdentityReport(
        ident,
        params,
        all(lhs == rhs for lhs, rhs in pairs),
        "; ".join(lhs.canonical() for lhs, _ in pairs) or "0",
        "; ".join(rhs.canonical() for _, rhs in pairs) or "0",
    )


def _check_pieri_rel(mu: Partition) -> IdentityReport:
    M = capital_m()
    wm = partition_invariants(mu).w
    # the raw coefficients: pieri() asserts this same relation and would raise
    pairs = [
        (_d_coeff(mu, nu), M * _c_coeff(mu, nu) * partition_invariants(nu).w / wm)
        for nu in sorted(corners(mu)[0])
    ]
    return _report_pairs("pieri-rel", {"mu": mu}, pairs)


def _check_sum_c(mu: Partition, k: int) -> IdentityReport:
    lhs = _pieri_sum(mu, "remove", k)
    if k == 0:
        rhs = partition_invariants(mu).B
    else:
        M = capital_m()
        val = partition_invariants(mu).D / (T * Q)
        rhs = (T * Q / M) * plethysm_eval(h_(k + 1), val)
    return _report("sum-c", {"mu": mu, "k": k}, lhs, rhs)


def _check_sum_d(nu: Partition, k: int) -> IdentityReport:
    lhs = _pieri_sum(nu, "add", k)
    if k == 0:
        rhs = QTR_ONE
    else:
        rhs = _scalar_pleth(e_, k - 1, partition_invariants(nu).D) * _sign(k - 1)
    return _report("sum-d", {"nu": nu, "k": k}, lhs, rhs)


def _check_exp_abc(n: int, k: int) -> IdentityReport:
    lhs = _x_pleth(h_, k, _INV_M) * _x_pleth(e_, n - k, _INV_M)
    rhs = SymFunc.zero()
    table = build_htilde(n)
    for mu in partitions_of(n):
        coeff = _scalar_pleth(e_, k, table.invariants[mu].B) / table.invariants[mu].w
        rhs = rhs + table.power[mu].scale(coeff)
    return _report("exp-abc", {"n": n, "k": k}, lhs, rhs)


@lru_cache(maxsize=None)
def _htilde_at_d(nu: Partition, mu: Partition) -> QtRational:
    """H~_nu evaluated at the scalar alphabet D_mu."""
    return plethysm_eval(build_htilde(sum(nu)).power[nu], partition_invariants(mu).D)


def _check_reproducing(fname: str, r: int, lam: Partition | None, n: int) -> IdentityReport:
    if fname == "e":
        f = e_(r)
    elif fname == "h":
        f = h_(r)
    else:
        f = SymFunc("schur", {lam: QTR_ONE})
        r = sum(lam)
    M = capital_m()
    # omega composes with f before the substitution: (omega f)[(X-eps)/M]
    inner = plethysm(
        omega_involution(f),
        Alphabet.X(M.inverse()) - Alphabet.scalar(M.inverse(), eps=True),
    )
    # nabla^{-1} then X -> D_mu, carried out on the eigenbasis expansion
    expansion = [
        (nu, c * partition_invariants(nu).T ** -1) for nu, c in htilde_expand(inner).items()
    ]
    table = build_htilde(n)
    pairs = []
    for mu in partitions_of(n):
        lhs = hall_inner(f * h_(n - r), table.power[mu])
        rhs = QTR_ZERO
        for nu, c in expansion:
            rhs = rhs + c * _htilde_at_d(nu, mu)
        pairs.append((lhs, rhs))
    return _report_pairs("reproducing", {"f": fname, "r": r, "lam": lam, "n": n}, pairs)


def _check_erh(mu: Partition, r: int) -> IdentityReport:
    n = sum(mu)
    lhs = hall_inner(build_htilde(n).power[mu], e_(r) * h_(n - r))
    rhs = _scalar_pleth(e_, r, partition_invariants(mu).B)
    return _report("erh", {"mu": mu, "r": r}, lhs, rhs)


def _check_commute(a: int, b: int, P: SymFunc, tag: str) -> IdentityReport:
    lhs = op_B(a, op_C(b, P))
    rhs = op_C(b, op_B(a, P)).scale(Q)
    return _report("commute", {"a": a, "b": b, "P": tag}, lhs, rhs)


def _check_commutator(a: int, b: int, P: SymFunc, tag: str) -> IdentityReport:
    lhs = op_C(b, op_B(a, P)).scale(Q) - op_B(a, op_C(b, P))
    pref = qtr(_sign(a + b - 1)) * (Q - 1) * Q ** (-(b - 1))
    if a + b > 0:
        rhs = SymFunc.zero()
    elif a + b == 0:
        rhs = P.scale(pref)
    else:
        shift = Alphabet.X() + Alphabet.scalar(Q.inverse() - Q)
        rhs = extract_z(P, shift, Alphabet(), a + b).scale(pref)
    return _report("commutator", {"a": a, "b": b, "P": tag}, lhs, rhs)


def _corner_sum(a: int, b: int, n: int, block) -> SymFunc:
    """sum over r <= a, s <= b, nu |- r+s of
    e_{a-r}[1/M] h_{b-s}[1/M] (-1)^(n-r-s) e_r[B_nu] / w_nu * block(nu)."""
    out = SymFunc.zero()
    for r in range(a + 1):
        for s in range(b + 1):
            pref = _scalar_pleth(e_, a - r, _INV_M) * _scalar_pleth(h_, b - s, _INV_M)
            pref = pref * _sign(n - r - s)
            if pref.is_zero():
                continue
            acc = SymFunc.zero()
            for nu in partitions_of(r + s):
                inv = partition_invariants(nu)
                coeff = _scalar_pleth(e_, r, inv.B) / inv.w
                if not coeff.is_zero():
                    acc = acc + block(nu).scale(coeff)
            out = out + acc.scale(pref)
    return out


_BLOCK_WEIGHTS = {
    "gamma": lambda nu, u: T ** (u - 1) * capital_m() * _pieri_sum(nu, "remove", u - 1),
    "phi1": lambda nu, u: _scalar_pleth(e_, u - 1, partition_invariants(nu).D) * _sign(u - 1),
    "phi2": lambda nu, u: _scalar_pleth(e_, u - 2, partition_invariants(nu).D) * _sign(u),
}


@lru_cache(maxsize=None)
def _corner_block(kind: str, m: int, n: int, nu: Partition) -> SymFunc:
    """(-1)^(m-1) sum over m <= u <= n of weight(nu, u) e_{n-u}[X D_nu/M] e_{u-m}[X/(1-t)]."""
    weight = _BLOCK_WEIGHTS[kind]
    d_over_m = partition_invariants(nu).D / capital_m()
    out = SymFunc.zero()
    for u in range(m, n + 1):
        cu = weight(nu, u)
        if not cu.is_zero():
            out = out + (_x_pleth(e_, n - u, d_over_m) * _x_pleth(e_, u - m, _INV_1MT)).scale(cu)
    return out.scale(_sign(m - 1))


def _check_lemma31(a: int, b: int, c: int) -> IdentityReport:
    n, M = a + b + c, capital_m()
    rhs = _corner_sum(a, b, n, lambda nu: _x_pleth(e_, n, partition_invariants(nu).D / M))
    return _report("lemma31", {"a": a, "b": b, "c": c}, _nabla_hee(a, b, c), rhs)


def _check_lemma32(m: int, nu: Partition, n: int) -> IdentityReport:
    d_over_m = partition_invariants(nu).D / capital_m()
    lhs = op_C_star(m, _x_pleth(e_, n, d_over_m))
    rhs = _corner_block("gamma", m, n, nu)
    if m == 1:
        rhs = rhs - _x_pleth(e_, n - 1, d_over_m)
    return _report("lemma32", {"m": m, "nu": nu, "n": n}, lhs, rhs)


def _check_prop31(m: int, a: int, b: int, n: int) -> IdentityReport:
    c = n - a - b
    lhs = _adjoint_nabla_hee(op_C_star, m, a, b, c)
    rhs = _corner_sum(a, b, n, lambda nu: _corner_block("gamma", m, n, nu))
    if m == 1:
        rhs = rhs + _nabla_hee(a, b, c - 1)
    return _report("prop31", {"m": m, "a": a, "b": b, "n": n}, lhs, rhs)


@lru_cache(maxsize=None)
def _phi1(m: int, a: int, b: int, n: int) -> SymFunc:
    return _corner_sum(a - 1, b, n - 1, lambda tau: _corner_block("phi1", m, n, tau))


@lru_cache(maxsize=None)
def _phi2(m: int, a: int, b: int, n: int) -> SymFunc:
    return _corner_sum(a, b - 1, n - 1, lambda tau: _corner_block("phi2", m, n, tau))


def _check_thm31(m: int, a: int, b: int, n: int) -> IdentityReport:
    c = n - a - b
    lhs = _adjoint_nabla_hee(op_C_star, m, a, b, c)
    rhs = (_phi1(m, a, b, n) + _phi2(m, a, b, n)).scale(T ** (m - 1))
    if m == 1:
        rhs = rhs + _nabla_hee(a, b, c - 1) + _nabla_hee(a, b - 1, c)
    return _report("thm31", {"m": m, "a": a, "b": b, "n": n}, lhs, rhs)


def _check_thm32(m: int, a: int, b: int, n: int) -> IdentityReport:
    c = n - a - b
    lhs1 = _phi1(m, a, b, n)
    rhs1 = _adjoint_nabla_hee(op_B_star, m - 1, a - 1, b, c)
    lhs2 = _phi2(m, a, b, n)
    rhs2 = _adjoint_nabla_hee(op_B_star, m - 2, a, b - 1, c - 1)
    passed = lhs1 == rhs1 and lhs2 == rhs2
    return IdentityReport(
        "thm32",
        {"m": m, "a": a, "b": b, "n": n},
        passed,
        f"1:{_sym_canonical(lhs1)} 2:{_sym_canonical(lhs2)}",
        f"1:{_sym_canonical(rhs1)} 2:{_sym_canonical(rhs2)}",
    )


def _check_thm21(m: int, a: int, b: int, c: int) -> IdentityReport:
    lhs = _adjoint_nabla_hee(op_C_star, m, a, b, c)
    tm = T ** (m - 1)
    rhs = _adjoint_nabla_hee(op_B_star, m - 1, a - 1, b, c).scale(tm)
    rhs = rhs + _adjoint_nabla_hee(op_B_star, m - 2, a, b - 1, c - 1).scale(tm)
    if m == 1:
        rhs = rhs + _nabla_hee(a, b - 1, c) + _nabla_hee(a, b, c - 1)
    return _report("thm21", {"m": m, "a": a, "b": b, "c": c}, lhs, rhs)


def _check_rec_m(m: int, alpha: Composition, a: int, b: int, c: int) -> IdentityReport:
    if m <= 1:
        raise ValueError("this recursion case needs m > 1")
    lhs = lhs_inner((m,) + tuple(alpha), a, b, c)
    rhs = recursion_rhs(lhs_inner, m, alpha, a, b, c)
    return _report("rec-m", {"m": m, "alpha": alpha, "a": a, "b": b, "c": c}, lhs, rhs)


def _check_rec_1(alpha: Composition, a: int, b: int, c: int) -> IdentityReport:
    alpha = tuple(alpha)
    lhs = lhs_inner((1,) + alpha, a, b, c)
    rhs = recursion_rhs(lhs_inner, 1, alpha, a, b, c)
    return _report("rec-1", {"alpha": alpha, "a": a, "b": b, "c": c}, lhs, rhs)


def _check_en_decomp(n: int) -> IdentityReport:
    total = SymFunc.zero()
    for p in compositions_of(n):
        total = total + c_word(p)
    return _report("en-decomp", {"n": n}, total, e_(n).to_power())


_REGISTRY = {
    "cauchy": _check_cauchy,
    "sym-ab": _check_sym_ab,
    "pieri-rel": _check_pieri_rel,
    "sum-c": _check_sum_c,
    "sum-d": _check_sum_d,
    "exp-abc": _check_exp_abc,
    "reproducing": _check_reproducing,
    "erh": _check_erh,
    "commute": _check_commute,
    "commutator": _check_commutator,
    "lemma31": _check_lemma31,
    "lemma32": _check_lemma32,
    "prop31": _check_prop31,
    "thm31": _check_thm31,
    "thm32": _check_thm32,
    "thm21": _check_thm21,
    "rec-m": _check_rec_m,
    "rec-1": _check_rec_1,
    "en-decomp": _check_en_decomp,
}


def identity_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def check_identity(ident: str, **params) -> IdentityReport:
    fn = _REGISTRY.get(ident)
    if fn is None:
        raise ValueError(f"unknown identity id {ident!r}; known: {', '.join(identity_ids())}")
    return fn(**params)
