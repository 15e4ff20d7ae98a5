"""The modified Macdonald basis, nabla, Pieri coefficients, the creation
operators and their star-adjoints, and the registry of checkable identities.

A table is K~ alone: the Schur coefficients of each H~_mu, mu |- n, as
integer polynomials.  _hhl_schur builds it per degree in integers from the
Haglund-Haiman-Loehr formula (fillings of mu counted by shapes.count_fillings
without listing them, in fundamental quasisymmetric functions, solved for the
Schur functions as a unitriangular system); a cache file's degree must be an
int in 0..12 and its keys partitions of it, checked before anything is built
from them, and its coefficients must parse as integer polynomials.  Before
use, verify() checks the defining invariants or raises TableInvariantError:
<H~_mu, h_n> = K~_mu,(n) = 1, and <H~_lam, H~_mu>_* = delta w_mu.  As
<f, g>_* = <f[X(1-t)], omega g[X(1-q)]>, the star Gram matrix of the Schur
functions is G_n = P_t J P_q^T, P_q = ([s_nu] s_lam[X(1-q)]) and P_t the same
in t (_plethysm_rows, summed from characters), J the conjugation of the
column index; so the Gram matrix of the table is (K~ P_t) J (K~ P_q)^T,
three _packed_products.  That is the one exact product of integer
Laurent-polynomial matrices here: each row of the first factor and each later
factor divided by its least monomial, all packed at q = 2^k, t = 2^(kD) with
D and k from one proven degree and coefficient bound, multiplied as Python
ints, and each entry read back (unkronecker) with its monomial put back on.
A loaded table is verified once, on load; install_table does not repeat it.

Each coefficient on the H~ basis is <f, H~_mu>_* / w_mu (HTildeTable.coeff):
the expansion behind both Pieri directions, which one loop in pieri() computes
and checks against d_{mu,nu} = M c_{mu,nu} w_nu / w_mu.

nabla is one Schur-basis matrix per table, R = K~^-1 diag(T_mu) K~, built by
HTildeTable.int_rows on first use, never on build, load or install:
verify() gives K~^-1 = G_n K~^T diag(1/w_mu) = P_t J (K~ P_q)^T diag(1/w_mu),
R is guessed at one point from those factors (_guess_rows) and certified by
K~ R = diag(T_mu) K~, one _packed_product.
The table keeps R as those certified integer polynomials and nothing else;
the nabla^-1 rows are read off them when nabla(f, -1) asks, as R under omega
and q,t -> 1/q,1/t.  A table converts K~ to power sums (HTildeTable.power)
only when something first reads them.

Every creation operator is one cached Schur row per (a, lam) of integer
Laurent polynomials in q, read off Pieri strips (_op_row): C_a, B_a and the
commutator's shift.  A star-adjoint is the same rows transposed in the frame
S f = f[MX], as S A* S^-1 = omega A^T omega (_star_rows).  nabla^sign, op_C,
op_B, op_C_star and op_B_star are each one map of a function's Schur
coefficients through integer rows, one QtRational per entry (_map_rows).  In
the frame the registry's nabla(h_a^* e_b^* e_c^*) has the integer s_nu
coefficients <nabla s_nu', e_a h_b h_c> (_framed_nabla_hee), and C*_m, B*_m
of it are integer products with the transposed rows, mapped back by one
division per power-sum coefficient (_unframe).

lhs_inner(alpha, a, b, c) = <nabla C_alpha 1, e_a h_b h_c> stays in the Schur
basis, which is orthonormal, and in integers until its one result.  C_alpha 1
is C_{alpha_1} applied through its rows to the word of alpha[1:], the words
of one degree built and cached together, one _packed_product per first part
(_c_words).  nabla C_alpha 1 for every alpha |= n is the matrix of those
words times the integer rows R, one _packed_product cached per degree
(_nabla_c_words).  e_a h_b h_c per triple is integers read off Pieri strips
(_eh_schur), and the pairing is their integer dot product (_schur_pairing),
made one QtRational per call by one division by a monomial.  The registry's
adjoint products are one-row _packed_products.  c_word and shuffle-qsym
build one QtRational per Schur coefficient from the same integers
(_laurent_schur); c_word, nabla_c_word and lhs_inner refuse a part below 1,
as pi_poly does.  The recursion suite (cli) applies
shapes.recursion_rhs to lhs_inner and to the parking side's pi_poly alike.

Lemma 3.1, Proposition 3.1 and Theorems 3.1-3.2 expand over the same corners:
a sum over r <= a, s <= b, nu |- r+s of scalars times a block(nu) that depends
only on the key of the family, ("lemma31", n), ("gamma", m, n) or
("phi1" | "phi2", m, n); Lemma 3.2 checks the gamma block itself
(_corner_block).  Each key has one cached table of its corner sums for every
a + b <= N (_corner_table), built in three stages that share the inner
nu-sums: A(r, d) over nu |- d, their s-partial sums G(r, b), then the entries.
_corner_sum reads an entry off it; the weights e_r[B_nu]/w_nu are cached per
(r, nu) for all tables (_corner_weight).

check_identity returns the values an identity compares, as a list of
(label, lhs, rhs) triples, the label None unless the sides are named (thm32's
"1"/"2", sym-ab's "a"/"b"); cli judges and renders them.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from functools import cached_property, lru_cache, reduce
from math import factorial, lcm, prod

from .qtfield import (
    Q,
    QTR_ONE,
    QTR_ZERO,
    QtRational,
    T,
    int_poly,
    kronecker,
    laurent,
    parse_rational,
    qtr,
    unkronecker,
)
from .shapes import (
    Composition,
    Partition,
    add_strip,
    capital_m,
    cell_stats,
    check_abc,
    check_composition,
    compositions_of,
    conjugate,
    corners,
    count_fillings,
    partition_invariants,
    partition_str,
    parse_partition,
    partitions_of,
    remove_strip,
    zmu,
)
from .symfunc import (
    Alphabet,
    SymFunc,
    _syt_descent_counts,
    character,
    check_degree,
    e_,
    h_,
    hall_inner,
    linear_map,
    omega_involution,
    plethysm,
    plethysm_eval,
    skew_by_e1,
    star_inner,
)


class TableInvariantError(RuntimeError):
    """A Macdonald table failed its defining invariants (convention bug)."""


# ---------------------------------------------------------------------------
# the modified Macdonald table
# ---------------------------------------------------------------------------


class HTildeTable:
    """Per-degree table mu -> modified Macdonald polynomial (Schur basis)."""

    def __init__(self, degree: int, kostka: dict):
        self.degree = degree
        self.kostka = kostka  # mu -> {lam: K~_mu,lam as a nonzero integer polynomial}
        self.verified = False

    def __getitem__(self, mu: Partition) -> SymFunc:
        """H~_mu in the Schur basis."""
        return SymFunc._make("schur", {lam: QtRational(p) for lam, p in self.kostka[tuple(mu)].items()})

    @cached_property
    def power(self) -> dict[Partition, SymFunc]:
        """mu -> H~_mu in power sums, converted on first use (verify() and the
        nabla rows read K~ only)."""
        return {mu: self[mu].to_power() for mu in self.kostka}

    def coeff(self, f: SymFunc, mu: Partition) -> QtRational:
        """Coefficient of H~_mu in f: <f, H~_mu>_* / w_mu."""
        return star_inner(f, self.power[mu]) / partition_invariants(mu).w

    @cached_property
    def int_rows(self) -> dict:
        """{lam: {nu: R_lam,nu}}, the nabla rows R = K~^-1 diag(T_mu) K~ as
        certified integer polynomials, K~ the Schur coefficients; computed on
        first use and kept, for nabla^sign (nabla), the words of each degree
        (_nabla_c_words) and the registry's framed sides.

        _guess_rows reads R off one point, from K~ and the plethysm rows
        P_q, P_t that verify() reads, and the certificate, the
        _packed_product K~ R compared as a dict with diag(T_mu) K~, fixes it,
        as K~ is invertible (verify()).  A guess that is no integer or fails
        doubles k and keeps D; after _ROW_ATTEMPTS tries the table raises
        TableInvariantError (the first guess holds through degree 9, see
        _row_start).
        """
        if not self.verified:
            self.verify()
        n, kostka = self.degree, self.kostka
        eigen = {}  # row mu of diag(T_mu) K~
        for mu in kostka:
            inv = partition_invariants(mu)
            a, b = inv.nmu_conj, inv.nmu
            eigen[mu] = {nu: {(i + a, j + b): c for (i, j), c in p.items()} for nu, p in kostka[mu].items()}
        k = _row_start(max(_size(p) for row in kostka.values() for p in row.values()), n)
        D = 1 + n * (n - 1) // 2  # above every q-degree of K~ and R, and >= n: no w_mu vanishes at the point
        for _ in range(_ROW_ATTEMPTS):
            rows = _guess_rows(kostka, _plethysm_rows(n), k, D)
            if rows is not None and _packed_product([kostka, rows]) == eigen:
                return rows
            k *= 2
        raise TableInvariantError(f"nabla rows of degree {n} failed their certificate")

    def verify(self) -> None:
        """Assert the support (one row per mu |- n, each indexed by partitions
        of n), <H~_mu, h_n> = K~_mu,(n) = 1 and <H~_lam, H~_mu>_* = delta w_mu
        for lam >= mu, exactly, compared with the norms.

        <f, g>_* = <f[X(1-t)], omega g[X(1-q)]> (Hall), as on p_rho both sides
        are z_rho eps_rho prod over parts j of (1-q^j)(1-t^j); so the Gram
        matrix is (K~ P_t) J (K~ P_q)^T, P_q and P_t the plethysm rows
        (_plethysm_rows) and J the conjugation of the column index.  Each
        factor K~ P_q, K~ P_t and the Gram entries is one _packed_product.
        On the true table row mu of K~ P_q, H~_mu[X(1-q)], has s_nu only for
        nu >= mu in dominance, and row mu of K~ P_t only for nu >= mu', so
        each entry sums over a few nu; the check does not rely on it."""
        parts = partitions_of(self.degree)
        kostka, support = self.kostka, set(parts)
        if kostka.keys() != support or any(row.keys() - support for row in kostka.values()):
            raise TableInvariantError(f"degree {self.degree} table has wrong support")
        norms = {mu: {mu: int_poly(partition_invariants(mu).w)} for mu in parts}
        read = {lam: parts[: i + 1] for i, lam in enumerate(parts)}  # (lam, mu) for lam >= mu
        pq, pt = _plethysm_rows(self.degree)
        u, v = _packed_product([kostka, pq]), _packed_product([kostka, pt])
        gram = _packed_product([_conjugate_columns(v), _transpose(u)], read)
        for i, mu in enumerate(parts):
            if kostka[mu].get(parts[0]) != {(0, 0): 1}:  # parts[0] is (n), or () in degree 0
                raise TableInvariantError(f"normalization failed for {mu}")
            for lam in parts[i:]:
                if gram[lam].get(mu) != norms[lam].get(mu):
                    raise TableInvariantError(f"orthogonality failed at ({lam}, {mu})")
        self.verified = True

    # -- cache file round trip

    def to_json(self) -> dict:
        entries = {
            partition_str(mu): {partition_str(lam): QtRational(p).canonical() for lam, p in sorted(row.items())}
            for mu, row in sorted(self.kostka.items())
        }
        return {"degree": self.degree, "format": 1, "entries": entries}

    @classmethod
    def from_json(cls, data: dict) -> "HTildeTable":
        if data.get("format") != 1:
            raise ValueError(f"unsupported table format: {data.get('format')!r}")
        # the degree and every key are checked before anything is built from
        # them: the invariants of a key, and the partitions of a degree, cost
        # time in their size
        degree = data["degree"]
        if type(degree) is not int or degree < 0:
            raise ValueError(f"table degree must be a nonnegative integer, got {degree!r}")
        check_degree(degree)

        def key(text: str) -> Partition:
            shape = parse_partition(text)
            if sum(shape) != degree:
                raise TableInvariantError(f"key {text} of the degree {degree} table is no partition of {degree}")
            return shape

        kostka = {}
        for mu_s, coeffs in data["entries"].items():
            mu = key(mu_s)
            row = kostka[mu] = {}
            for lam_s, c in coeffs.items():
                lam = key(lam_s)
                if (p := int_poly(parse_rational(c))) is None:  # the true K~_mu,lam lie in N[q,t] (Haiman)
                    raise TableInvariantError(f"integrality failed at ({mu}, {lam}): K~_mu,lam not in Z[q,t]")
                if p:
                    row[lam] = p
        table = cls(degree, kostka)
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


def _transpose(m: dict) -> dict:
    out: dict = {}
    for i, row in m.items():
        for j, x in row.items():
            out.setdefault(j, {})[i] = x
    return out


def _conjugate_columns(m: dict) -> dict:
    """m J: the column index of m conjugated."""
    return {i: {conjugate(j): x for j, x in row.items()} for i, row in m.items()}


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


def _pack(m: dict, k: int, D: int, lows: dict | None = None) -> dict:
    """m with every entry packed by qtfield.kronecker at (k, D), each row i
    first divided by the monomial q^a t^b, (a, b) = lows[i] ((0, 0) when lows
    is None), which must leave it no negative exponent."""
    out = {}
    for i, row in m.items():
        a, b = lows[i] if lows else (0, 0)
        out[i] = {j: sum(c << k * (e - a + D * (f - b)) for (e, f), c in p.items()) for j, p in row.items()}
    return out


def _packed_product(factors: list, entries: dict | None = None) -> dict:
    """The product of the matrices in factors, {row: {col: p}} each with p an
    integer Laurent polynomial {(q-exp, t-exp): int}, as one kronecker-packed
    product of Python ints: {row: {col: p}}, zero entries left out.  entries
    ({row: cols}), when given, names the entries the caller reads; the last
    stage computes only those.

    Each row of the first factor is divided by the monomial of its least q-
    and t-exponents, and each later factor by the monomial of its own, so
    every factor is a polynomial and the product is the shifted product times
    those monomials.  kronecker is a ring homomorphism, injective on
    polynomials of q-degree below D with coefficients below 2^(k-1) in
    absolute value.  A shifted entry has q-degree at most the largest q-span
    of a first-factor row plus the later factors' q-spans, so below
    D = 1 + that sum, and no coefficient above the matching entry of the
    product of the factors' 1-norm matrices (|f g|_1 <= |f|_1 |g|_1), so
    below 2^(k-1) for k = 1 + the bit length of its largest entry.  So
    unkronecker reads every entry back exactly, and the monomials go back on.
    The last stage runs row by row, each row read back before the next.
    """
    first, rest = factors[0], factors[1:]
    row_shifts = {i: _low_span(row.values()) for i, row in first.items()}
    shifts = [_low_span(p for row in f.values() for p in row.values()) for f in rest]
    D = 1 + max((span for _, span in row_shifts.values()), default=0) + sum(span for _, span in shifts)
    norms = [{i: {j: _size(p) for j, p in row.items()} for i, row in f.items()} for f in factors]
    k = 1 + max((x for row in reduce(_matmul, norms).values() for x in row.values()), default=0).bit_length()
    packed = [_pack(first, k, D, {i: low for i, (low, _) in row_shifts.items()})]
    packed += [_pack(f, k, D, dict.fromkeys(f, low)) for f, (low, _) in zip(rest, shifts)]
    head, last = reduce(_matmul, packed[:-1]), packed[-1]
    cols = _transpose(last) if entries is not None else None
    q0, t0 = sum(low[0] for low, _ in shifts), sum(low[1] for low, _ in shifts)
    out = {}
    for i, row in head.items():
        if entries is None:
            acc = _matmul({i: row}, last)[i]
        else:
            acc = {j: _dot(row, cols.get(j, {})) for j in entries.get(i, ())}
        (a, b), _ = row_shifts[i]
        a, b, got = a + q0, b + t0, {}
        for j, x in acc.items():
            if x:
                p = unkronecker(x, k, D)
                got[j] = {(e + a, f + b): c for (e, f), c in p.items()} if a or b else p
        out[i] = got
    return out


def _dot(u: dict, v: dict) -> int:
    if len(v) < len(u):
        u, v = v, u
    return sum(x * v[j] for j, x in u.items() if j in v)


def _nonzero(coeffs: dict) -> dict:
    """coeffs, integer Laurent polynomials keyed by shape, without zero terms
    or zero polynomials."""
    return {lam: x for lam, p in coeffs.items() if (x := {e: c for e, c in p.items() if c})}


def _low_span(polys) -> tuple:
    """((the least q-exponent, the least t-exponent), the q-span) of the
    integer Laurent polynomials, or ((0, 0), 0) when they have no term."""
    keys = [e for p in polys for e in p]
    if not keys:
        return (0, 0), 0
    qs = [i for i, _ in keys]
    return (min(qs), min(j for _, j in keys)), max(qs) - min(qs)


def _laurent_schur(coeffs: dict) -> SymFunc:
    """The symmetric function with Schur coefficients coeffs, integer Laurent
    polynomials, one QtRational each (qtfield.laurent)."""
    return SymFunc._make("schur", {lam: laurent(p) for lam, p in coeffs.items()})


@lru_cache(maxsize=None)
def _plethysm_rows(n: int) -> tuple[dict, dict]:
    """(P_q, P_t), P_q = {lam: {nu: [s_nu] s_lam[X(1-q)]}} over lam, nu |- n
    as integer polynomials in q and P_t the same in t, one pair for every
    table of degree n.  As p_rho[X(1-q)] = p_rho prod over parts j of
    (1 - q^j), the entry is the sum over rho of chi^lam(rho) chi^nu(rho)
    prod (1 - q^j) / z_rho, summed times n! on plain ints and divided
    exactly; it is symmetric in lam and nu."""
    parts, nfact = partitions_of(n), factorial(n)
    weight = {}  # rho -> (n!/z_rho) prod (1 - q^j), {q-exp: int}
    for rho in parts:
        w = {0: nfact // zmu(rho)}
        for j in rho:
            nxt = dict(w)
            for e, x in w.items():
                nxt[e + j] = nxt.get(e + j, 0) - x
            w = nxt
        weight[rho] = w
    pq: dict = {lam: {} for lam in parts}
    for i, lam in enumerate(parts):
        for nu in parts[i:]:
            total: dict = {}
            for rho, w in weight.items():
                if c := character(lam, rho) * character(nu, rho):
                    for e, x in w.items():
                        total[e] = total.get(e, 0) + c * x
            if p := {(e, 0): x // nfact for e, x in total.items() if x}:
                pq[lam][nu] = pq[nu][lam] = p
    pt = {lam: {nu: {(0, e): x for (e, _), x in p.items()} for nu, p in row.items()} for lam, row in pq.items()}
    return pq, pt


_ROW_ATTEMPTS = 4  # HTildeTable.int_rows doubles the bits per slot k three times at most


def _row_start(norm: int, n: int) -> int:
    """Bits per slot of HTildeTable.int_rows' first guess at degree n, norm
    the largest |K~_mu,nu|_1.  The rows outgrow the norms by a factor that
    about doubles per degree: at degrees 4..9 their largest |coefficient| is
    2, 5, 14, 58, 222, 990 against norms 3, 6, 16, 35, 90, 216, so
    max(1, n - 6) bits above the norm's length cover them (k = 9 at degree 8,
    11 at degree 9, 2^10 > 990).  Each retry doubles k; the slot stride
    D = 1 + n(n-1)/2 already exceeds every q-degree of the rows, so it stays."""
    return norm.bit_length() + max(1, n - 6)


def _guess_rows(kostka: dict, plethysm_rows: tuple, k: int, D: int) -> dict | None:
    """{lam: {nu: R_lam,nu}} read off R = K~^-1 diag(T_mu) K~ at q = 2^k,
    t = 2^(kD), or None when a value is no integer (plethysm_rows =
    _plethysm_rows(n), (P_q, P_t)).

    verify() showed K~ G_n K~^T = diag(w_mu), G_n = P_t J P_q^T the star Gram
    matrix, so K~^-1 = P_t J (K~ P_q)^T diag(1/w_mu), read here at the point
    as packing is a ring homomorphism; with common the lcm of the w_mu at
    the point, common R = P_t J (K~ P_q)^T diag(T_mu common / w_mu) K~ is
    one integer product, then one exact division per entry.  No w_mu
    vanishes there when D >= n: a factor q^a - t^(l+1) or t^l - q^(a+1) of
    w_mu is zero only if a = D(l+1) or Dl = a+1, and a + l < n.
    """
    pq, pt = plethysm_rows
    packed_norm = {mu: kronecker(int_poly(partition_invariants(mu).w), k, D) for mu in kostka}
    common = lcm(*packed_norm.values())
    packed = _pack(kostka, k, D)
    u = _matmul(packed, _pack(pq, k, D))  # K~ P_q at the point
    inverse = _matmul(_pack(_conjugate_columns(pt), k, D), _transpose(u))  # K~^-1 diag(w_mu) at the point
    for row in inverse.values():
        for mu, x in row.items():
            inv = partition_invariants(mu)
            row[mu] = x * (common // packed_norm[mu]) << k * (inv.nmu_conj + D * inv.nmu)
    product = _matmul(inverse, packed)
    if any(x % common for row in product.values() for x in row.values()):
        return None
    return {lam: {nu: unkronecker(x // common, k, D) for nu, x in row.items()} for lam, row in product.items()}


_tables: dict[int, HTildeTable] = {}
_tables_lock = threading.Lock()


def _hhl_schur(mu: Partition) -> dict:
    """{lam: K~_mu,lam}, the Schur coefficients of H~_mu as integer
    polynomials, by the Haglund-Haiman-Loehr formula: H~_mu is the sum over
    fillings w of mu by 1..n of q^inv(w) t^maj(w) F_iDes(read w).

    The reading order runs row by row from the top, each row left to right.
    A descent is a cell whose value exceeds the value directly below it;
    maj sums leg+1 over descents.  Two cells attack when they share a row or
    when the lower one is one row down and strictly to the left; inv counts
    attacking pairs read larger value first, minus the arms of the descents.
    Both are sums over pairs of cells, so shapes.count_fillings counts the
    fillings by (iDes, inv, maj) without listing the n! of them.

    s_nu is the sum of F_Des(T) over the standard tableaux T of shape nu; a T
    with Des(T) = S(lam), the partial sums of lam, exists only if nu dominates
    lam, and is unique if nu = lam.  So K~_mu,lam is [F_S(lam)] H~_mu less
    K~_mu,nu #{T: Des(T) = S(lam)} over the nu before lam in partitions_of.
    """
    n = sum(mu)
    order = [(col, row) for row in reversed(range(len(mu))) for col in range(mu[row])]
    at = {cell: k for k, cell in enumerate(order)}
    gain = [
        (at[u], at[v], 1, 0)
        for u in order
        for v in order
        if at[u] < at[v] and (u[1] == v[1] or (u[1] == v[1] + 1 and v[0] < u[0]))
    ]
    for col, row in order:
        if row:
            arm, leg, _, _ = cell_stats(mu, (col, row))
            gain.append((at[col, row], at[col, row - 1], -arm, leg + 1))
    by_ides: dict[frozenset, dict[tuple[int, int], int]] = {}  # iDes -> q,t terms
    for (ides, inv, maj), c in count_fillings(range(n), gain).items():
        by_ides.setdefault(ides, {})[inv, maj] = c
    out: dict = {}
    for lam in partitions_of(n):
        sums = frozenset(sum(lam[:i]) for i in range(1, len(lam)))
        total = dict(by_ides.get(sums, {}))
        for nu, done in out.items():
            k = _syt_descent_counts(nu).get(sums, 0)
            for key, c in done.items():
                total[key] = total.get(key, 0) - k * c
        if row := {key: c for key, c in total.items() if c}:
            out[lam] = row
    return out


def build_htilde(n: int) -> HTildeTable:
    """Build (or fetch) the degree-n table; invariants asserted before return."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    check_degree(n)  # before any filling is counted, not after
    table = _tables.get(n)
    if table is not None:
        return table
    with _tables_lock:
        table = _tables.get(n)
        if table is not None:
            return table
        table = HTildeTable(n, {mu: _hhl_schur(mu) for mu in partitions_of(n)})
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
        comp, table = fp.homogeneous_component(d), build_htilde(d)
        for mu in partitions_of(d):
            c = table.coeff(comp, mu)
            if not c.is_zero():
                out[mu] = c
    return out


def nabla(f: SymFunc, sign: int = 1) -> SymFunc:
    """The Macdonald eigenoperator (sign=-1 gives its inverse), in power sums:
    f's Schur coefficients through the integer rows R of each degree
    (HTildeTable.int_rows, _map_rows).  As H~_mu[X; 1/q, 1/t] =
    T_mu^-1 omega H~_mu[X; q, t] (Garsia-Haiman) on the table verify() proved,
    [s_nu] nabla^-1 s_lam is [s_nu'] nabla s_lam' at q,t -> 1/q,1/t: each term
    c q^i t^j of R's row lam' becomes c q^-i t^-j."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")

    def row(lam: Partition) -> dict:
        rows = build_htilde(sum(lam)).int_rows
        if sign == 1:
            return rows[lam]
        return {conjugate(nu): {(-i, -j): c for (i, j), c in p.items()} for nu, p in rows[conjugate(lam)].items()}

    return _map_rows(f, row).to_power()


def _map_rows(f: SymFunc, row) -> SymFunc:
    """sum over lam of [s_lam] f times row(lam), each row {kappa: p} with p an
    integer Laurent polynomial made one QtRational (_laurent_schur), in the
    Schur basis."""
    return SymFunc._make("schur", linear_map(f.convert("schur").coeffs, lambda lam: _laurent_schur(row(lam)).coeffs))


# ---------------------------------------------------------------------------
# Pieri coefficients
# ---------------------------------------------------------------------------


def _d_coeff(mu: Partition, nu: Partition) -> QtRational:
    """d_{mu,nu}: coefficient of H~_mu in e_1 H~_nu."""
    return build_htilde(sum(mu)).coeff(e_(1) * build_htilde(sum(nu)).power[nu], mu)


def _c_coeff(mu: Partition, nu: Partition) -> QtRational:
    """c_{mu,nu}: coefficient of H~_nu in e_1-perp H~_mu."""
    return build_htilde(sum(nu)).coeff(skew_by_e1(build_htilde(sum(mu)).power[mu]), nu)


_PIERI_ARROWS = {"add": "<-", "remove": "->"}


def pieri(shape: Partition, direction: str) -> dict[Partition, QtRational]:
    """{mu: d_{mu,shape}} over mu = shape plus a box ("add"), or {nu: c_{shape,nu}}
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
        x = build_htilde(sum(other)).coeff(f, other)
        mu, nu = (other, shape) if add else (shape, other)
        if other in targets:
            coeffs[other] = x
            d, c = (x, _c_coeff(mu, nu)) if add else (_d_coeff(mu, nu), x)
            if d != M * c * partition_invariants(nu).w / partition_invariants(mu).w:
                raise TableInvariantError(f"Pieri relation failed at {mu} {arrow} {nu}")
        elif not x.is_zero():
            raise TableInvariantError(f"spurious Pieri support {mu} {arrow} {nu}")
    return coeffs


@lru_cache(maxsize=None)
def _pieri(shape: Partition, direction: str) -> tuple[tuple[Partition, QtRational], ...]:
    return tuple(sorted(pieri(shape, direction).items()))


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
    return _apply("C", a, P)


def op_B(a: int, P: SymFunc) -> SymFunc:
    """B_a P = P[X + eps(1-q)/z] Omega[-eps zX] |_(z^a); a may be zero or negative."""
    return _apply("B", a, P)


def op_C_star(a: int, P: SymFunc) -> SymFunc:
    """Star-adjoint of op_C, (-1/q)^(a-1) P[X - eps M/z] Omega[-eps zX/(q(1-t))] |_(z^-a);
    lowers the degree by a >= 1."""
    return _apply("C", a, P, star=True)


def op_B_star(a: int, P: SymFunc) -> SymFunc:
    """Star-adjoint of op_B, P[X + M/z] Omega[-zX/(1-t)] |_(z^-a)."""
    return _apply("B", a, P, star=True)


# kind -> ((i, j) -> (exponents of -1 and of q), whether the added strip is vertical,
# None for the shift, whose kernel is empty, so it adds no strip):
#   C_a = (-1/q)^(a-1) sum (-1)^i q^-j h_(a+i+j) e_i^perp h_j^perp, from Omega[zX] = sum z^m h_m;
#   B_a = sum (-1)^j q^i e_(a+i+j) e_i^perp h_j^perp, from Omega[-eps zX] = sum z^m e_m;
#   the commutator's P[X + (1/q - q)/z] |_(z^a) = sum over i + j = -a of (-1)^i q^(i-j) e_i^perp h_j^perp P,
# as f[X + u] = sum u^j h_j^perp f, f[X - u] = sum (-u)^i e_i^perp f for one letter u, and
# f[X + eps u], f[X - eps u] are the same sums with (-u)^j and u^i.
_OPERATORS = {
    "C": (lambda a, i, j: (a - 1 + i, 1 - a - j), False),
    "B": (lambda a, i, j: (j, i), True),
    "shift": (lambda a, i, j: (i, i - j), None),
}


@lru_cache(maxsize=None)
def _op_row(kind: str, a: int, lam: Partition) -> dict[Partition, dict]:
    """{kappa: [s_kappa] A s_lam}, A the operator kind at a (_OPERATORS), as
    integer Laurent polynomials in q, {(q-exp, 0): int}: remove a horizontal
    j-strip, then a vertical i-strip, then add an (a+i+j)-strip (none for the
    shift, which keeps only a+i+j = 0)."""
    weight, vertical = _OPERATORS[kind]
    terms: dict = {}  # kappa -> {(q-exponent, 0): integer}
    for j in range(sum(lam) + 1):
        for mu in remove_strip(lam, j):
            for i in range(sum(mu) + 1):
                m = a + i + j
                if m < 0 or (vertical is None and m):
                    continue
                sign, e = weight(a, i, j)
                for nu in remove_strip(mu, i, vertical=True):
                    for kappa in add_strip(nu, m, bool(vertical)):
                        p = terms.setdefault(kappa, {})
                        p[e, 0] = p.get((e, 0), 0) + _sign(sign)
    return _nonzero(terms)


@lru_cache(maxsize=None)
def _star_rows(kind: str, a: int, n: int) -> dict:
    """{nu: {kappa: [s_kappa] S A* S^-1 s_nu}} over nu |- n, A = C_a or B_a
    and S f = f[MX]: as <f, g>_* = <f, omega S g> (Hall) and omega, S commute,
    S A* S^-1 = omega A^T omega, so the entry is [s_nu'] A s_kappa', read off
    the rows _op_row of the kappa |- n - a."""
    rows: dict = {}
    for kappa in partitions_of(n - a):
        for nu, p in _op_row(kind, a, conjugate(kappa)).items():
            rows.setdefault(conjugate(nu), {})[kappa] = p
    return rows


def _apply(kind: str, a: int, P: SymFunc, star: bool = False) -> SymFunc:
    """A P, A the operator kind at a, as P's Schur coefficients through its
    rows _op_row (_map_rows); when star, A* P = S^-1 (omega A^T omega) S P
    through the transposed rows _star_rows.  An output above the degree cap
    is refused."""
    if kind == "C" and a < 1:
        raise ValueError("op_C and op_C_star are defined here for a >= 1 only")
    check_degree(P.max_degree() + (-a if star else a))
    if not star:
        return _map_rows(P, lambda lam: _op_row(kind, a, lam))
    framed = plethysm(P, Alphabet.X(capital_m()))
    return _unframe(_map_rows(framed, lambda lam: _star_rows(kind, a, sum(lam)).get(lam, {})))


def c_word(alpha: Composition) -> SymFunc:
    """C_{alpha_1} ... C_{alpha_l} applied to 1, right to left."""
    alpha = check_composition(alpha)
    check_degree(sum(alpha))
    return _laurent_schur(_c_words(sum(alpha))[alpha])


def nabla_c_word(alpha: Composition) -> SymFunc:
    """nabla C_alpha 1, read off the cached integer words of its degree
    (_nabla_c_words)."""
    alpha = check_composition(alpha)
    return _laurent_schur(_nabla_c_words(sum(alpha))[alpha])


@lru_cache(maxsize=None)
def _c_words(n: int) -> dict:
    """{alpha: the Schur coefficients of C_alpha 1} over alpha |= n, integer
    Laurent polynomials in q: for each first part a, the words of degree
    n - a times the rows _op_row of C_a, one _packed_product, so each suffix
    is built once however many words share it."""
    if not n:
        return {(): {(): {(0, 0): 1}}}
    words = {}
    for a in range(1, n + 1):
        rows = {lam: _op_row("C", a, lam) for lam in partitions_of(n - a)}
        for beta, word in _packed_product([_c_words(n - a), rows]).items():
            words[(a,) + beta] = word
    return words


@lru_cache(maxsize=None)
def _nabla_c_words(n: int) -> dict:
    """{alpha: the Schur coefficients of nabla C_alpha 1} over alpha |= n,
    integer Laurent polynomials: the matrix of the words _c_words(n) times the
    certified integer nabla rows (int_rows), one _packed_product."""
    rows = build_htilde(n).int_rows  # first, as build_htilde refuses a degree above the cap
    return _packed_product([_c_words(n), rows])


@lru_cache(maxsize=None)
def _eh_schur(a: int, b: int, c: int) -> dict[Partition, int]:
    """{lam: [s_lam] e_a h_b h_c}, each a nonnegative integer: Pieri strips
    added to the empty shape, a horizontal c-strip (h_c), a horizontal b-strip,
    then a vertical a-strip."""
    out = {(): 1}
    for k, vertical in ((c, False), (b, False), (a, True)):
        nxt: dict = {}
        for lam, n in out.items():
            for kappa in add_strip(lam, k, vertical):
                nxt[kappa] = nxt.get(kappa, 0) + n
        out = nxt
    return out


def lhs_inner(alpha: Composition, a: int, b: int, c: int) -> QtRational:
    """Hall pairing of nabla C_alpha 1 with e_a h_b h_c: the Schur basis is
    orthonormal, so it is sum over lam of [s_lam] nabla C_alpha 1 times
    [s_lam] e_a h_b h_c, an integer Laurent polynomial made one QtRational by
    one exact division by a monomial (qtfield.laurent), already reduced."""
    alpha = check_composition(alpha)
    if not check_abc(alpha, a, b, c):
        return QTR_ZERO
    return laurent(_schur_pairing(_nabla_c_words(sum(alpha))[alpha], _eh_schur(a, b, c)))


def _schur_pairing(f: dict, weights: dict) -> dict:
    """sum over lam of f[lam] weights[lam], f integer Laurent polynomials and
    weights integers, both Schur coefficients: their Hall pairing, as the
    Schur basis is orthonormal, an integer Laurent polynomial."""
    total: dict = {}
    for lam, k in weights.items():
        for e, x in f.get(lam, {}).items():
            total[e] = total.get(e, 0) + k * x
    return {e: x for e, x in total.items() if x}


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
def _unframe_factor(rho: Partition) -> QtRational:
    """1 / p_rho[M], p_rho[M] = prod over parts j of (1 - q^j)(1 - t^j)."""
    return prod((capital_m().frobenius(j) for j in rho), start=QTR_ONE).inverse()


def _unframe(f: SymFunc) -> SymFunc:
    """S^-1 f = f[X/M]: one division of each p_rho coefficient by p_rho[M]."""
    return SymFunc("power", {rho: c * _unframe_factor(rho) for rho, c in f.to_power().coeffs.items()})


@lru_cache(maxsize=None)
def _framed_nabla_hee(a: int, b: int, c: int) -> dict:
    """The Schur coefficients of S nabla (h_a^* e_b^* e_c^*), S f = f[MX]: its
    s_nu coefficient is the integer polynomial <nabla s_nu', e_a h_b h_c>.

    S(h_a^* e_b^* e_c^*) = h_a e_b e_c, whose Schur coefficients are those of
    e_a h_b h_c at the conjugate shapes, and S nabla S^-1 has the rows
    S^-1 R S = J R^T J, R the sign +1 nabla rows: with S = G_n J (G_n the star
    Gram matrix, J the conjugation permutation), R G_n is symmetric, as nabla
    is self-adjoint for the star product."""
    if min(a, b, c) < 0:
        return {}
    n = a + b + c
    table, weights = build_htilde(n), _eh_schur(a, b, c)
    return _nonzero({nu: _schur_pairing(table.int_rows[conjugate(nu)], weights) for nu in partitions_of(n)})


@lru_cache(maxsize=None)
def _nabla_hee(a: int, b: int, c: int) -> SymFunc:
    """nabla (h_a^* e_b^* e_c^*), unframed."""
    return _unframe(_laurent_schur(_framed_nabla_hee(a, b, c)))


@lru_cache(maxsize=None)
def _adjoint_nabla_hee(kind: str, m: int, a: int, b: int, c: int) -> SymFunc:
    """C*_m (kind "C") or B*_m (kind "B") of nabla (h_a^* e_b^* e_c^*): the
    framed nabla times the transposed rows S A* S^-1 (_star_rows), one
    one-row _packed_product of integer Laurent polynomials, unframed once;
    equal to op_C_star or op_B_star of _nabla_hee(a, b, c)."""
    rows = _star_rows(kind, m, a + b + c)
    return _unframe(_laurent_schur(_packed_product([{0: _framed_nabla_hee(a, b, c)}, rows])[0]))


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


# ---------------------------------------------------------------------------
# identity registry
# ---------------------------------------------------------------------------


def _check_cauchy(n: int) -> list:
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
        winv = partition_invariants(mu).w.inverse()
        for lam, cx in hmu.coeffs.items():
            for rho, cy in hmu.coeffs.items():
                key = (lam, rho)
                cur = rhs.get(key, QTR_ZERO) + cx * cy * winv
                if cur.is_zero():
                    rhs.pop(key, None)
                else:
                    rhs[key] = cur
    return [(None, lhs, rhs)]


def _check_sym_ab(alpha: Partition, beta: Partition) -> list:
    ia, ib = partition_invariants(alpha), partition_invariants(beta)
    M = capital_m()
    ha = build_htilde(sum(alpha)).power[alpha]
    hb = build_htilde(sum(beta)).power[beta]
    lhs_a = plethysm_eval(ha, M * ib.B) / ia.Pi
    rhs_a = plethysm_eval(hb, M * ia.B) / ib.Pi
    lhs_b = plethysm_eval(ha, ib.D) / ia.T * _sign(sum(alpha))
    rhs_b = plethysm_eval(hb, ia.D) / ib.T * _sign(sum(beta))
    return [("a", lhs_a, rhs_a), ("b", lhs_b, rhs_b)]


def _check_pieri_rel(mu: Partition) -> list:
    M = capital_m()
    wm = partition_invariants(mu).w
    # the raw coefficients: pieri() asserts this same relation and would raise
    return [
        (None, _d_coeff(mu, nu), M * _c_coeff(mu, nu) * partition_invariants(nu).w / wm)
        for nu in sorted(corners(mu)[0])
    ]


def _check_sum_c(mu: Partition, k: int) -> list:
    lhs = _pieri_sum(mu, "remove", k)
    if k == 0:
        rhs = partition_invariants(mu).B
    else:
        M = capital_m()
        val = partition_invariants(mu).D / (T * Q)
        rhs = (T * Q / M) * plethysm_eval(h_(k + 1), val)
    return [(None, lhs, rhs)]


def _check_sum_d(nu: Partition, k: int) -> list:
    lhs = _pieri_sum(nu, "add", k)
    if k == 0:
        rhs = QTR_ONE
    else:
        rhs = _scalar_pleth(e_, k - 1, partition_invariants(nu).D) * _sign(k - 1)
    return [(None, lhs, rhs)]


def _check_exp_abc(n: int, k: int) -> list:
    lhs = _x_pleth(h_, k, _INV_M) * _x_pleth(e_, n - k, _INV_M)
    rhs = SymFunc.zero()
    table = build_htilde(n)
    for mu in partitions_of(n):
        inv = partition_invariants(mu)
        coeff = _scalar_pleth(e_, k, inv.B) / inv.w
        rhs = rhs + table.power[mu].scale(coeff)
    return [(None, lhs, rhs)]


@lru_cache(maxsize=None)
def _htilde_at_d(nu: Partition, mu: Partition) -> QtRational:
    """H~_nu evaluated at the scalar alphabet D_mu."""
    return plethysm_eval(build_htilde(sum(nu)).power[nu], partition_invariants(mu).D)


def _check_reproducing(fname: str, r: int, lam: Partition | None, n: int) -> list:
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
        pairs.append((None, lhs, rhs))
    return pairs


def _check_erh(mu: Partition, r: int) -> list:
    n = sum(mu)
    lhs = hall_inner(build_htilde(n).power[mu], e_(r) * h_(n - r))
    rhs = _scalar_pleth(e_, r, partition_invariants(mu).B)
    return [(None, lhs, rhs)]


def _check_commute(a: int, b: int, P: SymFunc, tag: str) -> list:
    lhs = op_B(a, op_C(b, P))
    rhs = op_C(b, op_B(a, P)).scale(Q)
    return [(None, lhs, rhs)]


def _check_commutator(a: int, b: int, P: SymFunc, tag: str) -> list:
    lhs = op_C(b, op_B(a, P)).scale(Q) - op_B(a, op_C(b, P))
    pref = qtr(_sign(a + b - 1)) * (Q - 1) * Q ** (-(b - 1))
    if a + b > 0:
        rhs = SymFunc.zero()
    elif a + b == 0:
        rhs = P.scale(pref)
    else:
        rhs = _apply("shift", a + b, P).scale(pref)
    return [(None, lhs, rhs)]


_BLOCK_WEIGHTS = {
    "gamma": lambda nu, u: T ** (u - 1) * capital_m() * _pieri_sum(nu, "remove", u - 1),
    "phi1": lambda nu, u: _scalar_pleth(e_, u - 1, partition_invariants(nu).D) * _sign(u - 1),
    "phi2": lambda nu, u: _scalar_pleth(e_, u - 2, partition_invariants(nu).D) * _sign(u),
}


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


def _corner_spec(key: tuple) -> tuple:
    """(N, block) of a corner table: ("lemma31", n) has block(nu) = e_n[X D_nu/M]
    and N = n; ("gamma", m, n) has N = n and ("phi1" | "phi2", m, n) has
    N = n - 1, with block(nu) = _corner_block(kind, m, n, nu)."""
    if key[0] == "lemma31":
        n = key[1]
        return n, lambda nu: _x_pleth(e_, n, partition_invariants(nu).D / capital_m())
    kind, m, n = key
    return (n if kind == "gamma" else n - 1), lambda nu: _corner_block(kind, m, n, nu)


def _combine(weights: dict, row) -> SymFunc:
    """sum over the keys i of weights of weights[i] row(i), zero weights skipped."""
    return SymFunc._make("power", linear_map({i: c for i, c in weights.items() if not c.is_zero()}, row))


@lru_cache(maxsize=None)
def _corner_weight(r: int, nu: Partition) -> QtRational:
    """e_r[B_nu] / w_nu, shared by every corner table."""
    inv = partition_invariants(nu)
    return _scalar_pleth(e_, r, inv.B) / inv.w


@lru_cache(maxsize=None)
def _corner_table(key: tuple) -> dict:
    """{(a, b): (-1)^N times the corner sum} for every a, b >= 0 with a + b <= N,
    (N, block) = _corner_spec(key), in three stages that share the inner sums:
    A(r, d) = sum over nu |- d of e_r[B_nu] / w_nu block(nu), then
    G(r, b) = sum over s <= b of h_{b-s}[1/M] (-1)^s A(r, r+s), then
    the entry (a, b) = sum over r <= a of e_{a-r}[1/M] (-1)^r G(r, b).
    Only the entries are kept."""
    size, block = _corner_spec(key)
    inner = {}
    for d in range(size + 1):
        blocks = {nu: block(nu).to_power().coeffs for nu in partitions_of(d)}
        for r in range(d + 1):
            inner[r, d] = _combine({nu: _corner_weight(r, nu) for nu in blocks}, blocks.__getitem__)
    partial = {
        (r, b): _combine(
            {s: _scalar_pleth(h_, b - s, _INV_M) * _sign(s) for s in range(b + 1)},
            lambda s: inner[r, r + s].coeffs,
        )
        for r in range(size + 1)
        for b in range(size - r + 1)
    }
    return {
        (a, b): _combine(
            {r: _scalar_pleth(e_, a - r, _INV_M) * _sign(r) for r in range(a + 1)},
            lambda r: partial[r, b].coeffs,
        )
        for a in range(size + 1)
        for b in range(size - a + 1)
    }


def _corner_sum(key: tuple, a: int, b: int) -> SymFunc:
    """sum over r <= a, s <= b, nu |- r+s of
    e_{a-r}[1/M] h_{b-s}[1/M] (-1)^(N-r-s) e_r[B_nu] / w_nu * block(nu),
    read off key's corner table; zero when a < 0 or b < 0."""
    if a < 0 or b < 0:
        return SymFunc.zero()
    size, _ = _corner_spec(key)
    if a + b > size:
        raise ValueError(f"the corner sums of {key} need a + b <= {size}, got a={a}, b={b}")
    f = _corner_table(key)[a, b]
    return -f if size % 2 else f


def _check_lemma31(a: int, b: int, c: int) -> list:
    rhs = _corner_sum(("lemma31", a + b + c), a, b)
    return [(None, _nabla_hee(a, b, c), rhs)]


def _check_lemma32(m: int, nu: Partition, n: int) -> list:
    d_over_m = partition_invariants(nu).D / capital_m()
    lhs = op_C_star(m, _x_pleth(e_, n, d_over_m))
    rhs = _corner_block("gamma", m, n, nu)
    if m == 1:
        rhs = rhs - _x_pleth(e_, n - 1, d_over_m)
    return [(None, lhs, rhs)]


def _check_prop31(m: int, a: int, b: int, n: int) -> list:
    c = n - a - b
    lhs = _adjoint_nabla_hee("C", m, a, b, c)
    rhs = _corner_sum(("gamma", m, n), a, b)
    if m == 1:
        rhs = rhs + _nabla_hee(a, b, c - 1)
    return [(None, lhs, rhs)]


def _phi1(m: int, a: int, b: int, n: int) -> SymFunc:
    return _corner_sum(("phi1", m, n), a - 1, b)


def _phi2(m: int, a: int, b: int, n: int) -> SymFunc:
    return _corner_sum(("phi2", m, n), a, b - 1)


def _check_thm31(m: int, a: int, b: int, n: int) -> list:
    c = n - a - b
    lhs = _adjoint_nabla_hee("C", m, a, b, c)
    rhs = (_phi1(m, a, b, n) + _phi2(m, a, b, n)).scale(T ** (m - 1))
    if m == 1:
        rhs = rhs + _nabla_hee(a, b, c - 1) + _nabla_hee(a, b - 1, c)
    return [(None, lhs, rhs)]


def _check_thm32(m: int, a: int, b: int, n: int) -> list:
    c = n - a - b
    return [
        ("1", _phi1(m, a, b, n), _adjoint_nabla_hee("B", m - 1, a - 1, b, c)),
        ("2", _phi2(m, a, b, n), _adjoint_nabla_hee("B", m - 2, a, b - 1, c - 1)),
    ]


def _check_thm21(m: int, a: int, b: int, c: int) -> list:
    lhs = _adjoint_nabla_hee("C", m, a, b, c)
    tm = T ** (m - 1)
    rhs = _adjoint_nabla_hee("B", m - 1, a - 1, b, c).scale(tm)
    rhs = rhs + _adjoint_nabla_hee("B", m - 2, a, b - 1, c - 1).scale(tm)
    if m == 1:
        rhs = rhs + _nabla_hee(a, b - 1, c) + _nabla_hee(a, b, c - 1)
    return [(None, lhs, rhs)]


def _check_en_decomp(n: int) -> list:
    total = SymFunc.zero()
    for p in compositions_of(n):
        total = total + c_word(p)
    return [(None, total, e_(n).to_power())]


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
    "en-decomp": _check_en_decomp,
}


def identity_ids() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def check_identity(ident: str, **params) -> list:
    """The (label, lhs, rhs) triples that identity ident compares at params."""
    fn = _REGISTRY.get(ident)
    if fn is None:
        raise ValueError(f"unknown identity id {ident!r}; known: {', '.join(identity_ids())}")
    return fn(**params)
