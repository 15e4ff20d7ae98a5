import hashlib
import json
import re

import pytest

from qtshuffle.qtfield import Q, QTR_ONE, QTR_ZERO, T, int_poly, kronecker, qtr, swap_qt
from qtshuffle.shapes import (
    capital_m,
    compositions_of,
    conjugate,
    corners,
    partition_invariants,
    partitions_of,
)
from qtshuffle.symfunc import SymFunc, e_, h_, hall_inner, p_, s_, star_inner
from qtshuffle.cli import _operator_probes
import qtshuffle.macdonald as mac
from qtshuffle.macdonald import (
    HTildeTable,
    TableInvariantError,
    _sym_canonical,
    build_htilde,
    c_word,
    check_identity,
    htilde_expand,
    identity_ids,
    install_table,
    lhs_inner,
    nabla,
    op_B,
    op_B_star,
    op_C,
    op_C_star,
    pieri,
)

M = capital_m()


# -- tables -------------------------------------------------------------------


def test_table_degree_one():
    assert build_htilde(1)[(1,)] == s_((1,))


def test_table_degree_two_hand_solved():
    # solving the 2x2 orthogonality + normalization system by hand gives
    # s2 + q*s11 and s2 + t*s11
    table = build_htilde(2)
    assert table[(2,)] == s_((2,)) + s_((1, 1)).scale(Q)
    assert table[(1, 1)] == s_((2,)) + s_((1, 1)).scale(T)
    # degree 3: the modified q,t-Kostka polynomials, by hand
    table = build_htilde(3)
    assert table[(3,)] == s_((3,)) + s_((2, 1)).scale(Q + Q**2) + s_((1, 1, 1)).scale(Q**3)
    assert table[(2, 1)] == s_((3,)) + s_((2, 1)).scale(Q + T) + s_((1, 1, 1)).scale(Q * T)
    assert table[(1, 1, 1)] == s_((3,)) + s_((2, 1)).scale(T + T**2) + s_((1, 1, 1)).scale(T**3)


def test_table_qt_symmetry():
    # H~_mu(q,t) = H~_mu'(t,q); the table is built without using this
    for n in range(0, 7):
        table = build_htilde(n)
        for mu in partitions_of(n):
            assert table[mu].map_coeffs(swap_qt) == table[conjugate(mu)], mu
    # swapping q and t in the entries but not in the shapes breaks the norms
    table = build_htilde(3)
    swapped = HTildeTable(3, {mu: table[mu].map_coeffs(swap_qt) for mu in partitions_of(3)})
    with pytest.raises(TableInvariantError):
        swapped.verify()


# sha256 of the saved htilde-<n>.json bytes, n = 0..6
TABLE_FILE_SHA256 = (
    "95a7e2c667b522910a9ca184fdcf08cd9faf1e59d3d8af685a93db9deeb87d11",
    "c82c35e02e7ac88d43f3160764ecffd635f5bdf03e1fd261b52becabb0596277",
    "2a1db511e43d5d0e904643b867aaef263c7343d86d9034541be06ecf84aa583c",
    "6c3850913f600ae63577c0c66cac544350ffc39aca6d058a0acea65e5876bf1a",
    "bb8d153fcef9ea2a59879a302ae6c043870f5936b2bc3f0af7dbe43210797152",
    "bb4116d4e2dba455e13918cdd4ab9d5999504e0ee36deb2b263c08b9bb8b8dc7",
    "ec9ae69d520755fb568b2848eac34378e93a8426124b12a1c8a0361df560403b",
)


def test_saved_table_bytes_are_pinned(tmp_path):
    for n, want in enumerate(TABLE_FILE_SHA256):
        path = tmp_path / f"htilde-{n}.json"
        build_htilde(n).save(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want, n


def test_table_gram_matches_invariants():
    table = build_htilde(2)
    w = partition_invariants((2,)).w
    assert star_inner(table.power[(2,)], table.power[(2,)]) == w
    assert star_inner(table.power[(2,)], table.power[(1, 1)]) == QTR_ZERO


@pytest.mark.parametrize("n", range(0, 5))
def test_table_invariants(n):
    build_htilde(n).verify()


def test_schur_coefficients_are_polynomial():
    # modified Kostka coefficients live in N[q,t]
    for n in range(1, 5):
        for mu, f in build_htilde(n).entries.items():
            for lam, c in f.coeffs.items():
                assert c.is_polynomial(), (mu, lam)


def test_table_json_round_trip(tmp_path):
    table = build_htilde(3)
    path = tmp_path / "htilde-3.json"
    table.save(str(path))
    loaded = HTildeTable.load(str(path))
    assert loaded.degree == 3
    for mu in partitions_of(3):
        assert loaded[mu] == table[mu]
    # byte-stable re-save
    loaded.save(str(tmp_path / "again.json"))
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_power_entries_are_built_on_first_use(tmp_path):
    # a load verifies the table without its power sums; the first read builds them
    path = tmp_path / "htilde-4.json"
    build_htilde(4).save(str(path))
    loaded = HTildeTable.load(str(path))
    assert loaded.verified and "power" not in vars(loaded)
    assert loaded.power == {mu: f.to_power() for mu, f in loaded.entries.items()}
    assert loaded.power == build_htilde(4).power
    assert loaded.power is loaded.power


def test_corrupted_cache_fails_loudly(tmp_path):
    table = build_htilde(2)
    path = tmp_path / "htilde-2.json"
    table.save(str(path))
    data = json.loads(path.read_text())
    key = next(iter(data["entries"]))
    inner = data["entries"][key]
    field = next(iter(inner))
    inner[field] = "2*q^1*t^0|1*q^0*t^0"
    path.write_text(json.dumps(data))
    with pytest.raises(TableInvariantError):
        HTildeTable.load(str(path))


def test_install_table_verifies_each_table_once(tmp_path, monkeypatch):
    path = tmp_path / "htilde-2.json"
    build_htilde(2).save(str(path))
    calls = []
    original = HTildeTable.verify
    monkeypatch.setattr(HTildeTable, "verify", lambda self: calls.append(self) or original(self))
    install_table(HTildeTable.load(str(path)))
    assert len(calls) == 1  # on load only
    # a table that never passed verify() is still checked before adoption
    bad = HTildeTable(2, {(2,): s_((2,)), (1, 1): s_((2,))})
    with pytest.raises(TableInvariantError):
        install_table(bad)
    assert len(calls) == 2


def _star_route(table):
    """The invariants through star_inner and hall_inner in Q(q,t): the oracle."""
    parts = partitions_of(table.degree)
    for i, mu in enumerate(parts):
        if hall_inner(table.power[mu], h_(table.degree).to_power()) != QTR_ONE:
            raise TableInvariantError(f"normalization failed for {mu}")
        for lam in parts[i:]:
            want = partition_invariants(mu).w if lam == mu else QTR_ZERO
            if star_inner(table.power[lam], table.power[mu]) != want:
                raise TableInvariantError(f"orthogonality failed at ({lam}, {mu})")


def _verify_product(table):
    """(k, D, got, want) of the one _packed_product that verify() computes."""
    calls = []
    product = mac._packed_product
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mac, "_packed_product", lambda *args: calls.append(product(*args)) or calls[-1])
        try:
            table.verify()
        except TableInvariantError:
            pass
    (result,) = calls
    return result


def _assert_packed_gram_is_exact(table):
    """Every packed entry verify() compares is its star_inner value, packed,
    every got - want lies where packing is injective, and the normalization
    lookup K~_mu,(n) is the hall_inner value <H~_mu, h_n>."""
    n, parts = table.degree, partitions_of(table.degree)
    k, D, gram, packed_want = _verify_product(table)
    for i, mu in enumerate(parts):
        assert table[mu].coeffs.get(parts[0]) == hall_inner(table.power[mu], h_(n).to_power())
        for lam in parts[i:]:
            got = star_inner(table.power[lam], table.power[mu])
            want = partition_invariants(mu).w if lam == mu else QTR_ZERO
            assert gram[lam].get(mu, 0) == kronecker(int_poly(got), k, D)
            assert packed_want[lam].get(mu, 0) == kronecker(int_poly(want), k, D)
            diff = int_poly(got - want)
            assert all(i < D and abs(c) < 2 ** (k - 1) for (i, _), c in diff.items())
    return k, D


def test_star_gram_matches_star_inner():
    # G_n, summed on plain ints, against the Q(q,t) star product of Schur functions
    for n in range(0, 7):
        gram = mac._star_gram(n)
        for lam in partitions_of(n):
            for nu in partitions_of(n):
                assert gram[lam].get(nu, {}) == int_poly(star_inner(s_(lam), s_(nu))), (lam, nu)


@pytest.mark.parametrize("n", range(0, 6))
def test_packed_gram_matches_star_inner(n):
    table = build_htilde(n)
    _assert_packed_gram_is_exact(table)
    _star_route(table)
    table.verify()


def _perturbed(table, mu, lam, change):
    entries = {nu: table[nu] for nu in table.entries}
    coeffs = dict(entries[mu].coeffs)
    coeffs[lam] = change(coeffs.get(lam, QTR_ZERO))
    entries[mu] = SymFunc("schur", coeffs)
    return HTildeTable(table.degree, entries)


def test_perturbed_tables_fail_both_routes():
    table = build_htilde(4)
    k0, D0 = _assert_packed_gram_is_exact(table)
    swapped = {nu: table[nu] for nu in table.entries}
    swapped[(3, 1)], swapped[(2, 1, 1)] = swapped[(2, 1, 1)], swapped[(3, 1)]
    bad = {
        "q^a t^b": _perturbed(table, (2, 2), (2, 1, 1), lambda c: c + Q**2 * T),
        "2^200": _perturbed(table, (3, 1), (2, 2), lambda c: qtr(2**200)),
        "q^60": _perturbed(table, (2, 1, 1), (3, 1), lambda c: c + Q**60),
        "swap": HTildeTable(4, swapped),
    }
    for name, copy in bad.items():
        k, D = _assert_packed_gram_is_exact(copy)
        if name == "2^200":
            assert k > k0 + 200, k  # a wider slot
        if name == "q^60":
            assert D > 2 * 60 > D0, D  # a larger q-degree bound
        for route in (_star_route, HTildeTable.verify):
            with pytest.raises(TableInvariantError, match=r"^(orthogonality|normalization) failed"):
                route(copy)
    # a perturbed s_(n) coefficient breaks the normalization first, on both routes
    copy = _perturbed(table, (4,), (4,), lambda c: c + T)
    for route in (_star_route, HTildeTable.verify):
        with pytest.raises(TableInvariantError, match=r"^normalization failed for \(4,\)$"):
            route(copy)


@pytest.mark.parametrize("coeff", ["1*q^0*t^0|1*q^1*t^0 + -1*q^0*t^0", "1*q^0*t^0|2*q^0*t^0"])
def test_non_polynomial_table_fails_integrality(tmp_path, coeff):
    path = tmp_path / "htilde-3.json"
    build_htilde(3).save(str(path))
    data = json.loads(path.read_text())
    data["entries"]["[2,1]"]["[3]"] = coeff
    path.write_text(json.dumps(data))
    with pytest.raises(TableInvariantError) as err:
        HTildeTable.load(str(path))
    message = str(err.value)
    assert re.fullmatch(r"integrality failed at \(\(2, 1\), \([0-9, ]+\)\): .*", message), message
    assert "\n" not in message


def test_wrong_degree_term_is_a_support_failure():
    table = build_htilde(3)
    copy = _perturbed(table, (2, 1), (2,), lambda c: QTR_ONE)
    with pytest.raises(TableInvariantError, match=r"^degree 3 table has wrong support$"):
        copy.verify()


def test_degree_seven_table_passes_verify():
    table = HTildeTable(7, {mu: mac._hhl_monomial(mu) for mu in partitions_of(7)})
    table.verify()
    assert table.verified


def test_build_above_the_degree_cap_fails_before_any_filling(monkeypatch):
    def no_filling(mu):
        raise AssertionError(f"enumerated the fillings of {mu}")

    monkeypatch.setattr(mac, "_hhl_monomial", no_filling)
    with pytest.raises(ValueError, match=r"^degree 13 exceeds the configured cap 12$"):
        build_htilde(13)


# -- nabla ---------------------------------------------------------------------


def test_nabla_examples():
    assert nabla(h_(1)) == h_(1)
    table = build_htilde(2)
    assert nabla(table.power[(2,)]) == table.power[(2,)].scale(Q)
    assert nabla(e_(2)) == s_((2,)) + s_((1, 1)).scale(Q + T)


def test_nabla_inverse_round_trip():
    for f in (e_(3), s_((2, 1)), h_(2) * h_(1)):
        assert nabla(nabla(f), -1) == f.to_power()
        assert nabla(nabla(f, -1)) == f.to_power()


def test_nabla_is_linear():
    f, g = e_(3), s_((2, 1))
    assert nabla(f + g) == nabla(f) + nabla(g)
    assert nabla(f.scale(Q)) == nabla(f).scale(Q)


def _eigenbasis_nabla(lam, sign):
    """nabla^sign s_lam summed over the H~ expansion, without the table rows."""
    out = SymFunc.zero()
    for mu, c in htilde_expand(s_(lam)).items():
        table = build_htilde(sum(mu))
        out = out + table.power[mu].scale(c * table.invariants[mu].T ** sign)
    return out


@pytest.mark.parametrize("sign", (1, -1))
def test_nabla_rows_match_the_eigenbasis_expansion(sign):
    for n in range(0, 7):
        table = build_htilde(n)
        for lam in partitions_of(n):
            row = table.nabla_row(lam, sign)
            assert row.basis == "schur" and row == _eigenbasis_nabla(lam, sign), lam
            if sign == 1:  # nabla s_lam has Schur coefficients in Z[q,t]
                for nu, c in row.coeffs.items():
                    assert c.canonical().split("|")[1] == "1*q^0*t^0", (lam, nu)


def test_nabla_reads_the_rows_of_the_installed_table(monkeypatch):
    old = build_htilde(3)
    want = nabla(s_((2, 1)))
    monkeypatch.setitem(mac._tables, 3, old)  # put the original back afterwards
    fresh = HTildeTable.from_json(old.to_json())
    install_table(fresh)
    assert not fresh.nabla_rows  # rows are built on first use, not on load or install
    monkeypatch.setitem(old.nabla_rows, 1, {**old.nabla_rows[1], (2, 1): s_((3,))})  # stale
    assert nabla(s_((2, 1))) == want
    # the first use fills every sign +1 row of the fresh table, and nothing else
    assert list(fresh.nabla_rows) == [1] and set(fresh.nabla_rows[1]) == set(partitions_of(3))


def _row_integers(table, sign):
    """(kostka, eigen, rows) for the certificate K~ R^ == diag(T^_mu) K~, as the
    table's integer polynomials (eigen the right side)."""
    n = table.degree
    top = n * (n - 1) // 2
    kostka = {mu: {nu: int_poly(c) for nu, c in f.coeffs.items()} for mu, f in table.entries.items()}
    eigen, rows = {}, {}
    for mu, inv in table.invariants.items():
        a, b = (inv.nmu_conj, inv.nmu) if sign == 1 else (top - inv.nmu_conj, top - inv.nmu)
        eigen[mu] = {nu: {(i + a, j + b): c for (i, j), c in p.items()} for nu, p in kostka[mu].items()}
    scale = QTR_ONE if sign == 1 else (Q * T) ** top
    for lam in partitions_of(n):
        rows[lam] = {nu: int_poly(c * scale) for nu, c in table.nabla_row(lam, sign).coeffs.items()}
    return kostka, eigen, rows


def _certified(kostka, eigen, rows):
    _, _, got, want = mac._packed_product([kostka, rows], eigen)
    return got == want


@pytest.mark.parametrize("sign", (1, -1))
def test_eigen_certificate_rejects_a_perturbed_row(sign):
    kostka, eigen, rows = _row_integers(build_htilde(5), sign)
    assert _certified(kostka, eigen, rows)
    for lam, nu, key in (((3, 2), (2, 2, 1), (2, 1)), ((5,), (1, 1, 1, 1, 1), (0, 0))):
        bad = {mu: dict(row) for mu, row in rows.items()}
        poly = dict(bad[lam].get(nu, {}))
        poly[key] = poly.get(key, 0) + 1
        bad[lam][nu] = poly
        assert not _certified(kostka, eigen, bad), (lam, nu, key)


def test_too_narrow_first_guess_is_retried(monkeypatch):
    table = build_htilde(6)
    want = {sign: {lam: table.nabla_row(lam, sign) for lam in partitions_of(6)} for sign in (1, -1)}
    verdicts = []
    product = mac._packed_product

    def recorded(*args):
        k, D, got, packed_want = product(*args)
        verdicts.append(got == packed_want)
        return k, D, got, packed_want

    monkeypatch.setattr(mac, "_packed_product", recorded)
    monkeypatch.setattr(mac, "_row_start", lambda norm: 2)  # coefficients reach 14 in degree 6
    for sign in (1, -1):
        fresh = HTildeTable.from_json(table.to_json())
        verdicts.clear()  # drop the verdict of verify() on load
        assert fresh.nabla_matrix(sign) == want[sign]
        assert verdicts == [False, False, True]  # 2, 4, then 8 bits per slot
    # past the last attempt the table gives up loudly
    monkeypatch.setattr(mac, "_ROW_ATTEMPTS", 2)
    message = r"^nabla rows of degree 6 \(sign 1\) failed their certificate$"
    with pytest.raises(TableInvariantError, match=message):
        HTildeTable.from_json(table.to_json()).nabla_matrix(1)


def test_degree_seven_rows_match_the_eigenbasis_expansion():
    table = build_htilde(7)
    for lam in ((4, 2, 1), (2, 2, 1, 1, 1)):
        expansion = htilde_expand(s_(lam))
        for sign in (1, -1):
            want = SymFunc.zero()
            for mu, c in expansion.items():
                want = want + table.power[mu].scale(c * table.invariants[mu].T ** sign)
            assert table.nabla_row(lam, sign) == want, (lam, sign)


# -- Pieri ------------------------------------------------------------------------


def test_pieri_add_from_single_box():
    data = pieri((1,), "add")
    assert data.coeffs[(2,)] == (1 - T) / (Q - T)
    assert data.coeffs[(1, 1)] == (Q - 1) / (Q - T)


def test_pieri_sums():
    for n in range(1, 5):
        for nu in partitions_of(n):
            data = pieri(nu, "add")
            total = QTR_ZERO
            weighted = QTR_ZERO
            t_nu = partition_invariants(nu).T
            for mu, d in data.coeffs.items():
                total = total + d
                weighted = weighted + d * (partition_invariants(mu).T / t_nu)
            assert total == QTR_ONE
            assert weighted == QTR_ONE


def test_pieri_directions_agree():
    # the two directions of the one Pieri loop: supports are the corners, and
    # d_{mu,nu} = M c_{mu,nu} w_nu / w_mu across an "add" and a "remove" call
    for n in range(0, 5):
        for mu in partitions_of(n):
            removable, addable = corners(mu)
            remove = pieri(mu, "remove").coeffs
            add = pieri(mu, "add").coeffs
            assert set(remove) == set(removable)
            assert set(add) == set(addable)
            for nu, c in remove.items():
                d = pieri(nu, "add").coeffs[mu]
                w_nu, w_mu = partition_invariants(nu).w, partition_invariants(mu).w
                assert d == M * c * w_nu / w_mu
    assert pieri((2,), "remove").coeffs == {(1,): 1 + Q}
    assert pieri((1, 1), "remove").coeffs == {(1,): 1 + T}
    with pytest.raises(ValueError):
        pieri((1,), "sideways")


# -- creation operators -------------------------------------------------------------


def test_op_c_basics():
    assert op_C(1, SymFunc.one()) == h_(1)
    for a in range(1, 5):
        assert op_C(a, SymFunc.one()) == h_(a).scale((-Q.inverse()) ** (a - 1))
    with pytest.raises(ValueError):
        op_C(0, SymFunc.one())


def test_op_b_basics():
    for a in range(1, 5):
        assert op_B(a, SymFunc.one()) == e_(a)
    assert op_B(0, SymFunc.one()) == SymFunc.one()
    assert op_B(-1, SymFunc.one()).is_zero()


def test_c_word_examples():
    assert c_word(()) == SymFunc.one()
    assert c_word((1, 1)) == build_htilde(2).power[(2,)].scale(Q.inverse())
    assert c_word((2,)) == h_(2).scale(-Q.inverse())


def test_c_word_accepts_a_list_and_shares_suffixes():
    # the cached word of each suffix is the right-to-left product of op_C
    for n in range(6):
        for alpha in compositions_of(n):
            want = SymFunc.one()
            for part in reversed(alpha):
                want = op_C(part, want)
            assert c_word(list(alpha)) == c_word(tuple(alpha)) == want, alpha


def test_en_decomposition_small():
    for n in (1, 2, 3):
        total = SymFunc.zero()
        for p in compositions_of(n):
            total = total + c_word(p)
        assert total == e_(n)


def test_adjoints_are_star_adjoints():
    # full Gram-matrix check at every degree <= 4 on both sides
    pairs = [(op_C, op_C_star, a) for a in (1, 2)]
    pairs += [(op_B, op_B_star, a) for a in (-2, -1, 0, 1, 2)]
    for op, adjoint, a in pairs:
        for d in range(max(0, -a), 5 - max(a, 0)):
            for lam in partitions_of(d):
                for mu in partitions_of(d + a):
                    f, g = p_(lam), p_(mu)
                    assert star_inner(op(a, f), g) == star_inner(f, adjoint(a, g)), (a, lam, mu)
    # nonhomogeneous inputs go through extract_z one degree at a time
    f = p_((2,)) + p_((1,)) + SymFunc.one()
    g = p_((2, 1)) + p_((3,)) + p_((1, 1))
    for op, adjoint in ((op_C, op_C_star), (op_B, op_B_star)):
        for a in (1, 2):
            assert star_inner(op(a, f), g) == star_inner(f, adjoint(a, g)), a


# sha256 of the canonical outputs below, as test_saved_table_bytes_are_pinned
# does for tables: any change to an output byte of an operator shows here
OPERATOR_OUTPUT_SHA256 = "4e22a82b864b5b9b233536721a4ef2d579fff23e14e1a48727a2b13b60d0634a"


def test_operator_output_is_pinned():
    lines = []
    for tag, P in _operator_probes(3):
        for name, op, avals in (
            ("op_C", op_C, (1, 2, 3)),
            ("op_B", op_B, (-2, -1, 0, 1, 2)),
            ("op_C_star", op_C_star, (1, 2, 3)),
            ("op_B_star", op_B_star, (-2, -1, 0, 1, 2)),
        ):
            for a in avals:
                lines.append(f"{name}({a},{tag})={_sym_canonical(op(a, P))}")
        for a, b in ((-3, 1), (-3, 2), (-2, 1)):  # the a + b < 0 branch of the commutator
            rhs = check_identity("commutator", a=a, b=b, P=P, tag=tag).rhs
            lines.append(f"commutator({a},{b},{tag})={rhs}")
    assert len(lines) == 133
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == OPERATOR_OUTPUT_SHA256


def test_adjoint_degree_bookkeeping():
    out = op_C_star(2, h_(2))
    assert out.degrees() in ((), (0,))


# -- pairings ------------------------------------------------------------------------


def test_lhs_inner_examples():
    assert lhs_inner((1,), 1, 0, 0) == QTR_ONE
    assert lhs_inner((1, 1), 0, 1, 1) == 1 + Q
    want = T**4 * Q**2 + T**3 * (Q**4 + 2 * Q**3 + 2 * Q**2)
    assert lhs_inner((3, 2), 1, 2, 2) == want


def test_lhs_inner_matches_the_power_sum_pairing():
    # the Schur-basis sum against hall_inner on nabla's power sums, |alpha| <= 5
    for n in range(6):
        for alpha in compositions_of(n):
            f = nabla(c_word(alpha))
            for a in range(n + 1):
                for b in range(n + 1 - a):
                    c = n - a - b
                    want = hall_inner(f, e_(a) * h_(b) * h_(c))
                    assert lhs_inner(alpha, a, b, c) == want, (alpha, a, b, c)


def test_lhs_inner_size_mismatch():
    with pytest.raises(ValueError):
        lhs_inner((2, 1), 1, 1, 2)


def test_lhs_inner_negative_index_is_zero():
    assert lhs_inner((2,), -1, 2, 1) == QTR_ZERO


# -- identity registry spot checks ----------------------------------------------------


def test_unknown_identity():
    with pytest.raises(ValueError):
        check_identity("nope")
    assert "thm21" in identity_ids()


def test_cauchy_small():
    for n in (1, 2, 3):
        assert check_identity("cauchy", n=n).passed


def test_erh_values():
    rep = check_identity("erh", mu=(2, 1), r=1)
    assert rep.passed
    assert hall_inner(build_htilde(3).power[(2, 1)], e_(1) * h_(2)) == 1 + Q + T


def test_commutator_zero_regime():
    rep = check_identity("commutator", a=1, b=1, P=h_(1), tag="h1")
    assert rep.passed
    assert rep.rhs == "0"


def test_failed_identity_reports_both_sides():
    # erh with a deliberately wrong right-hand side is not representable via
    # the registry, so check the report plumbing on a passing case instead
    rep = check_identity("sum-d", nu=(2,), k=1)
    assert rep.passed
    assert rep.lhs == rep.rhs != ""


def test_broken_pieri_relation_is_a_fail_with_both_sides(monkeypatch):
    # pieri-rel reads the raw c and d coefficients, so a broken relation is a
    # failed case with both sides, not an error raised by pieri()'s own check
    import qtshuffle.macdonald as mac
    from qtshuffle.cli import _ident_case, _run_case

    good = check_identity("pieri-rel", mu=(2, 1))
    assert good.passed
    d_coeff = mac._d_coeff
    monkeypatch.setattr(mac, "_d_coeff", lambda mu, nu: 2 * d_coeff(mu, nu))
    rep = check_identity("pieri-rel", mu=(2, 1))
    assert not rep.passed
    assert rep.rhs == good.rhs and rep.lhs != good.lhs
    assert rep.lhs.count("; ") == 1  # one pair per removable corner
    result = _run_case(_ident_case("pieri-rel", mu=(2,)))
    assert result.status == "fail"
    assert result.lhs and result.rhs


def test_thm21_small_grid():
    # thm21 and the corner-sum expansions it rests on: lemma31, lemma32,
    # prop31, thm31, thm32
    for N in (1, 2, 3):
        for a in range(0, N + 1):
            for b in range(0, N - a + 1):
                rep = check_identity("lemma31", a=a, b=b, c=N - a - b)
                assert rep.passed, rep
        for m in range(1, N + 1):
            for nu in (mu for d in range(0, N + 1) for mu in partitions_of(d)):
                rep = check_identity("lemma32", m=m, nu=nu, n=N)
                assert rep.passed, rep
            for a in range(0, N + 1):
                for b in range(0, N - a + 1):
                    rep = check_identity("thm21", m=m, a=a, b=b, c=N - a - b)
                    assert rep.passed, rep
                    for ident in ("prop31", "thm31", "thm32"):
                        rep = check_identity(ident, m=m, a=a, b=b, n=N)
                        assert rep.passed, rep


def test_recursion_identities_small():
    assert check_identity("rec-m", m=2, alpha=(1,), a=1, b=1, c=1).passed
    assert check_identity("rec-1", alpha=(1, 1), a=1, b=1, c=1).passed
    assert check_identity("rec-1", alpha=(), a=0, b=1, c=0).passed


def test_fundamental_expansion_of_degree_two_entry():
    from qtshuffle.symfunc import QSymFunc, fundamental_expand

    qs = fundamental_expand(build_htilde(2)[(2,)])
    assert qs == QSymFunc(2, {frozenset(): QTR_ONE, frozenset({1}): Q})
