"""Grading group presentations, characters, and the symplectic search."""

import copy
import functools
import hashlib
import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import modfunctor as mf
from modfunctor import characters, cli, lie
from modfunctor.characters import (
    GroupCharacter,
    _build_certificate,
    _smith,
    _verify_certificate,
    dual_group,
)
from modfunctor.cli import run_command
from modfunctor.lie import LieData
from conftest import builtin_tokens, get_family, get_fusion
from grading_oracle import build_relation_matrix, is_character, oracle_group, symplectic_character_oracle
from lie_oracle import parse_young_label, su_mu_tilde


def group_of(*tokens):
    data = get_family(*tokens)
    return data, dual_group(data, get_fusion(data))


def test_relation_matrix_contains_dual_pairs(su31):
    rows = build_relation_matrix(su31, get_fusion(su31))
    assert rows.shape[1] == su31.n
    pair = np.zeros(su31.n, dtype=np.int64)
    pair[su31.index("1")] += 1
    pair[su31.index("1.1")] += 1
    assert any(np.array_equal(r, pair) for r in rows)
    # vacuum triple 0+0+0
    triple = np.zeros(su31.n, dtype=np.int64)
    triple[su31.index("0")] = 3
    assert any(np.array_equal(r, triple) for r in rows)


@pytest.mark.parametrize("tokens", builtin_tokens(), ids=lambda t: " ".join(map(str, t)))
def test_dual_group_matches_oracle(tokens):
    data = get_family(*tokens)
    fusion = get_fusion(data)
    pres = dual_group(data, fusion)
    factors, free, rows = oracle_group(data, fusion)
    assert (pres.invariant_factors, free) == (factors, 0)
    gens = mf.generator_characters(pres)
    assert all(is_character(rows, data.labels, chi) for chi in gens)
    # the generators span the whole character group: its members are distinct
    table = {
        tuple(sum((c * chi(lab) for c, chi in zip(coeffs, gens)), Fraction(0)) % 1 for lab in data.labels)
        for coeffs in itertools.product(*(range(d) for d in factors))
    }
    assert len(table) == pres.torsion_order


# sha256 of `--json characters F`, pinned while `dual_group` still found G
# by reading fusion slices
CHARACTERS_JSON_SHA256 = {
    "su 4 6": "4cc077797ad62cfb213e37ac3803d8d86cd7b76d04f8c5a4e6494d1bab523274",
    "su 3 6": "89ec5511f461d4a3f89211e282d7276b5ef886f5d74c278a6ed58aa516fb1701",
    "lie D 4 2": "469102e2a0b727ba316f9b71136506d4b8025b561bf3ffdf33d52b94b0dfe1d1",
}


@pytest.mark.parametrize("family", sorted(CHARACTERS_JSON_SHA256))
def test_characters_read_the_group_from_the_fusion_tensor(monkeypatch, family):
    # G and its products come from FusionTensor.currents: once the check has
    # returned, no slice is read, and the output is unchanged
    check = cli.verlinde_fusion

    def refuse(self, j):
        raise AssertionError(f"slice {j} read")

    def check_then_refuse_slices(data):
        fusion = check(data)
        monkeypatch.setattr(mf.FusionTensor, "slice", refuse)
        return fusion

    monkeypatch.setattr(cli, "verlinde_fusion", check_then_refuse_slices)
    code, report = run_command(["--json", "characters", *family.split()])
    assert code == 0, report.human
    assert hashlib.sha256(report.human.encode()).hexdigest() == CHARACTERS_JSON_SHA256[family]


def test_su48_group_without_relation_matrix():
    code, report = run_command(["--json", "characters", "su", "4", "8"])
    assert code == 0
    assert report.machine["invariant_factors"] == [4]
    assert report.machine["free_rank"] == 0


def test_twisted_charge_is_refused_by_the_fusion_check(su22):
    # twist the phase of S at (2, 1): the charge of invertible "2" on "1"
    # moves off the square roots of unity while S stays symmetric; the
    # current layer that dual_group reads is never handed out
    S = su22.S.copy()
    i, g = su22.index("1"), su22.index("2")
    S[g, i] *= np.exp(0.1j)
    S[i, g] *= np.exp(0.1j)
    data = mf.ModularData(su22.labels, su22.zero, su22.dual, S, su22.theta, tol=su22.tol)
    with pytest.raises(mf.NonIntegralFusion, match="handle operator deviates from integers by up to 1.414e-01"):
        mf.verlinde_fusion(data)
    # the layer alone refuses it by (I): "2" has dimension 1, but its rows match no permutation
    with pytest.raises(mf.InvalidModularData, match=r"^\(I\) fails for label '2': its \|dim\| is 1 within 1.000e-09"):
        mf.current_layer(data)
    # a twist small enough for the key match leaves "2" in G, and its residual of (I) is measured:
    # row sigma_2(2) = 0 is psi_2 S_2 only up to e^{2i eps}, |e^{2i eps} - 1| S_01 = 2 eps / sqrt 2
    S = su22.S.copy()
    S[g, i] *= np.exp(1e-10j)
    S[i, g] *= np.exp(1e-10j)
    data = mf.ModularData(su22.labels, su22.zero, su22.dual, S, su22.theta, tol=1e-12)
    with pytest.raises(mf.InvalidModularData, match=r"^simple currents fail \(I\).* by 1.414e-10 > 1.000e-12$"):
        mf.current_layer(data)


def test_charge_off_the_invariant_factor_roots_is_rejected():
    # lie D 4 1: G is Z2 x Z2, so |G| = 4, d_j = 2 and every charge is even;
    # an odd charge of a basis element g_j is no square root of unity
    data = get_family("lie", "D", 4, 1)
    fusion = get_fusion(data)
    assert dual_group(data, fusion).invariant_factors == (2, 2)
    x = data.n - 1
    rejected = []
    for J in fusion.currents:
        if J == data.index(data.zero):
            continue
        bent = copy.copy(fusion)
        bent.charges = dict(fusion.charges)
        bent.charges[J] = fusion.charges[J].copy()
        bent.charges[J][x] = 1
        try:
            dual_group(data, bent)
        except mf.InvalidModularData as exc:
            assert f"monodromy charge of {data.labels[J]!r} on {data.labels[x]!r}" in str(exc)
            rejected.append(J)
    assert len(rejected) == 2  # the two basis elements; the third current is their product


def test_trivial_category_group():
    data, pres = group_of("su", 2, 0)
    assert pres.invariant_factors == ()
    assert pres.torsion_order == 1
    chi = mf.find_fundamental_symplectic_character(data, pres)
    assert isinstance(chi, GroupCharacter)
    assert chi(data.zero) == 0


def test_cyclic_groups():
    assert group_of("su", 2, 1)[1].invariant_factors == (2,)
    assert group_of("su", 2, 4)[1].invariant_factors == (2,)
    assert group_of("su", 3, 1)[1].invariant_factors == (3,)
    assert group_of("su", 3, 2)[1].invariant_factors == (3,)
    assert group_of("su", 4, 1)[1].invariant_factors == (4,)
    assert group_of("lie", "G", 2, 1)[1].invariant_factors == ()


def test_d4_level1_group_is_klein():
    _, pres = group_of("lie", "D", 4, 1)
    assert pres.invariant_factors == (2, 2)
    assert pres.torsion_order == 4


def test_generator_characters(su32):
    pres = dual_group(su32, get_fusion(su32))
    gens = mf.generator_characters(pres)
    assert len(gens) == len(pres.invariant_factors) == 1
    chi = gens[0]
    assert is_character(oracle_group(su32, get_fusion(su32))[2], su32.labels, chi)
    assert chi(su32.zero) == 0
    # generator really has order 3
    assert chi("1").denominator == 3


def test_is_character(su22, su32):
    rows2 = oracle_group(su22, get_fusion(su22))[2]
    rows3 = oracle_group(su32, get_fusion(su32))[2]
    zero2 = GroupCharacter({lab: 0 for lab in su22.labels})
    assert is_character(rows2, su22.labels, zero2)
    mu3 = GroupCharacter(
        {lab: su_mu_tilde(3, parse_young_label(lab)) for lab in su32.labels}
    )
    assert is_character(rows3, su32.labels, mu3)
    bad = GroupCharacter({"0": 0, "1": Fraction(1, 3), "2": 0})
    assert not is_character(rows2, su22.labels, bad)


def test_su2_mu_tilde_is_character():
    for k in (1, 2, 3, 4, 5):
        data = get_family("su", 2, k)
        rows = oracle_group(data, get_fusion(data))[2]
        chi = GroupCharacter(
            {lab: su_mu_tilde(2, parse_young_label(lab)) for lab in data.labels}
        )
        assert is_character(rows, data.labels, chi)


def test_find_su23_symplectic_character(su23):
    chi = mf.find_fundamental_symplectic_character(su23, dual_group(su23, get_fusion(su23)))
    assert isinstance(chi, GroupCharacter)
    assert chi.values == {
        "0": Fraction(0),
        "1": Fraction(1, 2),
        "2": Fraction(0),
        "3": Fraction(1, 2),
    }
    # the odd labels are exactly the symplectic ones
    assert mf.fs_indicators(su23) == {"0": 1, "1": -1, "2": 1, "3": -1}


def test_find_with_no_symplectic_labels_returns_identity(su32, fib):
    for data in (su32, fib):
        chi = mf.find_fundamental_symplectic_character(data, dual_group(data, get_fusion(data)))
        assert all(v == 0 for v in chi.values.values())


def test_find_d4_level1():
    data = get_family("lie", "D", 4, 1)
    chi = mf.find_fundamental_symplectic_character(data, dual_group(data, get_fusion(data)))
    # all four FS indicators are +1, so the lex-min solution is trivial
    assert all(v == 0 for v in chi.values.values())


# the families of the grading benchmark that are not built-ins
GRADING = [("su", 3, 6), ("su", 4, 4), ("su", 5, 3), ("su", 4, 5), ("su", 4, 6)]


@pytest.mark.parametrize("tokens", builtin_tokens() + GRADING, ids=lambda t: " ".join(map(str, t)))
def test_symplectic_character_matches_the_enumeration_oracle(tokens):
    data, pres = group_of(*tokens)
    want = symplectic_character_oracle(pres, characters._indicator_targets(data))
    with mock.patch.object(characters, "GroupCharacter", side_effect=GroupCharacter) as made:
        found = mf.find_fundamental_symplectic_character(data, pres)
    assert made.call_count == 1  # the winner alone is built
    assert found.values == want
    assert all(type(v) is Fraction and type(v.numerator) is int for v in found.values.values())


def _set_targets(case):
    """(data, presentation, targets) of one named case of set symplectic targets."""
    if case == "G 2 1 half":  # exponent 1: a half meets no value
        data, pres = group_of("lie", "G", 2, 1)
        return data, pres, {"0.0": 0, "0.1": Fraction(1, 2)}
    data, pres = group_of("lie", "D", 4, 2)  # the two-factor group (2, 2)
    one = next(lab for lab in data.labels if pres.label_image[lab] == (1, 0))
    gens = mf.generator_characters(pres)
    targets = {
        # every label: exactly the sum of the two generator characters
        "D 4 2 both": {lab: sum(chi(lab) for chi in gens) % 1 for lab in data.labels},
        # one label only: two characters fit each of 0 and 1/2, the least is taken
        "D 4 2 zero": {one: Fraction(0)},
        "D 4 2 half": {one: Fraction(1, 2)},
        "D 4 2 third": {one: Fraction(1, 3)},  # no character takes a third: the certificate
    }
    return data, pres, targets[case]


@pytest.mark.parametrize("case", ["G 2 1 half", "D 4 2 both", "D 4 2 zero", "D 4 2 half", "D 4 2 third"])
def test_symplectic_search_on_set_targets_matches_the_oracle(monkeypatch, case):
    data, pres, targets = _set_targets(case)
    monkeypatch.setattr(characters, "_indicator_targets", lambda data: targets)
    want = symplectic_character_oracle(pres, targets)
    found = mf.find_fundamental_symplectic_character(data, pres)
    if want is None:
        assert case in ("G 2 1 half", "D 4 2 third")
        assert found == _build_certificate(pres, targets)
    else:
        assert found.values == want


def test_group_character_normalizes_values_into_the_unit_interval():
    chi = GroupCharacter({"a": Fraction(-1, 3), "b": Fraction(5, 2), "c": 3, "d": Fraction(1, 3), "e": Fraction(1)})
    assert chi.values == {"a": Fraction(2, 3), "b": Fraction(1, 2), "c": 0, "d": Fraction(1, 3), "e": 0}
    assert all(type(v) is Fraction for v in chi.values.values())


def test_invariant_factors_stable_under_relabeling(su31):
    perm = ["1.1", "0", "1"]
    order = [su31.index(lab) for lab in perm]
    S = su31.S[np.ix_(order, order)]
    data = mf.ModularData(
        tuple(perm),
        su31.zero,
        {lab: su31.dual[lab] for lab in perm},
        S,
        {lab: su31.theta[lab] for lab in perm},
        tol=su31.tol,
    )
    pres = dual_group(data, mf.verlinde_fusion(data))
    assert pres.invariant_factors == (3,)
    gen = mf.generator_characters(pres)[0]
    assert {gen("1"), gen("1.1")} == {Fraction(1, 3), Fraction(2, 3)}


def test_character_phase():
    chi = GroupCharacter({"a": Fraction(1, 2), "b": Fraction(7, 3)})
    assert abs(chi.phase("a") + 1.0) < 1e-14
    assert chi("b") == Fraction(1, 3)
    assert abs(chi.phase("b") - complex(-0.5, np.sqrt(3) / 2)) < 1e-14


def test_infeasibility_certificate(su31):
    pres = dual_group(su31, get_fusion(su31))
    # demand chi("0") = 1/2 on the vacuum: impossible, since chi("0") = 0
    cert = _build_certificate(pres, {"0": Fraction(1, 2)})
    assert isinstance(cert, mf.InfeasibilityCertificate)
    assert cert.target_sum == Fraction(1, 2)
    assert set(cert.coefficients) <= {"0"}
    _verify_certificate(pres, cert)  # must not raise


def test_infeasibility_certificate_over_trivial_group():
    # lie G 2 1 has no invertible label but the unit: no invariant factor,
    # so every integer combination is in the kernel and the first unit
    # vector with a fractional target sum is the certificate
    _, pres = group_of("lie", "G", 2, 1)
    assert pres.invariant_factors == ()
    cert = _build_certificate(pres, {"0.0": Fraction(0), "0.1": Fraction(1, 2)})
    assert cert.coefficients == {"0.1": 1}
    assert cert.target_sum == Fraction(1, 2)
    _verify_certificate(pres, cert)


def test_vanishing_check(su31):
    mu = GroupCharacter(
        {lab: su_mu_tilde(3, parse_young_label(lab)) for lab in su31.labels}
    )
    hot = mf.sphere_with_labels(["1", "1"])  # character sum 2/3, dim 0
    assert mf.vanishing_check(su31, get_fusion(su31), mu, hot)
    cold = mf.sphere_with_labels(["1", "1.1"])  # character sum 0: vacuous
    assert mf.vanishing_check(su31, get_fusion(su31), mu, cold)
    fake = GroupCharacter({"0": 0, "1": Fraction(1, 3), "1.1": Fraction(1, 3)})
    # sum 2/3 on a surface with a one-dimensional state space
    assert not mf.vanishing_check(su31, get_fusion(su31), fake, cold)


# ---------------------------------------------------------------------------
# The integer Smith form behind dual_group and the certificate


def _det(rows):
    """Exact determinant of a square integer matrix by Bareiss elimination."""
    m = [[int(x) for x in row] for row in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def _random_matrices():
    rng = np.random.default_rng(20240601)
    out = [np.zeros((r, c), dtype=np.int64) for r in range(3) for c in range(3)]
    for _ in range(300):
        r, c = (int(x) for x in rng.integers(0, 8, size=2))
        m = rng.integers(-9, 10, size=(r, c))
        m[rng.random((r, c)) < 0.3] = 0  # zero pivots, zero rows and columns
        out.append(m)
    # rank one, so every step after the first pivot is a zero pivot
    out.append(np.outer([2, -4, 6], [3, 0, -9, 12]))
    # tall, the certificate's shape; in the rank-one and rank-two products a
    # zero pivot moves a left row across many rows
    for r, c in ((30, 3), (40, 2), (25, 4)):
        m = rng.integers(-9, 10, size=(r, c))
        m[rng.random((r, c)) < 0.3] = 0
        out.append(m)
    out.append(np.outer(rng.integers(-9, 10, size=30), [0, 4, -6]))
    out.append(rng.integers(-5, 6, size=(30, 2)) @ rng.integers(-5, 6, size=(2, 4)))
    return out


@functools.cache
def _family_matrices():
    """Every matrix the Smith form receives from the 33 built-in families.

    dual_group's relation matrix for each family, the certificate stack of
    test_infeasibility_certificate, and the Cartan matrices of the Lie
    types behind the families (su N is A_{N-1}) and of D 5.
    """
    seen = []

    def record(matrix):
        seen.append(np.array(matrix, dtype=np.int64))
        return _smith(matrix)

    with mock.patch.object(characters, "_smith", record):
        for tokens in builtin_tokens():
            data = get_family(*tokens)
            dual_group(data, get_fusion(data))
        su31 = get_family("su", 3, 1)
        _build_certificate(dual_group(su31, get_fusion(su31)), {"0": Fraction(1, 2)})
    types = {("A", N - 1) for N, _k in mf.BUILTIN_SU} | {(t, r) for t, r, _level in mf.BUILTIN_LIE}
    seen += [np.array(LieData(t, r, 1).cartan, dtype=np.int64) for t, r in sorted(types)]
    seen.append(np.array(lie._cartan_matrix("D", 5)[0], dtype=np.int64))  # LieData refuses rank 5
    return tuple(seen)


def _check_smith(m):
    # left m = diag(d) X for a unimodular X, which is never formed: the rows
    # of left m past the rank vanish, row i is d_i times a row of X, and
    # those quotient rows extend to a basis (their invariant factors are all 1)
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form

    invs, left = _smith(m)
    rows, cols = m.shape
    assert len(invs) == min(rows, cols) and left.shape == (rows, rows)
    assert all(type(x) is int for x in itertools.chain(invs, left.flat))
    assert _det(left) in (1, -1)
    assert all(x >= 0 for x in invs)
    # each factor divides the next (0 divides only 0, so zeros come last)
    assert all((b == 0) if a == 0 else (b % a == 0) for a, b in zip(invs, invs[1:]))
    rank = sum(1 for d in invs if d)
    lm = left.dot(m.astype(object)).reshape(rows, cols)
    assert all(x == 0 for x in lm[rank:].flat)
    assert all(x % d == 0 for d, row in zip(invs[:rank], lm) for x in row)
    if rank:
        quotient = Matrix([[x // d for x in row] for d, row in zip(invs, lm[:rank])])
        snf = smith_normal_form(quotient, ZZ)
        assert [abs(int(snf[i, i])) for i in range(rank)] == [1] * rank


def test_smith_defining_properties_on_random_matrices():
    for m in _random_matrices():
        _check_smith(m)


def test_smith_defining_properties_on_family_matrices():
    matrices = _family_matrices()
    assert len(matrices) > 33 + 1
    for m in matrices:
        _check_smith(m)


def test_smith_equals_sympy_decomposition():
    # sympy is a test-only dependency: the library's Smith form is a port of
    # sympy's pivot steps, so the invariant factors and the left transform
    # must agree entry for entry (with python ground types, which conftest
    # pins: gmpy2's gcdext may pick other Bezout coefficients)
    from sympy import ZZ, Matrix
    from sympy.external.gmpy import GROUND_TYPES
    from sympy.matrices.normalforms import smith_normal_decomp

    assert GROUND_TYPES == "python"

    for m in _random_matrices() + list(_family_matrices()):
        if not m.size:
            continue
        snf, want_left, _want_right = smith_normal_decomp(Matrix(m.tolist()), ZZ)
        invs, left = _smith(m)
        assert list(invs) == [int(snf[a, a]) for a in range(min(m.shape))]
        assert left.tolist() == [[int(x) for x in row] for row in want_left.tolist()]
