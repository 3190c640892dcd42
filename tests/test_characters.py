"""Grading group presentations, characters, and the symplectic search."""

import functools
import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import modfunctor as mf
from modfunctor import characters, lie
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
from grading_oracle import build_relation_matrix, is_character, oracle_group
from lie_oracle import su_mu_tilde


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


def test_su48_group_without_relation_matrix():
    code, report = run_command(["--json", "characters", "su", "4", "8"])
    assert code == 0
    assert report.machine["invariant_factors"] == [4]
    assert report.machine["free_rank"] == 0


def test_non_root_of_unity_charge_is_rejected(su22):
    # twist the phase of S at (2, 1): the charge of invertible "2" on "1"
    # moves off the square roots of unity while S stays symmetric
    S = su22.S.copy()
    i, g = su22.index("1"), su22.index("2")
    S[g, i] *= np.exp(0.1j)
    S[i, g] *= np.exp(0.1j)
    data = mf.ModularData(su22.labels, su22.zero, su22.dual, S, su22.theta, tol=su22.tol)
    with pytest.raises(mf.InvalidModularData, match="'2' on '1'"):
        dual_group(data, get_fusion(su22))


def test_trivial_category_group():
    data, pres = group_of("su", 2, 0)
    assert pres.invariant_factors == ()
    assert pres.torsion_order == 1
    chi = mf.find_fundamental_symplectic_character(data)
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
        {lab: su_mu_tilde(3, mf.parse_young_label(lab)) for lab in su32.labels}
    )
    assert is_character(rows3, su32.labels, mu3)
    bad = GroupCharacter({"0": 0, "1": Fraction(1, 3), "2": 0})
    assert not is_character(rows2, su22.labels, bad)


def test_su2_mu_tilde_is_character():
    for k in (1, 2, 3, 4, 5):
        data = get_family("su", 2, k)
        rows = oracle_group(data, get_fusion(data))[2]
        chi = GroupCharacter(
            {lab: su_mu_tilde(2, mf.parse_young_label(lab)) for lab in data.labels}
        )
        assert is_character(rows, data.labels, chi)


def test_find_su23_symplectic_character(su23):
    chi = mf.find_fundamental_symplectic_character(su23)
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
        chi = mf.find_fundamental_symplectic_character(data)
        assert all(v == 0 for v in chi.values.values())


def test_find_d4_level1():
    data = get_family("lie", "D", 4, 1)
    chi = mf.find_fundamental_symplectic_character(data)
    # all four FS indicators are +1, so the lex-min solution is trivial
    assert all(v == 0 for v in chi.values.values())


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


def test_vanishing_check(su31):
    mu = GroupCharacter(
        {lab: su_mu_tilde(3, mf.parse_young_label(lab)) for lab in su31.labels}
    )
    hot = mf.sphere_with_labels(["1", "1"])  # character sum 2/3, dim 0
    assert mf.vanishing_check(su31, mu, hot)
    cold = mf.sphere_with_labels(["1", "1.1"])  # character sum 0: vacuous
    assert mf.vanishing_check(su31, mu, cold)
    fake = GroupCharacter({"0": 0, "1": Fraction(1, 3), "1.1": Fraction(1, 3)})
    # sum 2/3 on a surface with a one-dimensional state space
    assert not mf.vanishing_check(su31, fake, cold)


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
    diag, left, right = _smith(m)
    rows, cols = m.shape
    assert diag.shape == (rows, cols) and left.shape == (rows, rows) and right.shape == (cols, cols)
    assert all(type(x) is int for x in itertools.chain(diag.flat, left.flat, right.flat))
    assert np.array_equal(left.dot(m.astype(object)).dot(right), diag)
    assert _det(left) in (1, -1) and _det(right) in (1, -1)
    d = [diag[a, a] for a in range(min(rows, cols))]
    assert np.count_nonzero(diag) == np.count_nonzero(d)
    assert all(x >= 0 for x in d)
    # each factor divides the next (0 divides only 0, so zeros come last)
    assert all((b == 0) if a == 0 else (b % a == 0) for a, b in zip(d, d[1:]))


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
    # sympy's pivot steps, so (diag, left, right) must agree entry for entry
    # (with sympy's default python ground types; gmpy2's gcdext may pick
    # other Bezout coefficients)
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_decomp

    for m in _random_matrices() + list(_family_matrices()):
        if not m.size:
            continue
        want = smith_normal_decomp(Matrix(m.tolist()), ZZ)
        got = _smith(m)
        for g, w in zip(got, want):
            assert g.tolist() == [[int(x) for x in row] for row in w.tolist()]
