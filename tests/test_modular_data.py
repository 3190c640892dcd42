"""Core modular-data checks against hand-frozen small examples.

The rank-2 S-matrix (1/sqrt2)[[1,1],[1,-1]] and the Ising-like rank-3
family are small enough to verify by hand; they anchor everything the
larger families rely on.
"""

import math
import re

import numpy as np
import pytest

import modfunctor as mf
from conftest import builtin_tokens, get_family, get_fusion

SQ2 = math.sqrt(2.0)
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _rebuild(data, *, labels=None, zero=None, dual=None, S=None, theta=None, tol=None):
    return mf.ModularData(
        labels=labels if labels is not None else data.labels,
        zero=zero if zero is not None else data.zero,
        dual=dual if dual is not None else data.dual,
        S=S if S is not None else data.S,
        theta=theta if theta is not None else data.theta,
        tol=tol if tol is not None else data.tol,
    )


def test_su2_level1_frozen_values(su21):
    assert su21.labels == ("0", "1")
    assert np.allclose(su21.S, np.array([[1, 1], [1, -1]]) / SQ2, atol=1e-14)
    assert abs(su21.theta["0"] - 1) < 1e-14
    assert abs(su21.theta["1"] - 1j) < 1e-14
    assert abs(mf.global_D(su21) - SQ2) < 1e-12
    # Gauss sum 1*1 + (1/i)*1 = 1 - i
    assert abs(mf.gauss_sum_delta(su21) - (1 - 1j)) < 1e-12
    assert abs(mf.gauss_sum_delta(su21, conjugate=True) - (1 + 1j)) < 1e-12


def test_anomaly_scalar_eighth_root(su21):
    # D/Delta = exp(i pi/4), so the anomaly has order eight
    one = mf.anomaly_scalar(su21, 8)
    assert abs(one - 1) < 1e-12
    assert abs(mf.anomaly_scalar(su21, 1) - complex(math.cos(math.pi / 4), math.sin(math.pi / 4))) < 1e-12


def test_quantum_dims(su22, su23):
    assert np.allclose(mf.quantum_dims(su22).real, [1.0, SQ2, 1.0], atol=1e-12)
    assert np.allclose(mf.quantum_dims(su23).real, [1.0, PHI, PHI, 1.0], atol=1e-12)
    assert abs(mf.quantum_dim(su22, "1") - SQ2) < 1e-12
    assert abs(mf.global_D(su22) - 2.0) < 1e-12


def test_validate_clean_families():
    for fam in (("su", 2, 4), ("su", 3, 2), ("lie", "B", 2, 1)):
        report = mf.validate_modular_data(get_family(*fam))
        assert report.ok, report.violations


def test_validate_flags_broken_symmetry(su22):
    S = su22.S.copy()
    S[0, 1] += 1e-3
    report = mf.validate_modular_data(_rebuild(su22, S=S))
    assert "S-symmetry" in report.violations


def test_validate_flags_noninvolutive_dual(su23):
    # 3-cycle on the nontrivial labels passes construction, fails validation
    report = mf.validate_modular_data(
        _rebuild(su23, dual={"0": "0", "1": "2", "2": "3", "3": "1"})
    )
    assert "dual-involution" in report.violations


def test_validate_flags_bad_theta(su22):
    theta = dict(su22.theta)
    theta["0"] = 0.5 + 0j
    report = mf.validate_modular_data(_rebuild(su22, theta=theta))
    assert "theta-zero" in report.violations


def test_validate_flags_nonunitary_s(su22):
    report = mf.validate_modular_data(_rebuild(su22, S=su22.S * 1.01))
    assert "S-unitarity" in report.violations


def test_validate_flags_s_squared(su22):
    # i*S stays symmetric and unitary, but squares to -C
    report = mf.validate_modular_data(_rebuild(su22, S=su22.S * 1j))
    assert "S-squared" in report.violations


def test_validate_flags_twist_modulus(su22):
    theta = dict(su22.theta)
    theta["1"] *= 1.01
    report = mf.validate_modular_data(_rebuild(su22, theta=theta))
    assert "theta-modulus" in report.violations


def test_validate_flags_st_cubed(su22):
    # a unit-modulus twist with the wrong phase breaks only (ST)^3 = (p+/D) S^2;
    # label "2" is bent because S_11 = 0 leaves (ST)^3 blind to theta_1
    theta = dict(su22.theta)
    theta["2"] *= np.exp(0.1j)
    report = mf.validate_modular_data(_rebuild(su22, theta=theta))
    assert report.violations == ["ST-cubed"]


def test_constructor_rejects_structural_garbage(su22):
    with pytest.raises(mf.InvalidModularData):
        _rebuild(su22, zero="9")
    with pytest.raises(mf.InvalidModularData):
        _rebuild(su22, dual={"0": "0", "1": "1"})  # wrong domain
    with pytest.raises(mf.InvalidModularData):
        _rebuild(su22, S=su22.S[:2, :2])
    with pytest.raises(mf.InvalidModularData):
        _rebuild(su22, tol=-1.0)
    with pytest.raises(mf.InvalidModularData):
        mf.ModularData(
            labels=("0", "0"), zero="0", dual={"0": "0"}, S=[[1]], theta={"0": 1}
        )


def test_verlinde_fusion_su2_level2(su22):
    fusion = get_fusion(su22)
    # 1 x 1 = 0 + 2,   1 x 2 = 1,   2 x 2 = 0
    assert fusion.coeff(su22, "1", "1", "0") == 1
    assert fusion.coeff(su22, "1", "1", "2") == 1
    assert fusion.coeff(su22, "1", "1", "1") == 0
    assert fusion.coeff(su22, "1", "2", "1") == 1
    assert fusion.coeff(su22, "2", "2", "0") == 1
    assert fusion.N.sum() == 10  # unit rows 3+3, duality column. all multiplicity one


def test_verlinde_unit_and_duality_rows(su32):
    fusion = get_fusion(su32)
    n = su32.n
    z = su32.index(su32.zero)
    assert np.array_equal(fusion.N[z], np.eye(n, dtype=fusion.N.dtype))
    for i in range(n):
        for k in range(n):
            want = 1 if k == su32.dual_index(i) else 0
            assert fusion.N[i, k, z] == want


def test_verlinde_rejects_corrupt_s(su22):
    S = su22.S.copy()
    S[1, 0] += 0.01  # S[1,1] is exactly zero here, so bend a nonzero entry
    bad = _rebuild(su22, S=S)
    with pytest.raises(mf.NonIntegralFusion):
        mf.verlinde_fusion(bad)


def fusion_oracle(data):
    """Dense tensor by the eager route: N[i] = round(S diag(S_i/S_0) S^dagger), every i."""
    S = data.S
    row0 = S[data.index(data.zero)]
    Sct = S.conj().T
    N = np.empty((data.n,) * 3, dtype=np.int64)
    for i in range(data.n):
        N[i] = np.round(((S * (S[i] / row0)) @ Sct).real)
    return N


@pytest.mark.parametrize(
    "tokens", builtin_tokens() + [("lie", "D", 4, 1), ("su", 4, 8)], ids=lambda t: " ".join(map(str, t))
)
def test_fusion_slices_and_stack_match_eager_oracle(tokens):
    data = get_family(*tokens)
    want = fusion_oracle(data)
    dense_first = mf.verlinde_fusion(data)
    assert dense_first.N.dtype == np.int64
    assert np.array_equal(dense_first.N, want)
    slices_first = mf.verlinde_fusion(data)
    for j in range(data.n):
        for fusion in (slices_first, dense_first):
            assert fusion.slice(j).dtype == np.int64
            assert np.array_equal(fusion.slice(j), want[:, j, :])
            assert fusion.column_max[j] == max(1, want[:, j, :].sum(axis=0).max())
    assert np.array_equal(slices_first.N, want)


def test_dense_stack_is_cached_read_only_and_apart_from_slices(su32):
    fusion = mf.verlinde_fusion(su32)
    N = fusion.N
    assert fusion.N is N and not N.flags.writeable
    assert fusion.column_max == {}  # the slice cache stays empty
    assert not np.shares_memory(fusion.slice(1), N)


def test_negative_coefficient_error_names_a_negative_triple(su32):
    # D S D with D = diag(+-1) keeps S symmetric, unitary and the Verlinde sums
    # integral, but negates N_ij^k whenever an odd number of i, j, k is flipped
    flip = np.ones(su32.n)
    flip[su32.index("2.1")] = -1
    bad = _rebuild(su32, S=su32.S * np.outer(flip, flip))
    with pytest.raises(mf.NonIntegralFusion, match="negative fusion coefficient") as info:
        mf.verlinde_fusion(bad)
    value, i, j, k = re.search(r"coefficient (-\d+) at \((.+), (.+), (.+)\)$", str(info.value)).groups()
    N = fusion_oracle(bad)
    assert N[bad.index(i), bad.index(j), bad.index(k)] == int(value) < 0


def handle_oracle(data, fusion):
    """Handle operator by the integer route: sum_j N_j N_{j*}, (N_j)_{xy} = N_{xj}^y."""
    N = fusion.N
    return sum(N[:, j, :] @ N[:, data.dual_index(j), :] for j in range(data.n))


def indicator_oracle(data, fusion, i):
    """Indicator by the tensor sum D^{-2} sum_{j,k} N_{jk}^i d_j d_k (theta_j/theta_k)^2."""
    dims = mf.quantum_dims(data)
    th = np.array([data.theta[a] for a in data.labels])
    ratio2 = np.outer(th, 1.0 / th) ** 2
    total = np.sum(fusion.N[:, :, data.index(i)] * np.outer(dims, dims) * ratio2)
    return complex(total / np.sum(dims**2))


ORACLE_FAMILIES = builtin_tokens() + [("lie", "D", 4, 1)]


@pytest.mark.parametrize("tokens", ORACLE_FAMILIES, ids=lambda t: " ".join(map(str, t)))
def test_handle_matches_integer_oracle(tokens):
    data = get_family(*tokens)
    fusion = get_fusion(data)
    assert fusion.handle.dtype == np.int64
    assert np.array_equal(fusion.handle, handle_oracle(data, fusion))


@pytest.mark.parametrize("tokens", ORACLE_FAMILIES, ids=lambda t: " ".join(map(str, t)))
def test_fs_indicator_matches_tensor_oracle(tokens):
    data = get_family(*tokens)
    fusion = get_fusion(data)
    got = mf.fs_indicators(data)
    assert list(got) == list(data.labels)
    for lab in data.labels:
        want = indicator_oracle(data, fusion, lab)
        assert abs(want - round(want.real)) < 1e-9
        assert got[lab] == round(want.real)


def test_fs_indicator_small_families(su22, su31):
    assert list(mf.fs_indicators(su22).values()) == [1, -1, 1]
    # only the unit is self-dual in the rank-3 level-1 family
    assert mf.fs_indicators(su31) == {"0": 1, "1": 0, "1.1": 0}


def test_fs_indicator_fibonacci(fib):
    assert list(mf.fs_indicators(fib).values()) == [1, 1]


def test_fs_indicators_name_the_first_bad_label(su22):
    # turning the twist of "1" moves its indicator off {-1, 0, +1}
    theta = dict(su22.theta, **{"1": su22.theta["1"] * np.exp(0.3j)})
    data = mf.ModularData(su22.labels, su22.zero, su22.dual, su22.S, theta, tol=su22.tol)
    with pytest.raises(mf.InvalidModularData, match="indicator of '1' is .*, not within tolerance"):
        mf.fs_indicators(data)


def test_gauss_sum_modulus_matches_global_rank():
    # |Delta| = D for unitary data
    for fam in (("su", 2, 3), ("su", 3, 2), ("lie", "C", 2, 2)):
        data = get_family(*fam)
        assert abs(abs(mf.gauss_sum_delta(data)) - mf.global_D(data).real) < 1e-9


def test_fusion_tensor_coeff_by_label(su23):
    fusion = get_fusion(su23)
    # golden fusion: 1 x 1 = 0 + 2
    assert fusion.coeff(su23, "1", "1", "0") == 1
    assert fusion.coeff(su23, "1", "1", "2") == 1
    assert fusion.coeff(su23, "1", "1", "3") == 0
