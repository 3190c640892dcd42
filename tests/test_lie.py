"""Lie-side constructions against closed-form oracles.

The rank-2 sine formula S_ab = sqrt(2/(k+2)) sin((a+1)(b+1) pi/(k+2))
and twist exponents a(a+2)/(4(k+2)) are classical and independently
derivable, so they pin down the general construction; cross-family
agreement (partition model vs Dynkin-label model) covers the rest.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import modfunctor as mf
from modfunctor import lie
from modfunctor.cli import run_command
from modfunctor.families import BUILTIN_SU
from modfunctor.lie import LieData, alcove_weights, weight_label
from conftest import get_family, get_fusion
from lie_oracle import (
    coupon_sign,
    lattice_fundamental_group,
    su_mu_tilde,
    su_s_matrix_oracle,
    su_twist_oracle,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def su2_sine_matrix(k):
    """Independent closed form for the rank-2 S-matrix at level k."""
    n = k + 2
    a = np.arange(k + 1)
    return np.sqrt(2.0 / n) * np.sin(np.outer(a + 1, a + 1) * np.pi / n)


def test_su2_s_matrix_matches_sine_formula():
    for k in range(1, 6):
        data = get_family("su", 2, k)
        assert np.max(np.abs(data.S - su2_sine_matrix(k))) < 1e-12


def test_su2_twists_match_conformal_weights():
    for k in (1, 2, 3, 4):
        data = get_family("su", 2, k)
        for a in range(k + 1):
            want = np.exp(2j * np.pi * a * (a + 2) / (4.0 * (k + 2)))
            assert abs(data.theta[str(a)] - want) < 1e-12


# the su families of the benchmark's large-fusion workload, n = 84 to 210
LARGE_SU = ((4, 6), (5, 4), (4, 7), (5, 5), (4, 8), (5, 6))


@pytest.mark.parametrize("N, k", BUILTIN_SU + LARGE_SU)
def test_su_s_matrix_matches_per_entry_oracle(N, k):
    S = get_family("su", N, k).S
    oracle = su_s_matrix_oracle(N, k)
    assert np.max(np.abs(S - oracle)) < 1e-13
    assert np.array_equal(S, S.T)  # one determinant per unordered pair
    eye = np.eye(len(S))
    # a few ulp of slack: where long double is plain double the table is not
    # correctly rounded (see lie._roots_of_unity)
    slack = 4 * np.finfo(float).eps
    assert np.max(np.abs(S @ S.conj().T - eye)) <= np.max(np.abs(oracle @ oracle.conj().T - eye)) + slack


@pytest.mark.parametrize("N, k", BUILTIN_SU + LARGE_SU)
def test_su_twists_match_float_form(N, k):
    theta = get_family("su", N, k).theta
    for lab, want in su_twist_oracle(N, k).items():
        assert abs(theta[lab] - want) < 1e-13


def test_su_labels_and_counts():
    assert [str(lab) for lab in get_family("su", 2, 2).labels] == ["0", "1", "2"]
    assert get_family("su", 3, 1).labels == ("0", "1", "1.1")
    # binomial(N+k-1, N-1) labels
    assert get_family("su", 3, 2).n == 6
    assert get_family("su", 4, 1).n == 4
    assert get_family("su", 4, 3).n == 20


def test_young_label_round_trip():
    for text in ("0", "3", "2.1", "4.4.1"):
        assert mf.young_label(mf.parse_young_label(text)) == text
    with pytest.raises(Exception):
        mf.parse_young_label("1.2")  # rows must be weakly decreasing


def test_young_dagger():
    lam = mf.parse_young_label("1")
    assert mf.young_label(mf.young_dagger(3, lam)) == "1.1"
    assert mf.young_label(mf.young_dagger(2, lam)) == "1"
    self_dual = mf.parse_young_label("2.1")
    assert mf.young_label(mf.young_dagger(3, self_dual)) == "2.1"
    # involution on the whole level-3 label set
    for lab in get_family("su", 3, 3).labels:
        lam = mf.parse_young_label(lab)
        twice = mf.young_dagger(3, mf.young_dagger(3, lam))
        assert twice == lam


def test_su_dual_map_is_dagger():
    data = get_family("su", 3, 2)
    assert data.dual["1"] == "1.1"
    assert data.dual["2"] == "2.2"
    assert data.dual["2.1"] == "2.1"


def test_su_mu_tilde_values():
    assert su_mu_tilde(3, mf.parse_young_label("1")) == Fraction(1, 3)
    assert su_mu_tilde(3, mf.parse_young_label("2.1")) == 0
    assert su_mu_tilde(2, mf.parse_young_label("1")) == Fraction(1, 2)
    assert su_mu_tilde(4, mf.parse_young_label("3.2.1")) == Fraction(1, 2)


def test_coupon_sign_hand_value():
    # N=2, m=1: (-a^-1 s)(a^-1 v) with a=q^{-1/4}, s=q^{1/2}, v=q^{-1} -> -1
    for k in (1, 2, 5):
        assert abs(coupon_sign(2, k, 1) + 1.0) < 1e-12
        assert abs(coupon_sign(2, k, 0) - 1.0) < 1e-12
        assert abs(coupon_sign(2, k, 2) - 1.0) < 1e-12


def test_scale_limits():
    with pytest.raises(mf.ScaleLimit):
        mf.su_modular_data(7, 1)
    with pytest.raises(mf.ScaleLimit):
        mf.su_modular_data(2, 9)
    with pytest.raises(mf.ScaleLimit):
        LieData("E", 8, 1)  # rank 8: refused before its Weyl group (order ~7e8) is enumerated
    ld6 = LieData("A", 2, 1)
    assert len(ld6.weyl) == 6


def test_weyl_group_orders():
    assert len(LieData("A", 3, 1).weyl) == 24
    assert len(LieData("B", 2, 1).weyl) == 8
    assert len(LieData("B", 3, 1).weyl) == 48
    assert len(LieData("C", 3, 1).weyl) == 48
    assert len(LieData("D", 4, 1).weyl) == 192
    assert len(LieData("G", 2, 1).weyl) == 12
    assert len(LieData("F", 4, 1).weyl) == 1152


def test_dual_coxeter_numbers():
    assert LieData("A", 2, 1).dual_coxeter == 3
    assert LieData("B", 3, 1).dual_coxeter == 5
    assert LieData("C", 3, 1).dual_coxeter == 4
    assert LieData("D", 4, 1).dual_coxeter == 6
    assert LieData("G", 2, 1).dual_coxeter == 4
    assert LieData("F", 4, 1).dual_coxeter == 9


def test_alcove_sizes():
    assert len(alcove_weights(LieData("A", 2, 1))) == 3
    assert len(alcove_weights(LieData("G", 2, 1))) == 2
    assert len(alcove_weights(LieData("B", 2, 1))) == 3
    assert len(alcove_weights(LieData("B", 2, 2))) == 6


def test_fibonacci_family(fib):
    assert fib.n == 2
    tau = next(lab for lab in fib.labels if lab != fib.zero)
    dims = mf.quantum_dims(fib).real
    assert abs(sorted(dims)[1] - PHI) < 1e-12
    assert abs(fib.theta[tau] - np.exp(2j * np.pi * 2 / 5)) < 1e-12
    want = np.array([[1.0, PHI], [PHI, -1.0]]) / math.sqrt(PHI + 2.0)
    assert np.max(np.abs(fib.S - want)) < 1e-12
    fusion = get_fusion(fib)
    assert fusion.coeff(fib, tau, tau, tau) == 1
    assert fusion.coeff(fib, tau, tau, fib.zero) == 1


def test_d4_level1_three_fermion_structure():
    data = get_family("lie", "D", 4, 1)
    assert data.n == 4
    assert np.allclose(mf.quantum_dims(data).real, 1.0, atol=1e-12)
    for lab in data.labels:
        assert data.dual[lab] == lab  # every label self-dual
        want = 1.0 if lab == data.zero else -1.0
        assert abs(data.theta[lab] - want) < 1e-12
    assert all(nu == 1 for nu in mf.fs_indicators(data).values())


def test_a_series_matches_partition_model():
    """Dynkin-coordinate construction vs the partition construction."""
    for N, k in ((2, 3), (3, 2)):
        su = get_family("su", N, k)
        lie = get_family("lie", "A", N - 1, k)
        assert lie.n == su.n
        # partition -> Dynkin labels a_i = lambda_i - lambda_{i+1}
        mapping = {}
        for lab in su.labels:
            rows = list(mf.parse_young_label(lab).rows) + [0] * N
            dynkin = tuple(rows[i] - rows[i + 1] for i in range(N - 1))
            mapping[lab] = weight_label(dynkin)
        perm = [lie.index(mapping[lab]) for lab in su.labels]
        S_perm = lie.S[np.ix_(perm, perm)]
        assert np.max(np.abs(su.S - S_perm)) < 1e-10
        for lab in su.labels:
            assert abs(su.theta[lab] - lie.theta[mapping[lab]]) < 1e-10
            assert mapping[su.dual[lab]] == lie.dual[mapping[lab]]


def test_lattice_fundamental_groups():
    assert lattice_fundamental_group(LieData("A", 2, 1).cartan).invariant_factors == (3,)
    assert lattice_fundamental_group(LieData("A", 3, 1).cartan).invariant_factors == (4,)
    assert lattice_fundamental_group(LieData("D", 4, 1).cartan).invariant_factors == (2, 2)
    assert lattice_fundamental_group(LieData("G", 2, 1).cartan).invariant_factors == ()
    assert lattice_fundamental_group(LieData("B", 3, 1).cartan).invariant_factors == (2,)
    assert lattice_fundamental_group(lie._cartan_matrix("D", 5)[0]).invariant_factors == (4,)


def test_lattice_group_projection():
    group = lattice_fundamental_group(LieData("A", 2, 1).cartan)
    # the two fundamental weights generate opposite classes mod 3
    a = group.project((1, 0))
    b = group.project((0, 1))
    assert a != group.project((0, 0))
    assert [(x + y) % d for x, y, d in zip(a, b, group.invariant_factors)] == [0]


def test_simple_lie_rank_guard(monkeypatch):
    # refused before the Weyl group is enumerated: E 6 alone has 51,840 elements
    def refuse(A):
        raise AssertionError("Weyl group enumerated")

    monkeypatch.setattr(lie, "_enumerate_weyl", refuse)
    for cartan_type, rank in (("D", 5), ("E", 6), ("E", 8)):
        with pytest.raises(mf.ScaleLimit):
            LieData(cartan_type, rank, 1)
    code, report = run_command(["info", "lie", "E", "6", "1"])
    assert code == 2 and "rank <= 4" in report.machine["error"]
