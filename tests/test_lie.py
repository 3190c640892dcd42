"""Lie-side constructions against closed-form oracles.

The rank-2 sine formula S_ab = sqrt(2/(k+2)) sin((a+1)(b+1) pi/(k+2))
and twist exponents a(a+2)/(4(k+2)) are classical and independently
derivable, so they pin down the general construction; cross-family
agreement (partition model vs Dynkin-label model) covers the rest.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import modfunctor as mf
from modfunctor import lie
from modfunctor.cli import run_command
from modfunctor.families import BUILTIN_LIE, BUILTIN_SU
from modfunctor.lie import LieData, alcove_weights, weight_label
from conftest import coeff, get_family, get_fusion
from lie_oracle import (
    coupon_sign,
    highest_root_comarks_oracle,
    lattice_fundamental_group,
    lie_weyl_sum_oracle,
    parse_young_label,
    su_level_labels_oracle,
    su_modular_data_oracle,
    su_mu_tilde,
    su_s_matrix_oracle,
    su_twist_oracle,
    weyl_oracle,
    young_dagger,
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
# fixed points of the simple currents (su 6 2, 6 3, 6 4), one label (su 3 0), n = 495 (su 5 8)
EDGE_SU = ((6, 2), (6, 3), (6, 4), (3, 0), (5, 8))
# 25 su families: the built-ins, larger ones up to n = 210 and two with fixed points
ORBIT_SU = BUILTIN_SU + ((3, 6), (5, 3)) + LARGE_SU + ((6, 2), (6, 3))


@pytest.mark.parametrize("N, k", BUILTIN_SU + LARGE_SU + EDGE_SU)
def test_su_s_matrix_matches_per_entry_oracle(N, k):
    S = get_family("su", N, k).S
    oracle = su_s_matrix_oracle(N, k)
    assert np.max(np.abs(S - oracle)) < 1e-13
    assert np.array_equal(S, S.T)  # the phase exponent is symmetric as an integer
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


def _su_representatives(N, k):
    _where, orbit = lie._su_orbits(lie._su_weight_vectors(N, k), k + N)
    return np.flatnonzero(orbit.min(axis=1) == np.arange(len(orbit)))


# every su family inside ScaleLimit: N = 2..6 at levels 0..8
ALL_SU = tuple(itertools.product(range(2, 7), range(9)))


def _assert_same_su_data(data, want):
    assert np.array_equal(data.S.view(np.int64), want.S.view(np.int64))  # bit for bit, signed zeros too
    assert data.labels == want.labels
    assert data.dual == want.dual
    theta, want_theta = (np.array([t[a] for a in want.labels]) for t in (data.theta, want.theta))
    assert np.array_equal(theta.view(np.int64), want_theta.view(np.int64))


@pytest.mark.parametrize("N, k", ALL_SU)
def test_su_build_equals_the_row_by_row_oracle_bit_for_bit(N, k):
    _assert_same_su_data(lie.su_modular_data(N, k), su_modular_data_oracle(N, k))
    assert mf.su_level_labels(N, k) == su_level_labels_oracle(N, k)


@pytest.mark.parametrize("N, k", [(2, 3), (3, 4), (6, 2), (5, 6)])
@pytest.mark.parametrize("block", [1, 7, 64])
def test_su_build_does_not_depend_on_the_block_size(monkeypatch, N, k, block):
    want = lie.su_modular_data(N, k)
    monkeypatch.setattr(lie, "_FILL_BLOCK", block)  # many determinant batches and one-row fill blocks
    _assert_same_su_data(lie.su_modular_data(N, k), want)


@pytest.mark.parametrize("N, k", ORBIT_SU)
def test_su_representatives_are_the_fusion_orbit_minima(N, k):
    data = get_family("su", N, k)
    currents = get_fusion(data).currents
    assert len(currents) == N
    want = np.unique(np.min(list(currents.values()), axis=0))
    assert np.array_equal(_su_representatives(N, k), want)


@pytest.mark.parametrize("N, k", [(2, 2), (3, 3), (4, 5), (6, 3), (5, 6)])
def test_su_s_build_takes_one_determinant_per_representative_pair(monkeypatch, N, k):
    taken = []
    det = np.linalg.det

    def counting_det(a):
        taken.append(int(np.prod(np.shape(a)[:-2])))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counting_det)
    lie.su_modular_data(N, k)
    r = len(_su_representatives(N, k))
    assert sum(taken) == r * (r + 1) // 2  # summed over the batches
    assert max(taken) * N * N <= lie._FILL_BLOCK  # no batch holds more than `_FILL_BLOCK` matrix entries
    assert r < len(mf.su_level_labels(N, k))


# the peak, in units of S's bytes, allowed for each build
SU_PEAK_BOUND = {(5, 6): 2, (5, 8): 2, (6, 8): 1.15}


@pytest.mark.parametrize("N, k", SU_PEAK_BOUND)
def test_su_s_build_peak_memory(N, k):
    lie.su_modular_data(2, 1)  # first-call allocations of numpy and the label code
    tracemalloc.start()
    try:
        data = lie.su_modular_data(N, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # S, handed over read-only and not copied, the representatives' block
    # and one row block of the fill
    assert peak <= SU_PEAK_BOUND[N, k] * 16 * data.n**2


def test_su_labels_and_counts():
    assert [str(lab) for lab in get_family("su", 2, 2).labels] == ["0", "1", "2"]
    assert get_family("su", 3, 1).labels == ("0", "1", "1.1")
    # binomial(N+k-1, N-1) labels
    assert get_family("su", 3, 2).n == 6
    assert get_family("su", 4, 1).n == 4
    assert get_family("su", 4, 3).n == 20


def test_young_label_round_trip():
    for text in ("0", "3", "2.1", "4.4.1"):
        assert mf.young_label(parse_young_label(text)) == text
    # rows must be weakly decreasing and positive, and the text must be integers
    for text in ("1.2", "2.0", "0.1", "", "a"):
        with pytest.raises(mf.InvalidModularData):
            parse_young_label(text)


@pytest.mark.parametrize("N", range(2, 7))
def test_su_level_labels_match_an_independent_enumeration(N):
    for k in range(9):
        grid = itertools.product(range(k + 1), repeat=N - 1)
        want = [tuple(r for r in t if r) for t in grid if all(a >= b for a, b in zip(t, t[1:]))]
        want.sort(key=lambda rows: (sum(rows), rows))
        labels = mf.su_level_labels(N, k)
        assert labels == want
        assert len(labels) == math.comb(N - 1 + k, k)
        dual = mf.su_modular_data(N, k).dual  # read on shifted parts
        for d in labels:
            dagger = young_dagger(N, d)
            assert young_dagger(N, dagger) == d
            assert sum(d) + sum(dagger) == N * (d[0] if d else 0)
            assert dual[mf.young_label(d)] == mf.young_label(dagger)


def test_young_dagger():
    lam = parse_young_label("1")
    assert mf.young_label(young_dagger(3, lam)) == "1.1"
    assert mf.young_label(young_dagger(2, lam)) == "1"
    self_dual = parse_young_label("2.1")
    assert mf.young_label(young_dagger(3, self_dual)) == "2.1"
    # involution on the whole level-3 label set
    for lab in get_family("su", 3, 3).labels:
        lam = parse_young_label(lab)
        twice = young_dagger(3, young_dagger(3, lam))
        assert twice == lam


def test_su_dual_map_is_dagger():
    data = get_family("su", 3, 2)
    assert data.dual["1"] == "1.1"
    assert data.dual["2"] == "2.2"
    assert data.dual["2.1"] == "2.1"


def test_su_mu_tilde_values():
    assert su_mu_tilde(3, parse_young_label("1")) == Fraction(1, 3)
    assert su_mu_tilde(3, parse_young_label("2.1")) == 0
    assert su_mu_tilde(2, parse_young_label("1")) == Fraction(1, 2)
    assert su_mu_tilde(4, parse_young_label("3.2.1")) == Fraction(1, 2)


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


# the 18 built-ins, eleven larger families up to |W| = 1152 and n = 84, and two
# one-label families, on which a reduce over the Weyl chunk would pair the terms
ORACLE_LIE = list(BUILTIN_LIE) + [
    ("A", 4, 1), ("B", 4, 1), ("C", 4, 1), ("D", 4, 1), ("D", 4, 2), ("F", 4, 1),
    ("F", 4, 2), ("C", 4, 4), ("B", 4, 2), ("C", 3, 6), ("G", 2, 20), ("D", 4, 0), ("F", 4, 0),
]


@pytest.mark.parametrize("family", ORACLE_LIE, ids=lambda f: " ".join(map(str, f)))
def test_lie_data_and_weyl_sum_match_the_element_at_a_time_oracles(family):
    ld = LieData(*family)
    want = weyl_oracle(ld.cartan)
    assert ld.weyl.dtype == np.int64 and ld.weyl.shape == (len(want), ld.rank, ld.rank)
    assert np.array_equal(ld.weyl, np.array([M for M, _ in want]))  # the same elements in the same order
    assert ld.weyl_signs.tolist() == [sgn for _, sgn in want]
    ones = np.ones(ld.rank, dtype=np.int64)
    assert np.array_equal(ld.longest, next(M for M, _ in want if np.array_equal(M @ ones, -ones)))
    assert (ld.comarks, ld.dual_coxeter) == highest_root_comarks_oracle(ld.cartan, ld.symmetrizers)
    data = lie.simple_lie_modular_data(ld)
    S, theta = lie_weyl_sum_oracle(ld)
    assert np.array_equal(data.S.view(np.int64), S.view(np.int64))  # bit for bit: signed zeros count
    assert data.theta == theta


@pytest.mark.parametrize("family", [("F", 4, 8), ("B", 3, 15)], ids=lambda f: " ".join(map(str, f)))
def test_weyl_sum_peak_memory(family):
    lie.simple_lie_modular_data(LieData("G", 2, 1))  # first-call allocations of numpy and the label code
    ld = LieData(*family)
    tracemalloc.start()
    try:
        data = lie.simple_lie_modular_data(ld)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = data.n
    assert len(ld.weyl) * n**2 <= lie._LIE_TERM_CAP  # both sit inside the Weyl-sum cap
    # the running sum, one chunk's Q and terms, the last chunk's terms and a
    # cast buffer: a few n x n complex arrays (4.6 and 3.6 times 16 n^2 when
    # chunked); one (|W|, n, n) stack of terms alone would be |W| = 1152 and
    # 48 times 16 n^2
    assert peak <= 8 * 16 * n**2


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
    assert coeff(fusion, fib, tau, tau, tau) == 1
    assert coeff(fusion, fib, tau, tau, fib.zero) == 1


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
            rows = list(parse_young_label(lab)) + [0] * N
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
