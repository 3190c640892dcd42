"""Scaling pairs: normalization scalars, the two solvers, unitarity scalars."""

import cmath
import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import modfunctor as mf
from modfunctor.scaling import ScalingPair
from modfunctor.surfaces import Component, Surface
from conftest import get_family, get_fusion
from lie_oracle import parse_young_label, su_mu_tilde

ROOT2 = float(np.sqrt(2.0))
EIGHTH = 2.0 ** 0.125  # dim(1)^{1/4} in the three-label family below


def ones(data):
    return ScalingPair.ones(data)


def test_s_factor_at_ones(su22):
    sp = ones(su22)
    assert abs(mf.s_factor(su22, sp, "0") - 1.0) < 1e-14
    assert abs(mf.s_factor(su22, sp, "1") - 2.0 ** 0.25) < 1e-14
    assert abs(mf.s_factor(su22, sp, "2") - 1.0) < 1e-14


def test_ones_fills_every_pair_root_and_reading_keeps_them(su22, su31):
    for data in (su22, su31):
        sp = ones(data)
        keys = {mf.pair_key(data, lab) for lab in data.labels}
        assert sp.sqrt_uu == dict.fromkeys(keys, 1.0 + 0j)
        uu = dict(sp.sqrt_uu)
        for lab in data.labels:
            mf.s_factor(data, sp, lab)
            mf.pairing_normalization(data, sp, mf.sphere_with_labels([lab, data.dual[lab]]))
        assert sp.sqrt_uu == uu


def test_pairing_normalization_frozen(su22):
    sp = ones(su22)
    assert abs(mf.pairing_normalization(su22, sp, Surface(())) - 1.0) < 1e-14
    assert abs(mf.pairing_normalization(su22, sp, mf.sphere_with_labels([])) - 1.0) < 1e-14
    torus = Surface((Component(1),))
    assert abs(mf.pairing_normalization(su22, sp, torus) - 1.0 / 16.0) < 1e-14
    two = mf.sphere_with_labels(["1", "1"])
    assert abs(mf.pairing_normalization(su22, sp, two) - ROOT2) < 1e-14


def test_strict_normalization_frozen(su22):
    sp = ones(su22)
    two = mf.sphere_with_labels(["1", "1"])
    assert abs(mf.strict_gluing_normalization(su22, sp, two) - 1.0 / ROOT2) < 1e-14
    torus = Surface((Component(1),))
    assert abs(mf.strict_gluing_normalization(su22, sp, torus) - 1.0 / 16.0) < 1e-14


def test_gluing_factors_frozen(su22):
    sp = ones(su22)
    assert abs(mf.same_component_factor(su22, sp, "1") - 16.0 / ROOT2) < 1e-12
    assert abs(mf.distinct_component_factor(su22, sp, "1") - 1.0 / ROOT2) < 1e-14
    assert abs(mf.same_component_factor(su22, sp, "0") - 16.0) < 1e-12


def test_telescoping_same_component(su31):
    rng = np.random.default_rng(41)
    for _ in range(6):
        sp = ScalingPair(
            u={lab: complex(rng.normal(), rng.normal()) for lab in su31.labels},
            w={lab: complex(rng.normal(), rng.normal()) for lab in su31.labels},
        )
        for lab in su31.labels:
            cut = mf.sphere_with_labels([lab, su31.dual[lab], "1"])
            glued = mf.glue_points(cut, "p0", "p1", su31.dual)
            coeff = (
                mf.strict_gluing_normalization(su31, sp, glued)
                * mf.same_component_factor(su31, sp, lab)
                / mf.strict_gluing_normalization(su31, sp, cut)
            )
            assert abs(coeff - 1.0) < 1e-12


def test_telescoping_distinct_components(su31):
    rng = np.random.default_rng(42)
    sp = ScalingPair(
        u={lab: complex(rng.normal(), rng.normal()) for lab in su31.labels},
        w={lab: complex(rng.normal(), rng.normal()) for lab in su31.labels},
    )
    for lab in su31.labels:
        a = mf.sphere_with_labels([lab, "1"], id_prefix="a")
        b = mf.sphere_with_labels([su31.dual[lab], "1.1"], id_prefix="b")
        cut = mf.disjoint_union(a, b)
        glued = mf.glue_points(cut, "a0", "b0", su31.dual)
        coeff = (
            mf.strict_gluing_normalization(su31, sp, glued)
            * mf.distinct_component_factor(su31, sp, lab)
            / mf.strict_gluing_normalization(su31, sp, cut)
        )
        assert abs(coeff - 1.0) < 1e-12


def test_mu_scaled(su22, su31):
    sp = mf.solve_canonical(su22)
    # all labels self-dual: scaling cannot move the sign
    assert mu_list(su22, sp) == [1, -1, 1]
    sp3 = dataclasses.replace(mf.solve_canonical(su31), w={"0": 1.0 + 0j, "1": 2.0 + 0j, "1.1": 0.5 + 0j})
    assert abs(mf.mu_scaled(su31, sp3, "1") - 4.0) < 1e-14
    assert abs(mf.mu_scaled(su31, sp3, "1.1") - 0.25) < 1e-14


def mu_list(data, sp):
    return [round(mf.mu_scaled(data, sp, lab).real) for lab in data.labels]


def test_solvers_read_mu_from_the_indicators(su22, su31):
    # mu is the indicator on self-dual labels and 1 elsewhere, in both solvers
    assert mf.solve_canonical(su22).mu == {"0": 1.0 + 0j, "1": -1.0 + 0j, "2": 1.0 + 0j}
    assert mf.solve_canonical(su31).mu == dict.fromkeys(su31.labels, 1.0 + 0j)
    _, sp = strict_pair(su22)
    assert sp.mu == mf.solve_canonical(su22).mu


def test_solve_canonical_values(su22):
    sp = mf.solve_canonical(su22)
    assert all(abs(w - 1.0) < 1e-14 for w in sp.w.values())
    assert abs(sp.u["0"] - 1.0) < 1e-14
    assert abs(sp.u["1"] - EIGHTH) < 1e-14
    assert abs(sp.u["2"] - 1.0) < 1e-14
    trivial = get_family("su", 2, 0)
    sp0 = mf.solve_canonical(trivial)
    assert sp0.u == {"0": 1.0 + 0j}


def test_solve_canonical_residuals():
    for tokens in (("su", 2, 2), ("su", 2, 3), ("su", 3, 1), ("su", 4, 2),
                   ("lie", "G", 2, 1), ("lie", "B", 2, 2)):
        data = get_family(*tokens)
        sp = mf.solve_canonical(data)
        for lab in data.labels:
            res = abs(sp.u[lab] - mf.s_factor(data, sp, lab) * sp.w[lab])
            assert res < 1e-12, (tokens, lab, res)


def strict_pair(data, chi_values=None):
    fusion = get_fusion(data)
    if chi_values is None:
        chi = mf.find_fundamental_symplectic_character(data, mf.dual_group(data, fusion))
    else:
        chi = mf.GroupCharacter(chi_values)
    return chi, mf.solve_strict(data, chi)


def test_solve_strict_residuals(su23, su32):
    for data in (su23, su32):
        if data is su32:
            vals = {lab: su_mu_tilde(3, parse_young_label(lab)) for lab in data.labels}
        else:
            vals = None
        chi, sp = strict_pair(data, vals)
        for i, lab in enumerate(data.labels):
            other = data.labels[data.dual_index(i)]
            res1 = abs(sp.u[lab] - mf.s_factor(data, sp, lab) * sp.w[lab])
            res2 = abs(sp.mu[lab] * sp.u[lab] / sp.u[other] - chi.phase(lab))
            assert res1 < 1e-12, (lab, res1)
            assert res2 < 1e-12, (lab, res2)
            assert abs(mf.mu_scaled(data, sp, lab) - chi.phase(lab)) < 1e-12


def test_solve_strict_trivial_character_matches_canonical(fib):
    chi, sp = strict_pair(fib)
    canon = mf.solve_canonical(fib)
    for lab in fib.labels:
        assert abs(sp.u[lab] - canon.u[lab]) < 1e-14
        assert abs(sp.w[lab] - 1.0) < 1e-14


def test_solve_strict_preconditions(su23, su31):
    wrong = mf.GroupCharacter({"0": 0, "1": Fraction(1, 2), "2": Fraction(1, 2), "3": 0})
    with pytest.raises(mf.InvalidModularData):
        mf.solve_strict(su23, wrong)
    unpaired = mf.GroupCharacter({"0": 0, "1": Fraction(1, 3), "1.1": Fraction(1, 3)})
    with pytest.raises(mf.InvalidModularData):
        mf.solve_strict(su31, unpaired)


def test_symplectic_multiplicity(su22, su23):
    sp = mf.solve_canonical(su22)
    assert mf.symplectic_multiplicity(su22, sp, mf.sphere_with_labels(["1", "1", "2"])) == 2
    sp3 = mf.solve_canonical(su23)
    a = mf.sphere_with_labels(["1", "3", "1"])
    assert mf.symplectic_multiplicity(su23, sp3, a) == 3


def test_self_duality_scalar(su22, su31):
    sp = mf.solve_canonical(su22)
    assert abs(mf.self_duality_scalar(su22, sp, Surface(())) - 1.0) < 1e-14
    odd = mf.sphere_with_labels(["1", "1", "2"])
    assert abs(mf.self_duality_scalar(su22, sp, odd) - 1.0) < 1e-14
    one = mf.sphere_with_labels(["1"])
    assert abs(mf.self_duality_scalar(su22, sp, one) + 1.0) < 1e-14

    vals = {lab: su_mu_tilde(3, parse_young_label(lab)) for lab in su31.labels}
    chi3, sp3 = strict_pair(su31, vals)
    allowed = mf.sphere_with_labels(["1", "1.1"])
    assert mf.state_dim(su31, get_fusion(su31), allowed) == 1
    assert abs(mf.self_duality_scalar(su31, sp3, allowed) - 1.0) < 1e-12


def test_unitary_rho_canonical(su22):
    sp = mf.solve_canonical(su22)
    uu = dataclasses.replace(sp, w=sp.u)
    assert abs(mf.unitary_rho(su22, uu, Surface(())) - 1.0) < 1e-14
    for labs, want in ((["1"], -1.0), (["1", "1"], 1.0), (["1", "2"], -1.0),
                       (["1", "1", "1", "1"], 1.0), (["2", "2"], 1.0)):
        a = mf.sphere_with_labels(labs)
        got = mf.unitary_rho(su22, uu, a)
        assert abs(got - want) < 1e-12, (labs, got)


def test_unitary_rho_strict(su32):
    vals = {lab: su_mu_tilde(3, parse_young_label(lab)) for lab in su32.labels}
    chi, sp = strict_pair(su32, vals)
    uu = dataclasses.replace(sp, w=sp.u)
    # per point the scalar is the character phase of the dual label
    two = mf.sphere_with_labels(["1", "1"])
    want = chi.phase("1.1") ** 2
    assert abs(mf.unitary_rho(su32, uu, two) - want) < 1e-12
    # fusion-allowed tuple: phases cancel
    three = mf.sphere_with_labels(["1", "1", "1"])
    assert mf.state_dim(su32, get_fusion(su32), three) == 1
    assert abs(mf.unitary_rho(su32, uu, three) - 1.0) < 1e-12


def test_z_of_label(su21, su23):
    assert abs(mf.z_of_label(su21, "0") - 1.0) < 1e-14
    assert abs(mf.z_of_label(su21, "1") - (-1j)) < 1e-14
    for lab in su23.labels:
        z = mf.z_of_label(su23, lab)
        assert abs(abs(z) - mf.quantum_dim(su23, lab).real) < 1e-12


def test_quasi_iso_gamma_frozen(su31):
    f = {"0": 1.0 + 0j, "1": 4.0 + 0j, "1.1": 1.0 + 0j}
    alpha, gamma = mf.quasi_iso_gamma(su31, f)
    assert abs(alpha["1"] - 0.5) < 1e-14
    assert abs(alpha["1.1"] - 1.0) < 1e-14
    assert abs(gamma["1"] - 0.5) < 1e-14
    assert abs(gamma["1.1"] - 2.0) < 1e-14
    assert abs(gamma["0"] - 1.0) < 1e-14


def test_quasi_iso_gamma_random(su32):
    rng = np.random.default_rng(11)
    for _ in range(8):
        f = {}
        for lab in su32.labels:
            z = complex(rng.normal(), rng.normal())
            f[lab] = z if abs(z) > 1e-3 else 1.0 + 0j
        alpha, gamma = mf.quasi_iso_gamma(su32, f)
        for i, lab in enumerate(su32.labels):
            other = su32.labels[su32.dual_index(i)]
            pp = alpha[lab] * alpha[other]
            assert abs(pp * pp * f[lab] * f[other] - 1.0) < 1e-12
            assert abs(gamma[lab] * gamma[other] - 1.0) < 1e-12
    with pytest.raises(mf.InvalidModularData):
        mf.quasi_iso_gamma(su32, {lab: 0j for lab in su32.labels})
