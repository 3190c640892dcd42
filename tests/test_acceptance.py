"""Whole-package acceptance checks.

Each test covers one headline guarantee at its advertised tolerance and
prints a single [PASS]/[FAIL] line with the measured quantity, so a
verbose run doubles as a checklist.
"""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np

import modfunctor as mf
from modfunctor.surfaces import Component, MarkedPoint, Surface
from conftest import builtin_tokens, get_family, get_fusion
from grading_oracle import is_character, oracle_group
from lie_oracle import coupon_sign, parse_young_label, su_mu_tilde


def _emit(capsys, tag, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _mu_tilde_character(data, N):
    return mf.GroupCharacter(
        {lab: su_mu_tilde(N, parse_young_label(lab)) for lab in data.labels}
    )


def test_ac01_fusion_integrality_and_identities(capsys):
    worst = 0.0
    count = 0
    ok = True
    for N in (2, 3, 4):
        for k in range(1, 7):
            data = get_family("su", N, k)
            fusion = mf.verlinde_fusion(
                mf.ModularData(data.labels, data.zero, data.dual, data.S, data.theta, tol=1e-6)
            )
            z = data.index(data.zero)
            S, Sinv = data.S, data.S.conj().T
            dev = 0.0
            for i in range(data.n):
                raw = (S * (S[i] / S[z])) @ Sinv
                dev = max(dev, float(np.max(np.abs(raw - np.round(raw.real)))))
            worst = max(worst, dev)
            dual = np.array([data.dual_index(i) for i in range(data.n)])
            eye = np.eye(data.n, dtype=fusion.N.dtype)
            ok = ok and dev < 1e-6
            ok = ok and np.array_equal(fusion.N[z], eye)
            ok = ok and np.array_equal(fusion.N[:, :, z], eye[dual])
            ok = ok and np.array_equal(fusion.N, fusion.N[dual].transpose(0, 2, 1))
            count += 1
    _emit(capsys, "AC1 fusion integrality + unit/duality/rigidity", ok,
          f"{count} families, worst deviation {worst:.2e}")


def test_ac02_puncture_dims_and_gluing(capsys):
    ok = True
    fam_count = 0
    for tokens in builtin_tokens():
        data = get_family(*tokens)
        fusion = get_fusion(data)
        for lab in data.labels:
            want = 1 if lab == data.zero else 0
            ok = ok and mf.state_dim(data, fusion, mf.sphere_with_labels([lab])) == want
        for a_lab in data.labels:
            for b_lab in data.labels:
                want = 1 if b_lab == data.dual[a_lab] else 0
                got = mf.state_dim(data, fusion, mf.sphere_with_labels([a_lab, b_lab]))
                ok = ok and got == want
        fam_count += 1

    rng = np.random.default_rng(20240412)
    rotation = [("su", 2, 1), ("su", 2, 2), ("su", 2, 3), ("su", 2, 4),
                ("su", 3, 1), ("su", 3, 2), ("su", 4, 1),
                ("lie", "B", 2, 1), ("lie", "G", 2, 1), ("lie", "D", 3, 1)]
    glue_count = 0
    for trial in range(200):
        data = get_family(*rotation[trial % len(rotation)])
        fusion = get_fusion(data)
        if trial % 2 == 0:
            # both glued slots on one component, random positions
            g = int(rng.integers(0, 3))
            extra = int(rng.integers(0, 3))
            labs = [data.labels[int(t)] for t in rng.integers(0, data.n, size=extra)]
            total = extra + 2
            slots = sorted(int(x) for x in rng.choice(total, size=2, replace=False))
            pts, it = [], iter(labs)
            for pos in range(total):
                if pos == slots[0]:
                    pts.append(MarkedPoint("s", data.zero))
                elif pos == slots[1]:
                    pts.append(MarkedPoint("t", data.zero))
                else:
                    pts.append(MarkedPoint(f"e{pos}", next(it)))
            a = Surface((Component(g, tuple(pts)),))
        else:
            # slots on two components that merge under gluing
            g1, g2 = int(rng.integers(0, 2)), int(rng.integers(0, 2))
            lab1 = [data.labels[int(t)] for t in rng.integers(0, data.n, size=rng.integers(0, 2))]
            lab2 = [data.labels[int(t)] for t in rng.integers(0, data.n, size=rng.integers(0, 2))]
            pts1 = tuple(MarkedPoint(f"a{i}", lab) for i, lab in enumerate(lab1))
            pts2 = tuple(MarkedPoint(f"b{i}", lab) for i, lab in enumerate(lab2))
            a = Surface((
                Component(g1, pts1 + (MarkedPoint("s", data.zero),)),
                Component(g2, (MarkedPoint("t", data.zero),) + pts2),
            ))
        ok = ok and mf.check_gluing_dimension(data, fusion, a, "s", "t")
        glue_count += 1
    _emit(capsys, "AC2 puncture dimensions + gluing identity", ok,
          f"{fam_count} families, {glue_count} randomized gluing checks")


def test_ac03_dimension_oracles_agree(capsys):
    rng = np.random.default_rng(618)
    checked = 0
    ok = True
    for N in (2, 3, 4):
        for k in range(1, 6):
            data = get_family("su", N, k)
            fusion = get_fusion(data)
            for g in range(4):
                for npts in range(6):
                    if data.n ** npts <= 2000:
                        tuples = itertools.product(range(data.n), repeat=npts)
                    else:
                        tuples = (
                            tuple(int(t) for t in rng.integers(0, data.n, size=npts))
                            for _ in range(60)
                        )
                    for tup in tuples:
                        pts = tuple(
                            MarkedPoint(f"p{i}", data.labels[j]) for i, j in enumerate(tup)
                        )
                        a = Surface((Component(g, pts),))
                        if mf.state_dim(data, fusion, a) != mf.state_dim_verlinde(data, a):
                            ok = False
                        checked += 1
    _emit(capsys, "AC3 recursion vs closed-form dimension", ok,
          f"{checked} surfaces (genus <= 3, <= 5 points), exact agreement")


def test_ac04_grading_groups(capsys):
    ok = True
    for N in (2, 3, 4):
        for k in range(1, 6):
            data = get_family("su", N, k)
            rows = oracle_group(data, get_fusion(data))[2]
            ok = ok and is_character(rows, data.labels, _mu_tilde_character(data, N))
    checked = 0
    for tokens in builtin_tokens() + [("lie", "D", 4, 1)]:
        data = get_family(*tokens)
        fusion = get_fusion(data)
        pres = mf.dual_group(data, fusion)
        factors, free, rows = oracle_group(data, fusion)
        ok = ok and (pres.invariant_factors, free) == (factors, 0)
        if tokens[0] == "su":
            ok = ok and pres.invariant_factors == (tokens[1],)
        ok = ok and all(is_character(rows, data.labels, chi) for chi in mf.generator_characters(pres))
        checked += 1
    d4 = get_family("lie", "D", 4, 1)
    ok = ok and mf.dual_group(d4, get_fusion(d4)).invariant_factors == (2, 2)
    _emit(capsys, "AC4 grading groups + residue characters", ok,
          f"{checked} families agree with the fusion-support oracle, "
          "15 cyclic su families, one rank-2 elementary 2-group")


def test_ac05_frobenius_schur_pattern(capsys):
    ok = True
    checked = 0
    for N in (2, 3, 4):
        for k in range(1, 6):
            data = get_family("su", N, k)
            for lab, nu in mf.fs_indicators(data).items():
                if data.dual[lab] != lab:
                    want = 0
                elif N == 3:
                    want = 1
                else:
                    want = (-1) ** sum(parse_young_label(lab))
                ok = ok and nu == want
                checked += 1
    _emit(capsys, "AC5 indicator pattern", ok, f"{checked} labels across 15 families")


def test_ac06_coupon_sign(capsys):
    worst = 0.0
    for N in range(2, 7):
        for k in range(1, 7):
            for m in range(0, N + 1):
                got = coupon_sign(N, k, m)
                want = (-1.0) ** ((N - 1) * m)
                worst = max(worst, abs(got - want))
    _emit(capsys, "AC6 coupon sign closed form", worst < 1e-9,
          f"N <= 6, k <= 6, all m; worst |difference| {worst:.2e}")


def test_ac07_canonical_scaling(capsys):
    worst_res = worst_sign = worst_z = 0.0
    toks = builtin_tokens()
    solved = {}
    for tokens in toks:
        data = get_family(*tokens)
        sp = mf.solve_canonical(data)
        solved[tokens] = (data, sp)
        for lab in data.labels:
            worst_res = max(
                worst_res, abs(sp.u[lab] - mf.s_factor(data, sp, lab) * sp.w[lab])
            )
            z = mf.z_of_label(data, lab)
            worst_z = max(worst_z, abs(abs(z) - mf.quantum_dim(data, lab).real))
    rng = np.random.default_rng(1009)
    for trial in range(100):
        data, sp = solved[toks[trial % len(toks)]]
        size = int(rng.integers(0, 6))
        labs = [data.labels[int(t)] for t in rng.integers(0, data.n, size=size)]
        a = mf.sphere_with_labels(labs)
        nu = mf.symplectic_multiplicity(data, sp, a)
        scalar = mf.self_duality_scalar(data, sp, a)
        worst_sign = max(worst_sign, abs(scalar - (-1.0) ** nu))
    ok = worst_res < 1e-12 and worst_sign < 1e-12 and worst_z < 1e-12
    _emit(capsys, "AC7 canonical scaling", ok,
          f"33 families; residual {worst_res:.2e}, sign {worst_sign:.2e}, |Z| {worst_z:.2e}")


def test_ac08_strict_scaling(capsys):
    worst1 = worst2 = 0.0
    ok = True
    for tokens in builtin_tokens():
        data = get_family(*tokens)
        fusion = get_fusion(data)
        found = mf.find_fundamental_symplectic_character(data, mf.dual_group(data, fusion))
        if not isinstance(found, mf.GroupCharacter):
            ok = False
            continue
        sp = mf.solve_strict(data, found)
        for i, lab in enumerate(data.labels):
            other = data.labels[data.dual_index(i)]
            worst1 = max(worst1, abs(sp.u[lab] - mf.s_factor(data, sp, lab) * sp.w[lab]))
            worst2 = max(
                worst2, abs(sp.mu[lab] * sp.u[lab] / sp.u[other] - found.phase(lab))
            )
    positives = 0
    worst_tuple = 0.0
    for tokens, use_mu_tilde in ((("su", 2, 3), False), (("su", 3, 2), True)):
        data = get_family(*tokens)
        fusion = get_fusion(data)
        if use_mu_tilde:
            chi = _mu_tilde_character(data, 3)
        else:
            chi = mf.find_fundamental_symplectic_character(data, mf.dual_group(data, fusion))
        sp = mf.solve_strict(data, chi)
        uu = dataclasses.replace(sp, w=sp.u)
        for npts in range(5):
            for tup in itertools.product(range(data.n), repeat=npts):
                a = mf.sphere_with_labels([data.labels[j] for j in tup])
                if mf.state_dim(data, fusion, a) == 0:
                    continue
                positives += 1
                worst_tuple = max(
                    worst_tuple, abs(mf.self_duality_scalar(data, sp, a) - 1.0)
                )
                worst_tuple = max(worst_tuple, abs(mf.unitary_rho(data, uu, a) - 1.0))
    ok = ok and worst1 < 1e-12 and worst2 < 1e-12 and worst_tuple < 1e-12
    _emit(capsys, "AC8 strict scaling", ok,
          f"33 families, residuals ({worst1:.2e}, {worst2:.2e}); "
          f"{positives} nonzero tuples, worst scalar error {worst_tuple:.2e}")


def test_ac09_vanishing_criterion(capsys):
    data = get_family("su", 3, 2)
    fusion = get_fusion(data)
    chi = _mu_tilde_character(data, 3)
    hot = total = 0
    ok = True
    for npts in range(5):
        for tup in itertools.product(range(data.n), repeat=npts):
            labs = [data.labels[j] for j in tup]
            a = mf.sphere_with_labels(labs)
            if sum((chi(lab) for lab in labs), Fraction(0)) % 1 != 0:
                hot += 1
            ok = ok and mf.vanishing_check(data, fusion, chi, a)
            total += 1
    _emit(capsys, "AC9 character-sum vanishing", ok,
          f"{total} spheres exhaustive (<= 4 points), {hot} with nonzero sum")


def test_ac10_quasi_isomorphism_solver(capsys):
    data = get_family("su", 3, 1)
    rng = np.random.default_rng(3141)
    worst = 0.0
    exact = True
    for _ in range(100):
        f = {}
        for lab in data.labels:
            mag = float(np.exp(rng.normal()))
            ang = float(rng.uniform(-np.pi, np.pi))
            f[lab] = mag * complex(np.cos(ang), np.sin(ang))
        alpha, gamma = mf.quasi_iso_gamma(data, f)
        for i, lab in enumerate(data.labels):
            other = data.labels[data.dual_index(i)]
            worst = max(worst, abs(gamma[lab] * gamma[other] - 1.0))
            if lab != other:
                exact = exact and gamma[lab] == 1.0 / (alpha[lab] * alpha[other] * f[lab])
            else:
                worst = max(worst, abs(gamma[lab] * alpha[lab] * alpha[other] * f[lab] - 1.0))
    ok = worst < 1e-12 and exact
    _emit(capsys, "AC10 quasi-isomorphism gamma", ok,
          f"100 random draws; worst pair residual {worst:.2e}, "
          "reconstruction exact off the self-dual part")
