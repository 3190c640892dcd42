"""Core modular-data checks against hand-frozen small examples.

The rank-2 S-matrix (1/sqrt2)[[1,1],[1,-1]] and the Ising-like rank-3
family are small enough to verify by hand; they anchor everything the
larger families rely on.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

import modfunctor as mf
from conftest import builtin_tokens, coeff, get_family, get_fusion

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


def test_constructor_copies_what_the_caller_can_still_write(su22):
    S = su22.S.copy()
    data = _rebuild(su22, S=S)
    S[0, 1] = 7
    assert np.array_equal(data.S, su22.S) and not data.S.flags.writeable
    base = su22.S.copy()
    view = base[:]
    view.setflags(write=False)
    data = _rebuild(su22, S=view)
    base[0, 1] = 7
    assert np.array_equal(data.S, su22.S)
    # a read-only array that owns its data, as the Lie builders hand over, is kept
    assert _rebuild(su22, S=su22.S).S is su22.S


@pytest.mark.parametrize("tol", [float("inf"), float("nan")])
def test_constructor_rejects_non_finite_tol(su22, tol):
    with pytest.raises(mf.InvalidModularData, match="tol must be a positive finite number"):
        _rebuild(su22, tol=tol)


def test_verlinde_fusion_su2_level2(su22):
    fusion = get_fusion(su22)
    # 1 x 1 = 0 + 2,   1 x 2 = 1,   2 x 2 = 0
    assert coeff(fusion, su22, "1", "1", "0") == 1
    assert coeff(fusion, su22, "1", "1", "2") == 1
    assert coeff(fusion, su22, "1", "1", "1") == 0
    assert coeff(fusion, su22, "1", "2", "1") == 1
    assert coeff(fusion, su22, "2", "2", "0") == 1
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


def slice_oracle(data, j):
    """Slice j by the eager route: round(S diag(S_j/S_0) S^dagger), for every label alike."""
    S = data.S
    return np.round(((S * (S[j] / S[data.index(data.zero)])) @ S.conj().T).real).astype(np.int64)


def full_check(data):
    """The Verlinde check over every pair i <= j, then the handle check, with no simple currents.

    Returns (deviation, outcome): the largest deviation over the whole upper
    triangle, and the error message of the first failed check (deviation,
    negative coefficient, handle, in that order), or the integer handle
    operator when every check passes.  The tolerance is `data.tol`.
    """
    S = data.S
    row0 = S[data.index(data.zero)]
    Sct = S.conj().T
    dev, lowest, where = 0.0, 0, None
    for i in range(data.n):
        raw = (S[i:] * (S[i] / row0)) @ Sct  # raw[j - i, k] = N_{ij}^k
        rounded = np.round(raw.real)
        dev = max(dev, float(np.max(np.abs(raw - rounded))))
        if rounded.min() < lowest:
            j, k = np.unravel_index(int(np.argmin(rounded)), rounded.shape)
            lowest, where = int(rounded.min()), (i, i + int(j), int(k))
    raw = (S * row0**-2) @ Sct
    handle = np.round(raw.real)
    scale = (np.abs(S) * np.abs(row0**-2)) @ np.abs(S).T
    handle_dev = np.abs(raw - handle)
    if dev > data.tol:
        return dev, f"fusion coefficients deviate from integers by {dev:.3e} > {data.tol:.3e}"
    if where is not None:
        i, j, k = (data.labels[x] for x in where)
        return dev, f"negative fusion coefficient {lowest} at ({i}, {j}, {k})"
    if np.any(handle_dev > mf.modular_data._integer_tolerance(data.tol, scale)):
        return dev, f"handle operator deviates from integers by up to {handle_dev.max():.3e}"
    return dev, handle.astype(np.int64)


def reported_deviation(data):
    """The fusion deviation `verlinde_fusion` reports, read from its error at a tolerance nothing meets."""
    with pytest.raises(mf.NonIntegralFusion, match="fusion coefficients deviate") as info:
        mf.verlinde_fusion(_rebuild(data, tol=1e-300))
    return float(re.search(r"by (\S+) >", str(info.value)).group(1))


def assert_reported_deviation_bounds(data, dev):
    # the report is rounded to four digits; rounding keeps the order
    assert reported_deviation(data) >= float(f"{dev:.3e}")


# the 42 distinct families: the built-in ones, then those the grading and
# large-fusion benchmarks add
DISTINCT_FAMILIES = builtin_tokens() + [
    ("su", 3, 6),
    ("su", 5, 3),
    ("lie", "D", 4, 2),
    ("su", 4, 6),
    ("su", 5, 4),
    ("su", 4, 7),
    ("su", 5, 5),
    ("su", 4, 8),
    ("su", 5, 6),
]


@pytest.mark.parametrize("tokens", DISTINCT_FAMILIES, ids=lambda t: " ".join(map(str, t)))
def test_orbit_check_agrees_with_full_check(tokens):
    data = get_family(*tokens)
    fusion = mf.verlinde_fusion(data)
    dev, handle = full_check(data)
    assert np.array_equal(fusion.handle, handle)
    for j in range(data.n):
        want = slice_oracle(data, j)
        assert np.array_equal(fusion.slice(j), want)
        assert fusion.column_max[j] == max(1, want.sum(axis=0).max())
    assert_reported_deviation_bounds(data, dev)
    assert f"{fusion.deviation:.3e}" == f"{reported_deviation(data):.3e}"


FIXED_POINT_FAMILIES = [("su", 2, 2), ("su", 3, 3), ("su", 4, 2), ("su", 4, 4), ("su", 6, 2), ("su", 6, 3)]


def _negated(data, label):
    """D S D with D = -1 at `label`: integral, but with negative coefficients."""
    flip = np.ones(data.n)
    flip[data.index(label)] = -1
    return _rebuild(data, S=data.S * np.outer(flip, flip))


def _bent(data, x, amount):
    """S with S[x, r] and S[r, x] moved by `amount`, r the column of least |S_0r|."""
    S = data.S.copy()
    r = int(np.argmin(np.abs(S[data.index(data.zero)])))
    S[x, r] += amount
    S[r, x] += amount
    return _rebuild(data, S=S)


@pytest.mark.parametrize("tokens", FIXED_POINT_FAMILIES, ids=lambda t: " ".join(map(str, t)))
def test_fixed_point_families_match_full_check(tokens):
    data = get_family(*tokens)
    fusion = mf.verlinde_fusion(data)
    # some label is fixed by an invertible label other than the unit
    z = data.index(data.zero)
    assert any(np.any(sigma == np.arange(data.n)) for J, sigma in fusion.currents.items() if J != z)
    dev, handle = full_check(data)
    assert np.array_equal(fusion.handle, handle)
    for j in range(data.n):
        assert np.array_equal(fusion.slice(j), slice_oracle(data, j))
    # negative coefficients; then fusion within 0.01 of integers, the handle not
    for bad in (_negated(data, data.labels[-1]), _rebuild(_bent(data, 1, 0.002), tol=0.01)):
        _dev, want = full_check(bad)
        assert isinstance(want, str)
        with pytest.raises(mf.NonIntegralFusion) as info:
            mf.verlinde_fusion(bad)
        assert str(info.value) == want
    assert_reported_deviation_bounds(data, dev)


@pytest.mark.parametrize(
    "tokens", [("su", 3, 3), ("su", 4, 4), ("su", 5, 3)], ids=lambda t: " ".join(map(str, t))
)
def test_corrupt_entry_off_the_representatives_is_caught(monkeypatch, tokens):
    data = get_family(*tokens)
    currents = mf.verlinde_fusion(data).currents
    least = np.min(list(currents.values()), axis=0)
    x = int(np.flatnonzero(least != np.arange(data.n))[-1])  # the last label that represents no orbit
    bad = _bent(data, x, 1e-6)
    dev, outcome = full_check(bad)
    assert isinstance(outcome, str)
    with pytest.raises(mf.NonIntegralFusion, match="deviate"):
        mf.verlinde_fusion(bad)
    # with the handle check blind, the bound alone names the fusion relation
    monkeypatch.setattr(mf.modular_data, "_integer_tolerance", lambda atol, scale: np.inf)
    with pytest.raises(mf.NonIntegralFusion, match="fusion coefficients deviate from integers by"):
        mf.verlinde_fusion(bad)
    assert_reported_deviation_bounds(bad, dev)


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


@pytest.mark.parametrize("tokens", [("su", 4, 4), ("su", 5, 3)], ids=lambda t: " ".join(map(str, t)))
def test_orbit_slices_permute_the_cached_representative(monkeypatch, tokens):
    data = get_family(*tokens)
    built = []
    init = mf.FusionTensor.__init__

    def counting_init(self, labels, slice_of, handle):
        def counted(j):  # one n^3 product per call
            built.append(j)
            return slice_of(j)

        init(self, labels, counted, handle)

    monkeypatch.setattr(mf.FusionTensor, "__init__", counting_init)
    fusion = mf.verlinde_fusion(data)
    want = fusion_oracle(data)
    for j in reversed(range(data.n)):  # each label before its representative
        assert np.array_equal(fusion.slice(j), want[:, j, :])
        assert fusion.column_max[j] == max(1, want[:, j, :].sum(axis=0).max())
    reps = np.unique(np.min(list(fusion.currents.values()), axis=0))
    assert len(reps) < data.n
    assert sorted(built) == reps.tolist()


@pytest.mark.parametrize("tokens", [("su", 4, 4), ("su", 5, 3)], ids=lambda t: " ".join(map(str, t)))
def test_dense_stack_reads_no_orbit_data(tokens):
    data = get_family(*tokens)
    fusion = mf.verlinde_fusion(data)
    assert len(fusion.currents) > 1
    fusion.rep = np.zeros(data.n, dtype=np.int64)  # every label "represented" by the unit
    fusion.via = np.full(data.n, -1)
    fusion.currents = {}
    assert np.array_equal(fusion.N, fusion_oracle(data))


@pytest.mark.parametrize("tokens", [("su", 5, 8), ("su", 6, 6)], ids=lambda t: " ".join(map(str, t)))
def test_representative_slice_peak_memory(tokens):
    # the representatives' rows and the n x n int64 slice; a product over
    # every row was an n x n complex temporary on top of the slice
    data = get_family(*tokens)
    fusion = mf.verlinde_fusion(data)
    reps = np.flatnonzero(fusion.rep == np.arange(data.n))
    fusion._slice_of(int(reps[0]))  # first-call allocations
    tracemalloc.start()
    try:
        fusion._slice_of(int(reps[-1]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 8 * data.n**2


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


def slice_currents(data):
    """{J: sigma_J} by the eager slices: J is invertible when slice J is a permutation matrix."""
    currents = {}
    for J in range(data.n):
        M = slice_oracle(data, J)
        if M.min() >= 0 and np.all(M.sum(axis=0) == 1) and np.all(M.sum(axis=1) == 1):
            currents[J] = M.argmax(axis=1)
    return currents


def charge_classes(data, currents):
    """Class of every label: equal monodromy charges q_J = |G| arg(psi_J / psi_J(0)) / 2 pi under every J."""
    S, g = data.S, len(currents)
    row0 = S[data.index(data.zero)]
    keys = []
    for J in currents:
        phi = S[J] / row0 / (S[J, data.index(data.zero)] / row0[data.index(data.zero)])
        keys.append(np.rint(np.angle(phi) * (g / (2 * np.pi))).astype(int) % g)
    rows = [tuple(col) for col in np.array(keys).T]
    ids = {key: c for c, key in enumerate(dict.fromkeys(rows))}
    return np.array([ids[key] for key in rows]), [np.array(key) for key in ids], g


def orbit_deviation(data):
    """The fusion deviation `verlinde_fusion` reports, from orbits found by the eager slices.

    The largest deviation of the representatives' folded sums over the
    balanced columns, plus the orbit, fold and skip bounds of the
    `verlinde_fusion` docstring when some J is not the unit.
    """
    S, n = data.S, data.n
    z = data.index(data.zero)
    row0 = S[z]
    currents = slice_currents(data)
    rep = np.min(list(currents.values()), axis=0)
    reps = np.flatnonzero(rep == np.arange(n))
    size = np.bincount(rep, minlength=n)[reps]
    cls, keys, g = charge_classes(data, currents)
    dev = 0.0
    for a, i in enumerate(reps):
        for j in reps[a:]:
            want = (keys[cls[i]] + keys[cls[j]]) % g
            ks = [k for k in range(n) if np.array_equal(keys[cls[k]], want)]
            raw = (S[j, reps] * (S[i, reps] / (row0[reps] / size))) @ S[ks][:, reps].conj().T
            dev = max(dev, float(np.max(np.abs(raw - np.round(raw.real)))))
    if g == 1:
        return dev
    u = 2.0**-53
    psi = {J: S[J] / row0 for J in currents}
    t = {J: psi[J][z] for J in currents}
    residual = {J: np.abs(S[sigma] - S * psi[J]) for J, sigma in currents.items()}
    delta = max(float(r.max()) for r in residual.values())
    mods = np.abs(np.array(list(psi.values())))
    nu = max(float(mods.max()) ** 2 - 1, 1 - float(mods.min()) ** 2)
    p = max(1.0, float(mods.max()))
    eps = float(np.max(np.abs(S - S.T)))
    eta = max(float(np.max(r[:, z] / np.abs(row0))) for r in residual.values())
    eta += (1 + p) * eps * float(np.max(1 / np.abs(row0)))
    turns = [np.angle(psi[J] / t[J]) * (g / (2 * np.pi)) for J in currents]
    frac = max(float(np.max(np.abs(x - np.rint(x)))) for x in turns) * (2 * np.pi / g) + 16 * u
    kappa = 2 * nu / (1 - nu) + frac
    m = float(np.max(np.abs(S) ** 2 @ (1 / np.abs(row0))))
    s = float(np.max(np.abs(S)))
    de = delta + (1 + p) * eps + p * kappa * s
    tau = p * (1 + eta)
    orbit = m * ((3 + p) * delta + s * (nu + 8 * (n + 8) * u))
    fold = m * ((g - 1) * (nu * s + 3 * de * tau) + eta * s)
    skip = m * (3 * de * tau + eta * s) / (2 * np.sin(np.pi / g) - nu)
    return dev + orbit + fold + skip


@pytest.mark.parametrize("family", [("su", 3, 2), ("su", 4, 3)], ids=lambda t: " ".join(map(str, t)))
def test_row_blocks_give_the_same_tensor_and_errors(monkeypatch, family):
    data = get_family(*family)
    S = data.S
    flip = np.ones(data.n)
    flip[-1] = -1  # D S D: integral, but negative coefficients (see above), first in row 1's last block
    bent = S.copy()
    r = int(np.argmin(np.abs(S[0])))  # the largest handle weight S_0r^-2
    bent[1, r] += 0.003
    bent[r, 1] += 0.003
    cases = {
        "valid": data,
        "negative": _rebuild(data, S=S * np.outer(flip, flip)),
        "deviation": _rebuild(data, tol=1e-20),  # what MF_TOL=1e-20 builds
        "handle": _rebuild(data, S=bent, tol=0.01),  # fusion within 0.01, handle not
    }

    def outcome(bad):
        try:
            fusion = mf.verlinde_fusion(bad)
        except mf.NonIntegralFusion as exc:
            return str(exc)
        return fusion.handle.tolist(), [fusion.slice(j).tolist() for j in range(bad.n)]

    whole = {name: outcome(case) for name, case in cases.items()}
    assert isinstance(whole["valid"], tuple)
    assert whole["negative"].startswith("negative fusion coefficient")
    assert whole["handle"].startswith("handle operator deviates")
    # the largest deviation over every representative pair, not one block's,
    # plus the orbit, fold and skip bounds, which the tensor keeps
    # (the oracle sums by another product, so the measured part agrees to rounding)
    dev = mf.verlinde_fusion(data).deviation
    assert abs(dev - orbit_deviation(data)) <= 1e-15
    assert whole["deviation"] == f"fusion coefficients deviate from integers by {dev:.3e} > {1e-20:.3e}"
    # blocks of two rows or more: a one-row block is numpy's matrix-vector
    # product, whose last bits differ from the matrix product's
    for rows in (2, 3, 5):
        monkeypatch.setattr(mf.modular_data, "_BLOCK", rows * data.n)
        assert {name: outcome(case) for name, case in cases.items()} == whole


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


# C 4 4 and C 3 6: a bound on the folded handle once refused them
@pytest.mark.parametrize(
    "tokens", ORACLE_FAMILIES + [("lie", "C", 4, 4), ("lie", "C", 3, 6)], ids=lambda t: " ".join(map(str, t))
)
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
    assert coeff(fusion, su23, "1", "1", "0") == 1
    assert coeff(fusion, su23, "1", "1", "2") == 1
    assert coeff(fusion, su23, "1", "1", "3") == 0


@pytest.mark.parametrize(
    "tokens", builtin_tokens() + [("su", 5, 6)], ids=lambda t: " ".join(map(str, t))
)
def test_key_matched_currents_match_slice_currents(tokens):
    data = get_family(*tokens)
    want = slice_currents(data)
    got = mf.verlinde_fusion(data).currents
    assert sorted(got) == sorted(want)
    for J, sigma in want.items():
        assert np.array_equal(got[J], sigma) and not got[J].flags.writeable


@pytest.mark.parametrize(
    "tokens", builtin_tokens() + [("su", 5, 6)], ids=lambda t: " ".join(map(str, t))
)
def test_tensor_keeps_the_charges_and_orbits_of_the_current_pass(tokens):
    data = get_family(*tokens)
    fusion = get_fusion(data)
    cls, keys, _g = charge_classes(data, fusion.currents)
    by_label = np.array(keys)[cls]  # by_label[x, a] = charge of x under the a-th current
    assert list(fusion.charges) == list(fusion.currents)
    for a, q in enumerate(fusion.charges.values()):
        assert q.dtype == np.int64 and not q.flags.writeable
        assert np.array_equal(q, by_label[:, a])
    least = np.min(list(fusion.currents.values()), axis=0)
    assert np.array_equal(fusion.rep, least)
    for x in range(data.n):
        assert fusion.currents[int(fusion.via[x])][fusion.rep[x]] == x


def test_hand_built_tensor_has_no_current_layer(su22):
    fusion = mf.FusionTensor(su22.labels, get_fusion(su22).slice, get_fusion(su22).handle)
    assert fusion.currents == {} and fusion.charges == {} and fusion.via is None
    assert np.array_equal(fusion.rep, np.arange(su22.n))
    assert np.array_equal(fusion.N, get_fusion(su22).N)


def _folded_pairs(data):
    """(balanced columns, folded sums, full sums) for each pair i <= j of representatives."""
    S, n = data.S, data.n
    row0 = S[data.index(data.zero)]
    currents = slice_currents(data)
    rep = np.min(list(currents.values()), axis=0)
    reps = np.flatnonzero(rep == np.arange(n))
    size = np.bincount(rep, minlength=n)[reps]
    cls, keys, g = charge_classes(data, currents)
    code = {tuple(key): c for c, key in enumerate(keys)}
    full_cols, rep_cols = S.conj().T, S[:, reps].conj().T
    for a, i in enumerate(reps):
        for j in reps[a:]:
            balanced = cls == code.get(tuple((keys[cls[i]] + keys[cls[j]]) % g), -1)
            folded = (S[j, reps] * S[i, reps] * size / row0[reps]) @ rep_cols
            full = (S[j] * S[i] / row0) @ full_cols
            yield balanced, folded, full


@pytest.mark.parametrize(
    "tokens",
    DISTINCT_FAMILIES + [t for t in FIXED_POINT_FAMILIES if t not in DISTINCT_FAMILIES],
    ids=lambda t: " ".join(map(str, t)),
)
def test_folded_sums_match_full_sums(tokens):
    # the selection rule: a sum vanishes off the balanced columns; on them the
    # sum over r folded onto orbit representatives, weighted by orbit size, is the full sum
    data = get_family(*tokens)
    for balanced, folded, full in _folded_pairs(data):
        assert balanced.any()
        assert np.max(np.abs(folded[balanced] - full[balanced])) < 1e-12
        assert np.max(np.abs(full[~balanced]), initial=0.0) < 1e-12


@pytest.mark.parametrize("tokens", [("su", 3, 3), ("su", 4, 4), ("su", 5, 3), ("lie", "D", 4, 2)], ids=lambda t: " ".join(map(str, t)))
def test_corrupt_entry_outside_the_folded_columns_is_caught(monkeypatch, tokens):
    # the folded sums read only the representatives' columns of S, and the
    # skipped sums none: an entry in another column and another class is
    # seen by (I) alone, and the bound must cover what the full sums see
    data = get_family(*tokens)
    fusion = mf.verlinde_fusion(data)
    cls, _keys, _g = charge_classes(data, fusion.currents)
    rep = np.min(list(fusion.currents.values()), axis=0)
    r = int(np.flatnonzero(rep != np.arange(data.n))[-1])
    x = int(np.flatnonzero(cls != cls[r])[-1])
    S = data.S.copy()
    S[x, r] += 1e-9  # small enough that the currents are still read from S
    S[r, x] += 1e-9
    bad = _rebuild(data, S=S, tol=2 * fusion.deviation)  # the clean data passes at this tolerance
    dev, outcome = full_check(bad)
    assert isinstance(outcome, str)
    assert len(mf.verlinde_fusion(_rebuild(bad, tol=1e-3)).currents) == len(fusion.currents)
    # the full handle deviates too, and the handle's bound must see it in the rows it permutes
    raw = (S * S[0] ** -2) @ S.conj().T
    scale = (np.abs(S) * np.abs(S[0] ** -2)) @ np.abs(S).T
    assert np.any(np.abs(raw - np.round(raw.real)) > mf.modular_data._integer_tolerance(bad.tol, scale))
    with pytest.raises(mf.NonIntegralFusion, match="handle operator deviates"):
        mf.verlinde_fusion(bad)
    monkeypatch.setattr(mf.modular_data, "_integer_tolerance", lambda atol, scale: np.inf)
    with pytest.raises(mf.NonIntegralFusion, match="fusion coefficients deviate from integers by"):
        mf.verlinde_fusion(bad)
    assert mf.verlinde_fusion(_rebuild(bad, tol=1e-3)).deviation >= dev


@pytest.mark.parametrize("tokens", [("su", 3, 2), ("su", 4, 2), ("lie", "C", 3, 1)], ids=lambda t: " ".join(map(str, t)))
def test_phase_on_a_row_no_representative_reads_is_caught_by_the_moved_row_term(tokens):
    # the handle is charge-diagonal, so the representative rows read a label x
    # of a class without representatives only where they are 0: a phase on
    # row x leaves every computed entry integral and breaks the rows moved onto x
    data = get_family(*tokens)
    fusion = mf.verlinde_fusion(data)
    cls, _keys, _g = charge_classes(data, fusion.currents)
    reps = np.flatnonzero(fusion.rep == np.arange(data.n))
    x = int(np.flatnonzero(~np.isin(cls, cls[reps]))[-1])
    S = data.S.copy()
    S[x] *= np.exp(1e-9j)
    bad = _rebuild(data, S=S)
    assert len(mf.verlinde_fusion(_rebuild(bad, tol=1e-3)).currents) == len(fusion.currents)
    raw = (S * S[0] ** -2) @ S.conj().T
    scale = (np.abs(S) * np.abs(S[0] ** -2)) @ np.abs(S).T
    over = np.abs(raw - np.round(raw.real)) > mf.modular_data._integer_tolerance(bad.tol, scale)
    assert over[x].any() and not over[reps].any()
    with pytest.raises(mf.NonIntegralFusion, match="handle operator deviates"):
        mf.verlinde_fusion(bad)


def test_unit_only_current_layer_gives_the_same_tensor_in_bounded_memory(monkeypatch):
    data = get_family("su", 4, 8)
    n = data.n
    want = mf.verlinde_fusion(data)
    mf.verlinde_fusion(get_family("su", 2, 1))  # first-call allocations
    monkeypatch.setattr(mf.modular_data, "_simple_currents", lambda S, z: np.arange(len(S))[None])
    tracemalloc.start()
    try:
        fusion = mf.verlinde_fusion(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # S^dagger, |S|, the handle and one block's products of at most n rows;
    # one n^3 object would be n = 165 times n^2 complex numbers
    assert peak <= 8 * 16 * n**2
    assert fusion.currents == {data.index(data.zero): list(fusion.currents.values())[0]}
    assert np.array_equal(fusion.handle, want.handle)
    for j in (0, 1, 7, n - 1):
        assert np.array_equal(fusion.slice(j), want.slice(j))


@pytest.mark.parametrize("tokens", [("su", 3, 3), ("su", 4, 4), ("lie", "D", 4, 2)], ids=lambda t: " ".join(map(str, t)))
def test_column_scaled_s_is_caught_by_its_asymmetry(monkeypatch, tokens):
    # scaling one column of S keeps (I) exact row by row, so only the
    # asymmetry eps tells the folded and skipped sums that the column action broke
    data = get_family(*tokens)
    fusion = mf.verlinde_fusion(data)
    rep = np.min(list(fusion.currents.values()), axis=0)
    r = int(np.flatnonzero(rep != np.arange(data.n))[-1])
    S = data.S.copy()
    S[:, r] *= 1 + 1e-9
    bad = _rebuild(data, S=S, tol=2 * fusion.deviation)
    dev, outcome = full_check(bad)
    assert outcome.startswith("fusion coefficients deviate")
    assert len(mf.verlinde_fusion(_rebuild(bad, tol=1e-3)).currents) == len(fusion.currents)
    with pytest.raises(mf.NonIntegralFusion, match="deviate"):
        mf.verlinde_fusion(bad)
    # the handle is blind to a scaled column, but its bound is not; blind it too
    monkeypatch.setattr(mf.modular_data, "_integer_tolerance", lambda atol, scale: np.inf)
    with pytest.raises(mf.NonIntegralFusion, match="fusion coefficients deviate"):
        mf.verlinde_fusion(bad)
    assert mf.verlinde_fusion(_rebuild(bad, tol=1e-3)).deviation >= dev


@pytest.mark.parametrize("tokens", DISTINCT_FAMILIES + [("lie", "D", 4, 1), ("su", 6, 3)], ids=lambda t: " ".join(map(str, t)))
def test_current_layer_is_the_layer_the_fusion_tensor_keeps(tokens):
    data = get_family(*tokens)
    layer, fusion = mf.current_layer(data), get_fusion(data)
    assert list(layer.currents) == list(fusion.currents) and list(layer.charges) == list(fusion.charges)
    for J, sigma in layer.currents.items():
        assert np.array_equal(sigma, fusion.currents[J]) and not sigma.flags.writeable
        assert np.array_equal(layer.charges[J], fusion.charges[J]) and not layer.charges[J].flags.writeable
        assert layer.charges[J].dtype == np.int64
    assert np.array_equal(layer.rep, fusion.rep) and np.array_equal(layer.via, fusion.via)


@pytest.mark.parametrize(
    "tokens", [("su", 4, 4), ("su", 6, 3), ("lie", "D", 4, 2), ("lie", "G", 2, 1)], ids=lambda t: " ".join(map(str, t))
)
def test_residual_blocks_leave_out_the_unit_current(monkeypatch, tokens):
    # sigma_0 is the identity and psi_0 = 1, so the unit's residuals of (I) are exact zeros
    data = get_family(*tokens)
    g = len(get_fusion(data).currents)
    residuals, seen = mf.modular_data._residuals, []

    def spy(S, P, Psi):
        for x0, rows, residual in residuals(S, P, Psi):
            seen.append(len(residual))
            yield x0, rows, residual

    monkeypatch.setattr(mf.modular_data, "_residuals", spy)
    mf.current_layer(data)
    mf.verlinde_fusion(data)
    assert seen == [g - 1] * len(seen)
    assert bool(seen) == (g > 1)  # with G = {0} no block runs


def test_zero_unit_row_entry_is_refused_at_any_tolerance(su22):
    S = su22.S.copy()
    S[0, 1] = S[1, 0] = 0
    for tol in (1e-9, 1e-300):
        bad = _rebuild(su22, S=S, tol=tol)
        for route in (mf.verlinde_fusion, mf.current_layer):
            with pytest.raises(mf.NonIntegralFusion, match="a unit-row S entry vanishes; Verlinde sum undefined"):
                route(bad)


@pytest.mark.parametrize("tokens", [("su", 4, 3), ("su", 4, 4), ("su", 6, 3)], ids=lambda t: " ".join(map(str, t)))
def test_unit_row_guard_reads_no_tolerance(tokens):
    # a tolerance of 0.1 lies above the least |S_0r| (0.084 on su 4 3), which is no zero
    data = get_family(*tokens)
    loose = _rebuild(data, tol=0.1)
    assert np.abs(data.S[data.index(data.zero)]).min() < loose.tol
    assert np.array_equal(mf.verlinde_fusion(loose).handle, get_fusion(data).handle)
    assert list(mf.current_layer(loose).currents) == list(get_fusion(data).currents)


def test_current_sets_must_be_groups():
    data = get_family("su", 4, 4)
    P = mf.modular_data._simple_currents(data.S, data.index(data.zero))
    z = data.index(data.zero)
    assert len(P) == 4 and mf.modular_data._is_group(P, z)
    assert mf.modular_data._is_group(P[P[:, z] == z], z)  # the unit alone
    order2 = P[[0, 2]] if mf.modular_data._is_group(P[[0, 2]], z) else P[[0, 1]]
    assert mf.modular_data._is_group(order2, z)  # a subgroup of order 2
    assert not mf.modular_data._is_group(P[:3], z)  # J and J^2 without J^3
    swapped = P.copy()
    swapped[[1, 3], 1:] = swapped[[3, 1], 1:]  # right labels, wrong permutations
    assert not mf.modular_data._is_group(swapped, z)
