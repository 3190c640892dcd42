"""Numeric modular-category data and the scalar invariants derived from it.

The central object is :class:`ModularData`: a finite label set with a
distinguished unit label, a duality involution, a complex S-matrix and a
twist for every label.  Everything else in the package (fusion rules,
state-space dimensions, character groups, scaling solvers) is computed
from these four pieces of data.  The handle operator ``FusionTensor.handle``
and the indicators (:func:`fs_indicators`) are closed forms in S.
:func:`current_layer` reads the group of invertible labels (simple
currents), their label permutations and the monodromy charge of every
label from the rows of S, and certifies them by the simple-current
identity of S on every entry; that layer is all the grading group needs.
:func:`verlinde_fusion` reads the same layer and runs every Verlinde sum
on charge blocks: only over the columns whose charges balance, with the
sum over r folded onto orbit representatives.  It checks once per pair of orbit
representatives, bounds every other coefficient, and returns a
:class:`FusionTensor`.  The library reads it only by slice N[:, j, :],
each built when first read and, for a label that does not represent its
orbit, permuted from its representative's cached slice; nothing in the
library stacks the dense n^3 tensor.

Construction performs *structural* checks only (shapes, bijectivity,
label consistency, finite entries) and raises :class:`InvalidModularData`
on failure.  Numeric axioms — symmetry and unitarity of S,
involutivity of the dual map, twist/dimension duality symmetry, and the
modular relations S^2 = C and (ST)^3 = (p+/D) S^2 — are checked separately by
:func:`validate_modular_data`, which returns a report instead of raising,
so callers can inspect partially broken data.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "InvalidModularData",
    "ValidationFailure",
    "NonIntegralFusion",
    "ScaleLimit",
    "ModularData",
    "FusionTensor",
    "ValidationReport",
    "validate_modular_data",
    "quantum_dim",
    "quantum_dims",
    "global_D",
    "gauss_sum_delta",
    "anomaly_scalar",
    "CurrentLayer",
    "current_layer",
    "verlinde_fusion",
    "fs_indicators",
]

DEFAULT_TOL = 1e-9
_BLOCK = 1 << 18  # entries per row block of every check in verlinde_fusion
_PAIR_CHUNK = 1 << 12  # pairs of representatives whose indices verlinde_fusion holds at once
# loose on purpose: a candidate that is not invertible costs only one key match
_INVERTIBLE_DIM_TOL = 1e-3
_KEY_TOL = 1e-8  # largest key mismatch of a simple current, relative to the largest key
_KEY_PHASE = 1j * math.pi * (math.sqrt(5) - 1)  # key vector v_r = exp(_KEY_PHASE r), golden-ratio phases
_UNIT_ROUNDOFF = 2.0**-53


class InvalidModularData(ValueError):
    """Structurally malformed input: wrong shapes, unknown labels, non-bijective dual."""


class ValidationFailure(ValueError):
    """Numeric axiom violations; carries the :class:`ValidationReport`."""

    def __init__(self, report):
        self.report = report
        super().__init__("modular data failed validation: " + ", ".join(report.violations))


class NonIntegralFusion(InvalidModularData):
    """A Verlinde fusion coefficient is not a nonnegative integer within tolerance."""


class ScaleLimit(ValueError):
    """Requested construction exceeds the documented size limits."""


class ModularData:
    """Label set with unit, duality involution, S-matrix and twists.

    Parameters
    ----------
    labels : iterable of str
        Distinct label names.  Order is significant: it fixes the row and
        column order of `S` and the canonical ordering used everywhere else.
    zero : str
        The unit label.
    dual : mapping str -> str
        The duality map.  Must be a bijection of the label set; involutivity
        is a validation check, not a construction requirement.
    S : (n, n) array-like of complex
        The S-matrix, indexed by label order.
    theta : mapping str -> complex
        Twist of every label.
    tol : float
        Comparison tolerance used by all derived numeric checks.

    Instances are treated as immutable; the S-matrix is stored read-only.
    A read-only array that owns its data (as both Lie builders hand over)
    is kept as it is; any other array of the caller's is copied.
    All operations on the data are pure functions, so values may be shared
    freely across threads.
    """

    __slots__ = ("labels", "zero", "dual", "S", "theta", "tol", "_index")

    def __init__(self, labels, zero, dual, S, theta, tol=DEFAULT_TOL):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise InvalidModularData("labels must be distinct")
        if not labels:
            raise InvalidModularData("label set is empty")
        index = {x: i for i, x in enumerate(labels)}
        if zero not in index:
            raise InvalidModularData(f"unit label {zero!r} not in label set")
        dual = {str(a): str(b) for a, b in dict(dual).items()}
        if set(dual) != set(labels):
            raise InvalidModularData("dual map must be defined on exactly the label set")
        if set(dual.values()) != set(labels):
            raise InvalidModularData("dual map must be a bijection of the label set")
        given, S = S, np.asarray(S, dtype=complex)
        n = len(labels)
        if S.shape != (n, n):
            raise InvalidModularData(f"S must be {n}x{n}, got {S.shape}")
        if not np.isfinite(S).all():  # locate the bad entry only when there is one
            a, b = np.argwhere(~np.isfinite(S))[0]
            raise InvalidModularData(f"S[{a}][{b}] is not finite: {S[a, b]}")
        theta = {str(a): complex(v) for a, v in dict(theta).items()}
        if set(theta) != set(labels):
            raise InvalidModularData("theta must be defined on exactly the label set")
        for a in labels:
            if not cmath.isfinite(theta[a]):
                raise InvalidModularData(f"theta[{a!r}] is not finite: {theta[a]}")
        if not 0 < tol < math.inf:
            raise InvalidModularData("tol must be a positive finite number")
        # a fresh conversion, or a read-only array that owns its data, is taken
        # over; anything the caller could still write through is copied
        if not S.flags.owndata or (S is given and S.flags.writeable):
            S = S.copy()
        S.setflags(write=False)
        self.labels = labels
        self.zero = zero
        self.dual = dual
        self.S = S
        self.theta = theta
        self.tol = float(tol)
        self._index = index

    @property
    def n(self):
        return len(self.labels)

    def index(self, label):
        """Position of `label` in the canonical order (KeyError if unknown)."""
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown label {label!r}") from None

    def dual_index(self, i):
        """Index-level duality: position of dual(labels[i])."""
        return self._index[self.dual[self.labels[i]]]

    def __repr__(self):
        return f"ModularData(n={self.n}, zero={self.zero!r})"


def _column_max(M):
    """Largest column sum of a nonnegative integer matrix, at least 1.

    max(v M) <= max(v) * _column_max(M) for a nonnegative vector v.
    """
    return max(1, int(M.sum(axis=0).max()))


class FusionTensor:
    """Integer fusion multiplicities N[i, j, k] = N_{ij}^k in label order, read by slice.

    `slice(j)` is N[:, j, :], the int64 matrix (N_j)_{xy} = N_{xj}^y; it is
    built on first use and cached, with its largest column sum in
    `column_max[j]`.  It is the one access format: the fusion
    identities and the recursion all read slices.  `N` is the dense stack,
    kept only for the tests and the benchmark.  `handle` is the integer
    handle operator H = sum_j N_j N_{j*}; H_{xy} is the dimension of the
    torus with points x and dual(y), and `handle_column_max` its largest
    column sum.

    The simple-current layer that :func:`verlinde_fusion` certified is kept
    as it was found there: `currents`, `charges`, `rep` and `via` are those
    of :class:`CurrentLayer`.  `slice_of(j)` builds the slice of any label
    j in n^3 / |G|^2 work: the representatives' rows, moved to the rest of
    their orbits as the handle's rows are.  `slice` calls it only for a
    representative r.  For a label j = sigma_J(r) whose representative r
    is another label, `slice(j)` is the column permutation
    N_j[:, sigma_J(y)] = N_r[:, y] of the cached `slice(r)`, and
    `column_max[j]` is `column_max[r]`.  On a tensor built by hand every
    label represents itself: `currents` and `charges` are empty and `via`
    is None.  `deviation` is the fusion deviation that
    :func:`verlinde_fusion` compared with its tolerance: the largest
    measured deviation of a representative pair plus the derived bounds
    for every other coefficient (None on a tensor built by hand).

    Compared (and hashed) by identity: the tensor is derived data, so two
    instances built from the same category are interchangeable anyway.
    """

    def __init__(self, labels, slice_of, handle):
        n = len(labels)
        if handle.shape != (n, n):
            raise InvalidModularData("handle operator shape does not match label count")
        self.labels = tuple(labels)
        self.currents = {}
        self.charges = {}
        self.rep, self.via = np.arange(n), None
        self.handle = handle
        self.handle_column_max = _column_max(handle)
        self.column_max = {}
        self._slice_of = slice_of
        self._slices = {}
        self.deviation = None
        self._N = None

    def slice(self, j):
        """N[:, j, :] as an int64 matrix (N_j)_{xy} = N_{xj}^y, cached."""
        M = self._slices.get(j)
        if M is None:
            r = int(self.rep[j])
            if r == j:
                M = self._slice_of(j)
                self.column_max[j] = _column_max(M)
            else:  # permuting the columns keeps every column sum
                R = self.slice(r)
                M = np.empty_like(R)
                M[:, self.currents[int(self.via[j])]] = R
                self.column_max[j] = self.column_max[r]
            M.setflags(write=False)
            self._slices[j] = M
        return M

    @property
    def N(self):
        """The read-only dense (n, n, n) tensor, built on first access.

        One `slice_of` call, n^3 / |G|^2 work, per label, stacked.  Cached
        on its own: it neither reads nor fills the slice cache.
        """
        if self._N is None:
            N = np.stack([self._slice_of(j) for j in range(len(self.labels))], axis=1)
            N.setflags(write=False)
            self._N = N
        return self._N


@dataclass
class ValidationReport:
    """Outcome of the numeric axiom checks; empty `violations` means pass."""

    violations: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.violations

    def add(self, name, detail=None):
        self.violations.append(name)
        if detail is not None:
            self.details[name] = detail


def validate_modular_data(data):
    """Run the numeric axiom checks and return a :class:`ValidationReport`.

    Checks (report entry names in parentheses): S symmetric ("S-symmetry"),
    dual an involution ("dual-involution") fixing the unit ("dual-zero"),
    theta(0) = 1 ("theta-zero"), theta(dual(i)) = theta(i) ("theta-dual"),
    dim(dual(i)) = dim(i) ("dim-dual"), and the modular relations, whose
    detail is the measured deviation: S unitary ("S-unitarity", which also
    makes S invertible), S^2 = C with C the duality permutation
    ("S-squared"), |theta| = 1 ("theta-modulus") and (ST)^3 = (p+/D) S^2
    with p+ = sum_i theta_i dim(i)^2 ("ST-cubed"; Bakalov-Kirillov,
    *Lectures on tensor categories and modular functors*).
    """
    report = ValidationReport()
    S, tol = data.S, data.tol
    asym = float(np.max(np.abs(S - S.T)))
    if asym > tol:
        report.add("S-symmetry", asym)
    bad = [a for a in data.labels if data.dual[data.dual[a]] != a]
    if bad:
        report.add("dual-involution", bad)
    if data.dual[data.zero] != data.zero:
        report.add("dual-zero", data.dual[data.zero])
    if abs(data.theta[data.zero] - 1.0) > tol:
        report.add("theta-zero", data.theta[data.zero])
    bad = [a for a in data.labels if abs(data.theta[data.dual[a]] - data.theta[a]) > tol]
    if bad:
        report.add("theta-dual", bad)
    dims = quantum_dims(data)
    bad = [a for i, a in enumerate(data.labels) if abs(dims[data.dual_index(i)] - dims[i]) > tol]
    if bad:
        report.add("dim-dual", bad)
    n = data.n
    C = np.zeros((n, n))
    C[np.arange(n), [data.dual_index(i) for i in range(n)]] = 1
    th = np.array([data.theta[a] for a in data.labels])
    ST, S2 = S * th, S @ S
    modulus = float(np.max(np.abs(np.abs(th) - 1)))
    if modulus > tol:
        report.add("theta-modulus", modulus)
    for name, residual in (
        ("S-unitarity", S @ S.conj().T - np.eye(n)),
        ("S-squared", S2 - C),
        ("ST-cubed", ST @ ST @ ST - gauss_sum_delta(data, conjugate=True) / global_D(data) * S2),
    ):
        dev = float(np.max(np.abs(residual)))
        if dev > tol:
            report.add(name, dev)
    return report


def _unit_entry(data):
    """(z, S_00), refused when |S_00| <= n u, :func:`_unit_row`'s bound for entries at most 1."""
    z = data.index(data.zero)
    if abs(data.S[z, z]) <= data.n * _UNIT_ROUNDOFF:
        raise InvalidModularData("S_{00} vanishes; quantum dimensions undefined")
    return z, data.S[z, z]


def quantum_dims(data):
    """All quantum dimensions S_{0i}/S_{00} as a complex vector in label order."""
    z, s00 = _unit_entry(data)
    return data.S[z, :] / s00


def quantum_dim(data, i):
    """Quantum dimension of one label, S_{0i}/S_{00}."""
    z, s00 = _unit_entry(data)
    return complex(data.S[z, data.index(i)] / s00)


def global_D(data):
    """Square root of sum_i dim(i)^2 with nonnegative real part."""
    total = complex(np.sum(quantum_dims(data) ** 2))
    root = cmath.sqrt(total)
    if root.real < 0 or (root.real == 0 and root.imag < 0):
        root = -root
    return root


def gauss_sum_delta(data, conjugate=False):
    """The Gauss sum sum_i theta_i^{-1} dim(i)^2.

    With `conjugate=True` the opposite twist-sign convention
    sum_i theta_i dim(i)^2 is returned instead.
    """
    dims = quantum_dims(data)
    th = np.array([data.theta[a] for a in data.labels])
    if np.min(np.abs(th)) <= data.tol:
        raise InvalidModularData("a twist vanishes; Gauss sum undefined")
    tpow = th if conjugate else 1.0 / th
    return complex(np.sum(tpow * dims**2))


def anomaly_scalar(data, s):
    """(Delta^{-1} D)^s for an integer framing weight s."""
    delta = gauss_sum_delta(data)
    if abs(delta) <= data.tol:
        raise InvalidModularData("Gauss sum vanishes within tolerance; anomaly undefined")
    return (global_D(data) / delta) ** int(s)


def _integer_tolerance(tol, scale):
    """Allowed |sum - round(sum)|, elementwise, for terms of total magnitude `scale`.

    Float error scales with the terms, which for negative S_{0r} powers dwarf the sum.
    """
    return np.minimum(np.maximum(tol, 5e-12 * scale), 0.45)


def _simple_currents(S, z):
    """The (|G|, n) array whose row for J in G is sigma_J(x) = J (x) x, read from S; column z is J.

    G is the group of invertible labels.  |dim J| = 1 is necessary, so the
    candidates are the labels whose |dim| is within `_INVERTIBLE_DIM_TOL` of
    1.  By (I) of :func:`verlinde_fusion` row sigma_J(x) of S is psi_J S_x,
    so the keys (psi_J S_x) v over all x are the keys S v of the labels,
    permuted by sigma_J, for a fixed complex vector v (with a real v,
    conjugate labels would have keys of equal real part).  Both key lists
    are sorted by real part and matched in that order, which makes sigma_J
    a bijection; J joins when every key lies within `_KEY_TOL` of its
    match, relative to the largest key.  Each member is named by
    sigma_J(0) = J, and the members must form a group (:func:`_is_group`);
    otherwise G is the unit alone, and every label is its own orbit.
    :func:`current_layer` and :func:`verlinde_fusion` check every member by (I).
    """
    n = len(S)
    row0 = S[z]
    unit = np.arange(n)[None]
    cand = (np.abs(np.abs(row0 / row0[z]) - 1) <= _INVERTIBLE_DIM_TOL).nonzero()[0]
    # found[x, a] = (psi_{J_a} S_x) v; the unit's column is S v itself, the keys of the labels
    found = S @ (S[cand] / row0 * np.exp(_KEY_PHASE * np.arange(n))).T
    ranks = found.real.argsort(axis=0)
    unit_at = int(cand.searchsorted(z))
    keys = found[ranks[:, unit_at], unit_at]  # in order of real part
    dist = np.abs(found[ranks, np.arange(len(cand))] - keys[:, None]).max(axis=0)
    P = ranks[ranks.argsort(axis=0), unit_at].T  # sigma_J(x) is the label of x's rank
    P = P[dist <= _KEY_TOL * np.abs(keys).max()]
    return P if _is_group(P, z) else unit


def _is_group(P, z):
    """Whether the permutations P (rows, with P[a, z] = J_a) are closed under composition.

    sigma_a sigma_b must be the member of J_a (x) J_b = sigma_a(J_b).  A
    label outside the set has position -1, whose row differs from it at z.
    """
    pos = np.full(P.shape[1], -1)
    pos[P[:, z]] = np.arange(len(P))
    return bool((P[:, P] == P[pos[P[:, P[:, z]]]]).all())


def _unit_row(S, z):
    """Row z of S, the divisor of every psi_J and Verlinde sum.

    An entry vanishes when it is within n u of the row's largest entry, the
    rounding of a sum of n terms of that size, whatever `data.tol` is.
    """
    row0 = S[z]
    size = np.abs(row0)
    if size.min() <= len(S) * _UNIT_ROUNDOFF * size.max():
        raise NonIntegralFusion("a unit-row S entry vanishes; Verlinde sum undefined")
    return row0


def _charges(S, z, P):
    """(Psi, phi, turns, Q) of the currents P (:func:`_simple_currents`), J = P[a, z].

    Psi[a, r] = psi_J(r) = S_{Jr} / S_{0r}, phi_J = psi_J / psi_J(0),
    turns = |G| arg(phi_J) / 2 pi and Q = round(turns) mod |G|, the charges
    q_J as floats.
    """
    g = len(P)
    Psi = S[P[:, z]] / S[z]
    phi = Psi / Psi[:, z, None]
    turns = np.arctan2(phi.imag, phi.real) * (g / (2 * np.pi))
    return Psi, phi, turns, np.rint(turns) % g


def _residuals(S, P, Psi):
    """Row blocks (x0, rows, residual) of (I): residual[a, e, r] = |S_{sigma_J(x), r} - psi_J(r) S_{xr}|.

    x = x0 + e runs over the labels and J = P[a, z] over the currents but
    the unit, so every entry of S is visited for every such J; `rows` is
    S[x0 : x0 + len(rows)].  The unit's residuals are exact zeros (sigma_0
    is the identity and psi_0 = S_0r / S_0r = 1), so with G = {0} no block
    is yielded.
    """
    g, n = P.shape
    # blocks of at most max(n^2, 2^12) entries over all currents, and at most `_BLOCK`
    step = max(1, min(_BLOCK, max(n * n, 1 << 12)) // (g * n))
    moving = (P != np.arange(n)).any(axis=1)
    P, Psi = P[moving], Psi[moving]
    if not len(P):
        return
    for x0 in range(0, n, step):
        rows = S[x0 : x0 + step]
        residual = S[P[:, x0 : x0 + step]]
        for a, psi in enumerate(Psi):  # one current at a time keeps the product's temporary 1/|G| of the block
            residual[a] -= rows * psi
        residual = np.abs(residual)  # the complex block is freed before the caller reads this one
        yield x0, rows, residual


@dataclass(frozen=True)
class CurrentLayer:
    """The simple currents of modular data and their monodromy charges.

    `currents` maps each invertible label J (simple current, the unit
    included) to its label permutation sigma_J(x) = J (x) x, a read-only
    int64 array; together they form the group G, and g h = sigma_g(h).
    `charges` maps each J to the read-only int64 array of monodromy charges
    q_J(x) in [0, |G|): the monodromy of J on x is exp(2 pi i q_J(x) / |G|).
    `rep[x]` is the representative of x's orbit, its least label, and
    `via[x]` the current J with x = sigma_J(rep[x]).
    """

    currents: dict
    charges: dict
    rep: np.ndarray
    via: np.ndarray


def _layer(P, Q, z):
    """The :class:`CurrentLayer` of the currents P with the float charges Q."""
    P.setflags(write=False)
    Q = Q.astype(np.int64)
    Q.setflags(write=False)
    rep = P.min(axis=0)
    via = np.empty(P.shape[1], dtype=np.int64)
    via[P[:, rep]] = P[:, z, None]  # sigma_J(rep[x]) = x; at a fixed point any such J serves
    names = P[:, z].tolist()
    return CurrentLayer(dict(zip(names, P)), dict(zip(names, Q)), rep, via)


def current_layer(data):
    """The :class:`CurrentLayer` of `data`, certified by (I) on every entry of S.

    :func:`_simple_currents` finds the group G and its permutations; then
    every residual of (I) of :func:`verlinde_fusion`,
    S_{sigma_J(x), r} = psi_J(r) S_{xr}, over every entry of S and every J,
    and every distance |phi_J(x) - exp(2 pi i q_J(x) / |G|)| of a charge
    from its |G|-th root of unity, must be at most `data.tol`; otherwise
    :class:`InvalidModularData` names (I) and the largest of them.  A label
    whose |dim| lies within `data.tol` of 1 is invertible in a unitary
    category, so one that :func:`_simple_currents` left out of G fails (I)
    as well, and is named.  For modular data G is dual to the grading group
    (Gelaki-Nikshych), so this is all that
    :func:`~modfunctor.characters.dual_group` reads.  Neither the Verlinde
    sums nor the handle are computed: integrality of the fusion rules is
    :func:`verlinde_fusion`'s check.  Raises :class:`NonIntegralFusion`
    when a unit-row entry vanishes.
    """
    S, tol = data.S, data.tol
    z = data.index(data.zero)
    row0 = _unit_row(S, z)
    P = _simple_currents(S, z)
    lone = np.abs(np.abs(row0 / row0[z]) - 1) <= tol
    lone[P[:, z]] = False
    if lone.any():
        raise InvalidModularData(
            f"(I) fails for label {data.labels[lone.argmax()]!r}: its |dim| is 1 within {tol:.3e}, "
            "but no permutation of the labels matches its rows of S"
        )
    Psi, phi, _turns, Q = _charges(S, z, P)
    worst = np.abs(phi - np.exp(2j * np.pi / len(P) * Q)).max()
    for _x0, _rows, residual in _residuals(S, P, Psi):
        worst = max(worst, residual.max())
    if not worst <= tol:
        raise InvalidModularData(
            f"simple currents fail (I), S_(J x, r) = psi_J(r) S_(x, r) with charges at |G|-th roots of unity, "
            f"by {worst:.3e} > {tol:.3e}"
        )
    return _layer(P, Q, z)


def _current_pass(S, z, P, Psi, turns):
    """(bound, moved) of :func:`verlinde_fusion`, from the residuals of (I) on every entry of S.

    P is :func:`_simple_currents` and (Psi, turns) come from
    :func:`_charges`.  `bound` is orbit + fold + skip; `moved` is
    (u, h, w, rho) with u = nu h + p rho and w = p h + rho, so that handle
    entry (sigma_J(x), sigma_J(y)) is within u_x h_y + w_x rho_y of entry
    (x, y).  With G = {0}, `bound` and `moved` are 0: there the gap
    2 sin(pi / |G|) is 0 (2.4e-16 in floats), and `bound` divides by it.
    When nu leaves no room for the derivation `bound` is infinite.
    """
    g, n = P.shape
    if g == 1:
        zero = np.zeros(n)
        return 0.0, (zero, zero, zero, zero)
    row0 = S[z]
    # |phi - exp(2 pi i q / |G|)| <= ||phi| - 1| + |arg phi - 2 pi q / |G||, ||phi| - 1| <= 2 nu / (1 - nu);
    # 16 u of angle covers the rounding of arctan2 and of the scaling to turns
    frac = np.abs(turns - np.rint(turns)).max() * (2 * np.pi / g) + 16 * _UNIT_ROUNDOFF
    mod = np.abs(Psi)
    top = mod.max()
    nu = max(top * top - 1, 1 - mod.min() ** 2)
    p = max(1.0, top)
    inv0 = 1 / np.abs(row0)
    inv0sq = inv0 * inv0
    weights = np.array((inv0, inv0sq)).T
    m = s2 = eps = delta = eta = 0.0
    h2, rho2 = np.empty(n), np.empty(n)
    for x0, rows, residual in _residuals(S, P, Psi):
        x1 = x0 + len(rows)
        a2 = np.abs(rows) ** 2
        s2 = max(s2, a2.max())
        sums = a2 @ weights
        m = max(m, sums[:, 0].max())
        h2[x0:x1] = sums[:, 1]
        eps = max(eps, np.abs(rows - S[:, x0:x1].T).max())
        delta = max(delta, residual.max())
        eta = max(eta, (residual[:, :, z] * inv0[x0:x1]).max())
        rho2[x0:x1] = (residual * residual).sum(axis=0) @ inv0sq  # weighted row norms, summed over G
    h, rho = np.sqrt(h2), np.sqrt(rho2)
    moved = (nu * h + p * rho, h, p * h + rho, rho)
    s = math.sqrt(s2)
    eta += (1 + p) * eps * inv0.max()  # |S_{0, sigma_J(r)} - t S_{0r}| <= residual at (r, 0) + (1 + p) eps
    gap = 2 * math.sin(math.pi / g)
    if not nu < min(gap, 1):
        return math.inf, moved
    kappa = 2 * nu / (1 - nu) + frac
    de = delta + (1 + p) * eps + p * kappa * s
    tau = p * (1 + eta)
    orbit = m * ((3 + p) * delta + s * (nu + 8 * (n + 8) * _UNIT_ROUNDOFF))
    fold = m * ((g - 1) * (nu * s + 3 * de * tau) + eta * s)
    skip = m * (3 * de * tau + eta * s) / (gap - nu)
    return float(orbit + fold + skip), moved


def verlinde_fusion(data):
    """Fusion multiplicities N_{ij}^k = sum_r S_{ir} S_{jr} conj(S_{kr}) / S_{0r}.

    Every coefficient must lie within `data.tol` of a nonnegative integer,
    and the handle operator S diag(S_{0r}^{-2}) S^dagger must round to
    integers within :func:`_integer_tolerance`; otherwise
    :class:`NonIntegralFusion` is raised, which signals that (S, theta) is
    not valid modular data.  What is measured: the folded Verlinde sums of
    the pairs of representatives, and every entry of the handle's
    representative rows.  What is bounded: every other fusion coefficient
    (orbit, fold and skip below), and the handle rows copied by permutation
    (the moved-row term below).

    Simple currents.  An invertible label J permutes the labels by
    sigma_J(x) = J (x) x, and its rows of S satisfy (Schellekens-Yankielowicz,
    IJMPA 5 (1990) 2903)

        (I)  S_{sigma_J(x), r} = psi_J(r) S_{xr},  psi_J(r) = S_{Jr} / S_{0r}.

    :func:`_simple_currents` reads the group G of these labels and their
    permutations from S.  (I) is checked on every entry of S for every J in
    G, by the one pass of residuals that :func:`current_layer` reads too,
    but with no threshold of its own: here a residual enters the bounds
    below.  delta is its largest residual, nu = max | |psi_J(r)|^2 - 1 | and
    p = max(1, max |psi_J(r)|).  Each label is sigma_a(i) for some a in G
    and the least label i of its orbit, its representative.

    Charges.  With S symmetric, (I) also acts on the column index:
    S_{x, sigma_J(r)} = psi_J(x) S_{xr}.  Write t = psi_J(0) (the dimension
    of J) and phi_J = psi_J / t, a |G|-th root of unity; the charge of x is
    the integer q_J(x) = round(|G| arg phi_J(x) / 2 pi) mod |G|, and labels
    with the same charge under every J form a class (the charges are kept as
    `FusionTensor.charges`).  Substituting
    r -> sigma_J(r) in T(i, j, k) = sum_r f(r), f(r) = S_{ir} S_{jr}
    conj(S_{kr}) / S_{0r}, multiplies the sum by |t|^2 Phi with
    Phi = exp(2 pi i (q_J(i) + q_J(j) - q_J(k)) / |G|).  So T vanishes
    unless k is in the class of i + j (the triple is balanced), and on a
    balanced triple the summand is constant on each orbit of r: T is the
    sum over representatives r weighted by their orbit size |O_r|, which is
    smaller at a fixed point (the selection rule and orbit sum of
    simple-current theory; Fuchs-Schellekens-Schweigert, Nucl. Phys. B 473
    (1996) 323).  The check visits the pairs i <= j of representatives,
    sorted by the class of i + j, and sums each only over the columns k of
    that class and the representatives r.  With G = {0} there is one class,
    every label represents itself, and these are all pairs i <= j with
    every k and every r.

    Bound.  Write T(x, y, k) for the exact sum, s = max |S_{xr}| and
    m = max_x sum_r |S_{xr}|^2 / |S_{0r}|, so that
    sum_r |S_{yr}| |S_{kr}| / |S_{0r}| <= m for all y, k (Cauchy-Schwarz with
    weights 1 / |S_{0r}|).  Let x = sigma_a(i), y = sigma_b(j), c the member
    with sigma_c = sigma_a sigma_b, and k' = sigma_c^{-1}(k).  (I) for a in
    row i and then in row y moves the current from x to y, and (I) for c in
    row j and in row k', with |psi_c|^2 = 1 + (|psi_c|^2 - 1), moves it to k:

        |T(x, y, k) - T(i, sigma_c(j), k)| <= 2 delta m,
        |T(i, sigma_c(j), k) - T(i, j, k')| <= (1 + p) delta m + nu s m.

    So N_{xy}^k = N_{ij}^{k'} while the sums lie within 1/2 of integers:
    slice(sigma_c(j)) = slice(j)[:, sigma_c^{-1}] and
    N[sigma_a(i), y, :] = N[i, y, sigma_a^{-1}].  A computed sum is within
    4 (n + 8) u of the exact one times the magnitude of its terms,
    sum_r |S_{xr} S_{yr} S_{kr} / S_{0r}| <= s m (u = 2^-53): per term one
    complex division and one complex product, each within a few u (and one
    real product by |O_r| in a folded sum), then a complex dot product whose
    real and imaginary parts each add 2n real products in whatever order
    the BLAS picks, within sqrt(2) gamma_{2n} (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., sections 3.1 and 3.6);
    that is about (2.9 n + 11) u to first order, and 4 (n + 8) u leaves
    room for the rest.  Counting it once for the representative's computed
    sum and once for the coefficient's own, a non-representative
    coefficient lies within

        orbit = m ((3 + p) delta + s (nu + 8 (n + 8) u))

    of its integer beyond the representatives' largest deviation.

    The column action of (I) is measured, not assumed.  Let
    eps = max |S_{xr} - S_{rx}|, kappa bound |phi_J(x) - exp(2 pi i q_J(x)
    / |G|)| (at most 2 nu / (1 - nu) plus 2 pi / |G| times the largest
    rounding of |G| arg phi_J / 2 pi), and eta bound
    |w_r| = |S_{0, sigma_J(r)} / (t S_{0r}) - 1| (the residual of (I) at
    (r, 0) plus (1 + p) eps, over |S_{0r}|).  Then
    S_{x, sigma_J(r)} = exp(2 pi i q_J(x) / |G|) t S_{xr} + e_x(r) with
    |e| <= de = delta + (1 + p) eps + p kappa s, and

        f(sigma_J(r)) (1 + w_r) = Phi |t|^2 f(r) + D(r) / (t S_{0r}),

    where D has three terms, each with one e; with 1 / |t S_{0r}| <=
    (1 + eta) / |S_{0, sigma_J(r)}| and Cauchy-Schwarz as above,
    sum_r |D(r)| / |t S_{0r}| <= 3 de tau m, tau = p (1 + eta).  Summed over
    r, T = Phi |t|^2 T + sum_r D(r) / (t S_{0r}) - sum_r w_r f(sigma_J(r)).
    An unbalanced triple has some J with Phi != 1, so |1 - Phi| >=
    2 sin(pi / |G|) and | |t|^2 - 1 | <= nu give

        skip = m (3 de tau + eta s) / (2 sin(pi / |G|) - nu)

    as its distance from 0.  On a balanced triple (Phi = 1 for every J),
    |f(sigma_J(r)) - f(r)| <= nu |f(r)| + eta |f(sigma_J(r))| +
    |D(r) / (t S_{0r})|, and summing over the at most |G| - 1 other members
    of each orbit, the folded sum is within

        fold = m ((|G| - 1) (nu s + 3 de tau) + eta s)

    of the full one.  The reported deviation is the representatives'
    largest deviation plus orbit + fold + skip (all 0 when G = {0}), and it
    alone is compared with `data.tol`: a residual of (I) fails as a coefficient
    that is not an integer.  It is kept as `FusionTensor.deviation`.  The
    negative-coefficient error names a representative triple.

    Handle.  H_{xy} = sum_r S_{xr} conj(S_{yr}) / S_{0r}^2 is summed in
    full, over every r and every column, for each representative row x, and
    row sigma_J(x) is row x permuted: H_{sigma_J(x), sigma_J(y)} = H_{xy}.
    Let h_x = (sum_r |S_{xr}|^2 / |S_{0r}|^2)^(1/2), and rho_x the same
    weighted norm of the residuals of (I) in row x, summed in squares over
    G.  (I) in rows x and y writes each term of H_{sigma_J(x), sigma_J(y)}
    as |psi_J(r)|^2 times the term of H_{xy} plus three terms with a
    residual, and Cauchy-Schwarz puts the moved entry within
    nu h_x h_y + rho_x (p h_y + rho_y) + p h_x rho_y of H_{xy} (0 when
    G = {0}).  That moved-row term is added to the measured deviation of
    each computed entry, which must lie within :func:`_integer_tolerance`
    of the magnitude of its terms; the failure reports the largest such sum.

    Every check runs in blocks of at most `_BLOCK` entries (n^2 or fewer while
    n <= 512) and keeps none of them: the returned :class:`FusionTensor` fills
    a slice when it is first read the way the handle is filled.  The
    representatives' rows, one folded product of n^3 / |G|^2 work with the
    unbalanced entries masked to 0, are moved to their orbits' rows by
    N_{sigma_J(x), j}^{sigma_J(y)} = N_{xj}^y.  The other slices of an orbit
    permute the columns of the cached slice of its representative
    (`FusionTensor.rep`, `FusionTensor.via`).
    The handle check runs first, so its failure is the one raised; when nu
    leaves no room for the fusion bound, the handle check may pass and the
    fusion check then fails with an infinite deviation.
    """
    S, tol = data.S, data.tol
    z = data.index(data.zero)
    row0 = _unit_row(S, z)
    n = data.n
    step = max(1, _BLOCK // n)

    P = _simple_currents(S, z)
    Psi, _phi, turns, Q = _charges(S, z, P)
    bound, moved = _current_pass(S, z, P, Psi, turns)
    g, rep = len(P), P.min(axis=0)
    reps = (rep == np.arange(n)).nonzero()[0]

    # handle: the representative rows, summed over every r and every column;
    # the conjugate rows conj(H[X]) keep the real parts and the distances to integers
    w0 = row0**-2
    abs_S = np.abs(S)
    u, h, w, rho = moved
    rep_rows = np.empty((len(reps), n), dtype=np.int64)
    worst, bad = 0.0, False
    for x0 in range(0, len(reps), step):
        X = reps[x0 : x0 + step]
        rows = S[X] * w0
        np.conj(rows, out=rows)
        raw = rows @ S.T
        rounded = np.rint(raw.real)
        dev = np.abs(raw - rounded)
        dev += u[X, None] * h + w[X, None] * rho  # the rows this one is moved to
        rep_rows[x0 : x0 + step] = rounded
        scale = np.abs(rows) @ abs_S.T
        bad = bad or not (dev <= _integer_tolerance(tol, scale)).all()
        worst = max(worst, dev.max())
    if bad:
        raise NonIntegralFusion(f"handle operator deviates from integers by up to {worst:.3e}")
    del abs_S, rows, raw, rounded, dev, scale  # none of the handle's blocks lives next to the fusion's
    handle = np.empty((n, n), dtype=np.int64)
    handle[P[:, reps, None], P[:, None]] = rep_rows
    del rep_rows

    size = np.bincount(rep, minlength=n)[reps]
    # charge classes: labels with equal charges under every current
    classes = {}
    cls = np.array([classes.setdefault(c, len(classes)) for c in zip(*Q.tolist())])
    C = len(classes)
    charge = np.array(list(classes))  # charge[c] = the charges of class c
    add = np.array(  # add[b, c] = class b + class c, or -1 when no label carries it
        [classes.get(tuple(q), -1) for q in ((charge[:, None] + charge) % g).reshape(-1, g).tolist()]
    ).reshape(C, C)
    R = reps if len(reps) < n else slice(None)  # a basic slice when G = {0}, so that numpy takes views
    SR = S[:, R]
    block = SR[R]  # the representatives' rows of SR, a view when G = {0}
    wr0 = row0[R] / size  # S_ir / wr0_r = |O_r| S_ir / S_0r

    # fusion: pairs i <= j of representatives, sorted by the class of i + j,
    # each summed over the columns of that class only
    by_class = cls.argsort(kind="stable")  # labels by class
    starts = cls[by_class].searchsorted(np.arange(C + 1)).tolist()
    columns = SR[by_class]
    np.conj(columns, out=columns)
    columns = columns.T  # columns[:, k] = conj(S[by_class[k], R]), S^dagger's columns in class order
    cls_r = cls[reps]
    nr = len(reps)
    rows_per = max(1, min(n, _BLOCK // max(nr, *(b - a for a, b in zip(starts, starts[1:])))))
    span = max(1, _PAIR_CHUNK // nr)  # triangle rows per chunk of pairs
    dev = 0.0
    lowest, where = 0, None
    for i0 in range(0, nr, span):
        a, b = (np.arange(i0, min(i0 + span, nr))[:, None] <= np.arange(nr)).nonzero()
        a += i0
        target = add[cls_r[a], cls_r[b]]
        order = target.argsort(kind="stable")
        a, b, target = a[order], b[order], target[order]
        t0 = int(target.searchsorted(0))  # a class sum no label carries (-1): all 0, within `skip`
        while t0 < len(target):
            # a block holds pairs of one class and reads only that class's columns
            end = int(target.searchsorted(target[t0], "right"))
            t1 = min(t0 + rows_per, end)
            t1 -= t1 == end - 1 and t1 - t0 > 1  # no one-row tail: numpy takes it as a vector product
            lo, hi = starts[target[t0]], starts[target[t0] + 1]
            rows = block[b[t0:t1]]
            rows *= block[a[t0:t1]] / wr0
            raw = rows @ columns[:, lo:hi]  # raw[e, k] = N_{reps[a[t0+e]], reps[b[t0+e]]}^{by_class[lo+k]}
            rounded = np.rint(raw.real)
            dev = max(dev, np.abs(raw - rounded).max())
            low = rounded.min()
            if low < lowest:
                e, k = np.unravel_index(rounded.argmin(), rounded.shape)
                lowest, where = int(low), (int(reps[a[t0 + e]]), int(reps[b[t0 + e]]), int(by_class[lo + k]))
            t0 = t1

    dev = float(dev + bound)
    if dev > tol:
        raise NonIntegralFusion(f"fusion coefficients deviate from integers by {dev:.3e} > {tol:.3e}")
    if where is not None:
        i, j, k = where
        raise NonIntegralFusion(
            f"negative fusion coefficient {lowest} at "
            f"({data.labels[i]}, {data.labels[j]}, {data.labels[k]})"
        )

    layer = _layer(P, Q, z)  # the charges are finite now: the deviation check passed
    to_x, to_y, cls_y = P[:, reps, None], P[:, None, by_class], cls[by_class]  # sigma_J(x), sigma_J(y), class(y)

    def slice_of(j):
        M = np.rint(((block * (S[j, R] / wr0)) @ columns).real)  # M[e, k] = N_{reps[e], j}^{by_class[k]}
        M *= cls_y == add[cls[j], cls_r, None]  # class(y) = class(x) + class(j)
        out = np.empty((n, n), dtype=np.int64)
        out[to_x, to_y] = M  # N_{sigma_J(x), j}^{sigma_J(y)} = N_{xj}^y
        return out

    fusion = FusionTensor(data.labels, slice_of, handle)
    fusion.currents, fusion.charges, fusion.rep, fusion.via = layer.currents, layer.charges, layer.rep, layer.via
    fusion.deviation = dev
    return fusion


def fs_indicators(data):
    """Self-duality sign of every label, in label order: 0 if not self-dual, else +1 or -1.

    Bantay's D^{-2} sum_{j,k} N_{jk}^i dim(j) dim(k) (theta_j/theta_k)^2,
    summed through Verlinde as D^{-2} sum_r conj(S_{ir})/S_{0r} a_r b_r
    with a = S (dim theta^2) and b = S (dim theta^{-2}) computed once,
    vanishes on non-self-dual labels and takes the value +1 on
    orthogonal and -1 on symplectic self-dual labels.  Raises
    :class:`InvalidModularData`, naming the first such label, if a sum is
    not within tolerance of {-1, 0, +1}.
    """
    S = data.S
    dims = quantum_dims(data)
    th2 = np.array([data.theta[a] for a in data.labels]) ** 2
    row0 = S[data.index(data.zero), :]
    # conj(S) v as conj(S conj(v)), so no conjugated copy of S is made
    vals = np.conj(S @ np.conj((S @ (dims * th2)) * (S @ (dims / th2)) / row0)) / complex(np.sum(dims**2))
    # worst case measured over the built-in families, lie D 4 1 and su
    # families up to su 5 6 (n = 210) is 9.8e-15; allow a small multiple of
    # tol for user data computed less carefully, capped below 1/2 as in
    # _integer_tolerance so that only the nearest of -1, 0, +1 is accepted
    atol = min(max(data.tol, 1e-12) * 100, 0.45)
    out = {}
    for ii, (i, val) in enumerate(zip(data.labels, vals)):
        val = complex(val)
        target = next((t for t in (0, 1, -1) if abs(val - t) <= atol), None)
        if target is None:
            raise InvalidModularData(f"indicator of {i!r} is {val}, not within tolerance of -1, 0, +1")
        if target != 0 and data.dual_index(ii) != ii:
            raise InvalidModularData(f"nonzero indicator {val} on non-self-dual label {i!r}")
        out[i] = target
    return out
