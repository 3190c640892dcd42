"""Numeric modular-category data and the scalar invariants derived from it.

The central object is :class:`ModularData`: a finite label set with a
distinguished unit label, a duality involution, a complex S-matrix and a
twist for every label.  Everything else in the package (fusion rules,
state-space dimensions, character groups, scaling solvers) is computed
from these four pieces of data.  The handle operator ``FusionTensor.handle``
and the indicators (:func:`fs_indicators`) are closed forms in S.
:func:`verlinde_fusion` finds the group of invertible labels (simple
currents) and their label permutations, checks the Verlinde sum once per
pair of orbit representatives, certifies every other coefficient by the
simple-current identity of S, and returns a :class:`FusionTensor`.  The
library reads it only by slice N[:, j, :], each built when first read and,
for a label that does not represent its orbit, permuted from its
representative's cached slice; nothing in the library stacks the dense n^3
tensor.

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
    "verlinde_fusion",
    "fs_indicators",
]

DEFAULT_TOL = 1e-9
_BLOCK = 1 << 18  # entries per row block of every check in verlinde_fusion
# loose on purpose: a candidate that is not invertible costs only its slice
_INVERTIBLE_DIM_TOL = 1e-3
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
        bad = np.argwhere(~np.isfinite(S))
        if len(bad):
            a, b = bad[0]
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


def _orbits(currents, n):
    """(rep, via) with x = sigma_{via[x]}(rep[x]), rep[x] the least label of x's orbit under `currents`.

    With no currents every label represents itself.
    """
    rep, via = np.arange(n), np.zeros(n, dtype=np.int64)
    for sigma in currents.values():
        np.minimum(rep, sigma, out=rep)
    for J, sigma in currents.items():
        via[sigma[rep]] = J
    return rep, via


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

    `currents` maps each invertible label J (simple current, the unit
    included) to its label permutation sigma_J(x) = J (x) x, a read-only
    int64 array; together they form the group G, and g h = sigma_g(h).
    :func:`verlinde_fusion` fills it; it is empty on a tensor built by
    hand, where every label represents its own orbit.  `slice_of(r)` is
    called only for a representative r, the least label of its orbit.  For
    a label j = sigma_J(r) whose representative r is another label,
    `slice(j)` is the column permutation N_j[:, sigma_J(y)] = N_r[:, y] of
    the cached `slice(r)`, and `column_max[j]` is `column_max[r]`.

    Compared (and hashed) by identity: the tensor is derived data, so two
    instances built from the same category are interchangeable anyway.
    """

    def __init__(self, labels, slice_of, handle):
        n = len(labels)
        if handle.shape != (n, n):
            raise InvalidModularData("handle operator shape does not match label count")
        self.labels = tuple(labels)
        self.currents = {}
        self.handle = handle
        self.handle_column_max = _column_max(handle)
        self.column_max = {}
        self._slice_of = slice_of
        self._slices = {}
        self._rep_via = None
        self._N = None

    def _representative(self, j):
        """(r, sigma_J) with j = sigma_J(r) and r the least label of j's orbit under `currents`."""
        if self._rep_via is None:
            self._rep_via = _orbits(self.currents, len(self.labels))
        rep, via = self._rep_via
        return int(rep[j]), self.currents.get(int(via[j]))

    def slice(self, j):
        """N[:, j, :] as an int64 matrix (N_j)_{xy} = N_{xj}^y, cached."""
        M = self._slices.get(j)
        if M is None:
            r, sigma = self._representative(j)
            if r == j:
                M = self._slice_of(j)
                self.column_max[j] = _column_max(M)
            else:  # permuting the columns keeps every column sum
                R = self.slice(r)
                M = np.empty_like(R)
                M[:, sigma] = R
                self.column_max[j] = self.column_max[r]
            M.setflags(write=False)
            self._slices[j] = M
        return M

    @property
    def N(self):
        """The read-only dense (n, n, n) tensor, built on first access.

        `slice_of` gives the representatives' slices, and the rest of each
        orbit is permuted from them.  Cached on its own: it neither reads
        nor fills the slice cache.
        """
        if self._N is None:
            n = len(self.labels)
            N = np.empty((n, n, n), dtype=np.int64)
            for j in range(n):
                r, sigma = self._representative(j)
                if r == j:
                    N[:, j, :] = self._slice_of(j)
                else:  # r < j is already in place
                    N[:, j, sigma] = N[:, r, :]
            N.setflags(write=False)
            self._N = N
        return self._N

    def coeff(self, data, i, j, k):
        """N_{ij}^k by label name."""
        return int(self.slice(data.index(j))[data.index(i), data.index(k)])


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


def quantum_dims(data):
    """All quantum dimensions S_{0i}/S_{00} as a complex vector in label order."""
    z = data.index(data.zero)
    s00 = data.S[z, z]
    if abs(s00) <= data.tol:
        raise InvalidModularData("S_{00} vanishes; quantum dimensions undefined")
    return data.S[z, :] / s00


def quantum_dim(data, i):
    """Quantum dimension of one label, S_{0i}/S_{00}."""
    z = data.index(data.zero)
    s00 = data.S[z, z]
    if abs(s00) <= data.tol:
        raise InvalidModularData("S_{00} vanishes; quantum dimensions undefined")
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


def _integer_tolerance(atol, scale):
    """Allowed |sum - round(sum)|, elementwise, for terms of total magnitude `scale`.

    Float error scales with the terms, which for negative S_{0r} powers dwarf the sum.
    """
    return np.minimum(np.maximum(atol, 5e-12 * scale), 0.45)


def _closure(generators, z, n):
    """{J: sigma_J} over the group the label permutations `generators` generate, J = sigma_J(z).

    None when two members send the unit z to the same label, which the
    fusion with invertible labels never does.
    """
    group = {z: np.arange(n)}
    todo = [group[z]]
    while todo:
        P = todo.pop()
        for sigma in generators:
            Q = sigma[P]
            J = int(Q[z])
            if J not in group:
                group[J] = Q
                todo.append(Q)
            elif not np.array_equal(group[J], Q):
                return None
    return group


def _permutation(S, Sct, z, J, step):
    """sigma_J when the rounded slice (N_J)_{xy} = N_{xJ}^y is a permutation matrix, else None.

    Built in row blocks of `step` rows, stopping at the first block that
    is not part of a permutation matrix.
    """
    n = len(S)
    w = S[J] / S[z]
    sigma = np.empty(n, dtype=np.int64)
    for x0 in range(0, n, step):
        block = np.round(((S[x0 : x0 + step] * w) @ Sct).real)
        if block.min() < 0 or np.any(block.sum(axis=1) != 1):
            return None
        sigma[x0 : x0 + step] = block.argmax(axis=1)
    return sigma if np.array_equal(np.sort(sigma), np.arange(n)) else None


def _simple_currents(S, Sct, z, step):
    """{J: sigma_J} over the group G of invertible labels J, sigma_J(x) = J (x) x.

    |dim J| = 1 is necessary, so the candidates are the labels whose |dim| is
    within `_INVERTIBLE_DIM_TOL` of 1, in label order.  A candidate outside
    the group found so far joins when its own rounded slice is a
    permutation matrix, which is sigma_J, and the group grows to all that
    sigma_J and the earlier generators generate: for su(N)_k one slice
    gives all N permutations.  :func:`verlinde_fusion` checks the identity
    that certifies every member.
    """
    n = len(S)
    dims = np.abs(S[z] / S[z, z])
    generators, group = [], {z: np.arange(n)}
    for J in np.flatnonzero(np.abs(dims - 1) <= _INVERTIBLE_DIM_TOL):
        if int(J) in group:
            continue
        sigma = _permutation(S, Sct, z, J, step)
        grown = None if sigma is None else _closure(generators + [sigma], z, n)
        if grown is not None:
            generators.append(sigma)
            group = grown
    return group


def _orbit_bound(S, z, currents, step):
    """`bound` of :func:`verlinde_fusion`, with (I) checked on every entry of S for every current.

    Works in row blocks of `step` rows and returns before the handle check,
    so none of its blocks is alive next to that check's.
    """
    n = len(S)
    row0 = S[z]
    delta = nu = 0.0
    p = 1.0
    for J, sigma in currents.items():
        psi = S[J] / row0
        nu = max(nu, float(np.max(np.abs(np.abs(psi) ** 2 - 1))))
        p = max(p, float(np.max(np.abs(psi))))
        for x0 in range(0, n, step):
            residual = S[sigma[x0 : x0 + step]]
            residual -= S[x0 : x0 + step] * psi
            delta = max(delta, float(np.max(np.abs(residual))))
    m = s = 0.0
    for x0 in range(0, n, step):
        block = np.abs(S[x0 : x0 + step])
        s = max(s, float(block.max()))
        m = max(m, float(np.max(block**2 @ (1 / np.abs(row0)))))
    return m * ((3 + p) * delta + s * (nu + 8 * (n + 8) * _UNIT_ROUNDOFF))


def _handle(S, Sct, row0, atol, step):
    """The int64 handle operator S diag(S_{0r}^{-2}) S^dagger, checked row block by row block.

    Each entry must round within :func:`_integer_tolerance` of the
    magnitude of its terms, or :class:`NonIntegralFusion` is raised.
    """
    n = len(S)
    weight = row0**-2
    abs_t = np.abs(S).T
    handle = np.empty((n, n), dtype=np.int64)
    worst, bad = 0.0, False
    for j0 in range(0, n, step):
        rows = S[j0 : j0 + step]
        dev = (rows * weight) @ Sct
        handle[j0 : j0 + step] = rounded = np.round(dev.real)
        dev = np.abs(dev - rounded)
        scale = (np.abs(rows) * np.abs(weight)) @ abs_t
        bad = bad or bool(np.any(dev > _integer_tolerance(atol, scale)))
        worst = max(worst, float(dev.max()))
    if bad:
        raise NonIntegralFusion(f"handle operator deviates from integers by up to {worst:.3e}")
    return handle


def verlinde_fusion(data, atol=None):
    """Fusion multiplicities N_{ij}^k = sum_r S_{ir} S_{jr} conj(S_{kr}) / S_{0r}.

    Every coefficient must lie within `atol` (default: `data.tol`) of a
    nonnegative integer, and the handle operator S diag(S_{0r}^{-2}) S^dagger
    must round to integers within :func:`_integer_tolerance`; otherwise
    :class:`NonIntegralFusion` is raised, which signals that (S, theta) is
    not valid modular data.

    Simple currents.  An invertible label J permutes the labels by
    sigma_J(x) = J (x) x, and its rows of S satisfy (Schellekens-Yankielowicz,
    IJMPA 5 (1990) 2903)

        (I)  S_{sigma_J(x), r} = psi_J(r) S_{xr},  psi_J(r) = S_{Jr} / S_{0r}.

    :func:`_simple_currents` finds the group G of these labels.  (I) is
    checked on every entry of S for every J in G; delta is its largest
    residual, nu = max | |psi_J(r)|^2 - 1 | and p = max |psi_J(r)|.  Each
    label is sigma_a(i) for some a in G and the least label i of its orbit,
    its representative.  The integrality and negativity checks visit only
    the pairs i <= j of representatives (the sum is symmetric in i and j),
    with every k.  With G = {0} every label represents itself, and these are
    all pairs i <= j.

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
    complex division and one complex product, each within a few u, then a
    complex dot product whose real and imaginary parts each add 2n real
    products in whatever order the BLAS picks, within sqrt(2) gamma_{2n}
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    sections 3.1 and 3.6); that is about (2.9 n + 10) u to first order, and
    4 (n + 8) u leaves room for the rest.  Counting it once for the
    representative's computed sum and once for the coefficient's own, a
    non-representative coefficient lies within

        bound = m ((3 + p) delta + s (nu + 8 (n + 8) u))

    of its integer beyond the representatives' largest deviation.  When G is
    larger than {0} the reported deviation is that maximum plus `bound`,
    and it alone is compared with `atol`: a residual of (I) fails as a
    coefficient that is not an integer.  The negative-coefficient error
    names a representative triple.

    Every check runs in row blocks of at most `_BLOCK` entries (whole rows
    of the upper triangle while n <= 512) and keeps none of them: the
    returned :class:`FusionTensor` rounds a representative's slice again
    when it is first read, and permutes the columns of that cached slice
    for the rest of the orbit.  The handle check (:func:`_handle`) visits
    every row and runs first, so its failure is the one raised: it is
    measured entry by entry, where the fusion verdict on the
    non-representative pairs rests on `bound`.
    """
    if atol is None:
        atol = data.tol
    S = data.S
    z = data.index(data.zero)
    row0 = S[z, :]
    if np.min(np.abs(row0)) <= data.tol:
        raise NonIntegralFusion("a unit-row S entry vanishes; Verlinde sum undefined")
    n = data.n
    step = max(1, _BLOCK // n)
    Sct = S.conj().T

    handle = _handle(S, Sct, row0, atol, step)
    currents = _simple_currents(S, Sct, z, step)
    reps = np.flatnonzero(_orbits(currents, n)[0] == np.arange(n))

    dev = 0.0
    lowest, where = 0, None
    for i in reps:
        w = S[i] / row0
        later = reps[reps >= i]
        for t in range(0, len(later), step):
            js = later[t : t + step]
            rows = S[js]
            rows *= w
            raw = rows @ Sct  # raw[a, k] = N_{i, js[a]}^k
            rounded = np.round(raw.real)
            dev = max(dev, float(np.max(np.abs(raw - rounded))))
            low = rounded.min()
            if low < lowest:
                a, k = np.unravel_index(int(np.argmin(rounded)), rounded.shape)
                lowest, where = int(low), (int(i), int(js[a]), int(k))

    if len(currents) > 1:
        dev += _orbit_bound(S, z, currents, step)
    if dev > atol:
        raise NonIntegralFusion(f"fusion coefficients deviate from integers by {dev:.3e} > {atol:.3e}")
    if where is not None:
        i, j, k = where
        raise NonIntegralFusion(
            f"negative fusion coefficient {lowest} at "
            f"({data.labels[i]}, {data.labels[j]}, {data.labels[k]})"
        )

    for sigma in currents.values():
        sigma.setflags(write=False)

    def slice_of(r):
        return np.round(((S * (S[r] / row0)) @ Sct).real).astype(np.int64)

    fusion = FusionTensor(data.labels, slice_of, handle)
    fusion.currents = currents
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
    vals = (S.conj() @ ((S @ (dims * th2)) * (S @ (dims / th2)) / row0)) / complex(np.sum(dims**2))
    # worst case measured over the built-in families, lie D 4 1 and su
    # families up to su 5 6 (n = 210) is 9.8e-15; allow a small multiple of
    # tol for user data computed less carefully
    atol = max(data.tol, 1e-12) * 100
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
