"""Numeric modular-category data and the scalar invariants derived from it.

The central object is :class:`ModularData`: a finite label set with a
distinguished unit label, a duality involution, a complex S-matrix and a
twist for every label.  Everything else in the package (fusion rules,
state-space dimensions, character groups, scaling solvers) is computed
from these four pieces of data.  The handle operator ``FusionTensor.handle``
and the indicators (:func:`fs_indicators`) are closed forms in S.
:func:`verlinde_fusion` checks every fusion coefficient once and returns a
:class:`FusionTensor`, which the library reads only by slice N[:, j, :],
each built when first read; nothing in the library stacks the dense n^3
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
        S = np.asarray(S, dtype=complex)
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
        if not (tol > 0):
            raise InvalidModularData("tol must be positive")
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
    built by `slice_of(j)` on first use and cached, with its largest column
    sum in `column_max[j]`.  It is the one access format: the fusion
    identities and the recursion all read slices.  `N` is the dense stack,
    kept only for the tests and the benchmark.  `handle` is the integer
    handle operator H = sum_j N_j N_{j*}; H_{xy} is the dimension of the
    torus with points x and dual(y), and `handle_column_max` its largest
    column sum.

    Compared (and hashed) by identity: the tensor is derived data, so two
    instances built from the same category are interchangeable anyway.
    """

    def __init__(self, labels, slice_of, handle):
        n = len(labels)
        if handle.shape != (n, n):
            raise InvalidModularData("handle operator shape does not match label count")
        self.labels = tuple(labels)
        self.handle = handle
        self.handle_column_max = _column_max(handle)
        self.column_max = {}
        self._slice_of = slice_of
        self._slices = {}
        self._N = None

    def slice(self, j):
        """N[:, j, :] as an int64 matrix (N_j)_{xy} = N_{xj}^y, cached."""
        M = self._slices.get(j)
        if M is None:
            M = self._slices[j] = self._slice_of(j)
            M.setflags(write=False)
            self.column_max[j] = _column_max(M)
        return M

    @property
    def N(self):
        """The read-only dense (n, n, n) tensor, built from `slice_of` on first access.

        Cached on its own: it neither reads nor fills the slice cache.
        """
        if self._N is None:
            n = len(self.labels)
            N = np.empty((n, n, n), dtype=np.int64)
            for j in range(n):
                N[:, j, :] = self._slice_of(j)
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


def anomaly_scalar(data, s, conjugate=False):
    """(Delta^{-1} D)^s for an integer framing weight s."""
    delta = gauss_sum_delta(data, conjugate=conjugate)
    if abs(delta) <= data.tol:
        raise InvalidModularData("Gauss sum vanishes within tolerance; anomaly undefined")
    return (global_D(data) / delta) ** int(s)


def _integer_tolerance(atol, scale):
    """Allowed |sum - round(sum)|, elementwise, for terms of total magnitude `scale`.

    Float error scales with the terms, which for negative S_{0r} powers dwarf the sum.
    """
    return np.minimum(np.maximum(atol, 5e-12 * scale), 0.45)


def verlinde_fusion(data, atol=None):
    """Fusion multiplicities N_{ij}^k = sum_r S_{ir} S_{jr} conj(S_{kr}) / S_{0r}.

    Every entry must round to a nonnegative integer within `atol`
    (default: `data.tol`), and the handle operator S diag(S_{0r}^{-2}) S^dagger
    to integers within :func:`_integer_tolerance`; otherwise
    :class:`NonIntegralFusion` is raised, which signals that (S, theta) is
    not valid modular data.  The sum is symmetric in i and j, so the check
    visits each coefficient once, with i <= j, one row block at a time, and
    keeps none of them: the returned :class:`FusionTensor` rounds a slice
    again when it is first read.
    """
    if atol is None:
        atol = data.tol
    S = data.S
    z = data.index(data.zero)
    row0 = S[z, :]
    if np.min(np.abs(row0)) <= data.tol:
        raise NonIntegralFusion("a unit-row S entry vanishes; Verlinde sum undefined")
    n = data.n
    Sct = S.conj().T
    dev = 0.0
    lowest, where = 0, None
    for i in range(n):
        raw = (S[i:] * (S[i] / row0)) @ Sct  # raw[j - i, k] = N_{ij}^k for j >= i
        rounded = np.round(raw.real)
        dev = max(dev, float(np.max(np.abs(raw - rounded))))
        low = rounded.min()
        if low < lowest:
            j, k = np.unravel_index(int(np.argmin(rounded)), rounded.shape)
            lowest, where = int(low), (i, i + int(j), int(k))
    if dev > atol:
        raise NonIntegralFusion(f"fusion coefficients deviate from integers by {dev:.3e} > {atol:.3e}")
    if where is not None:
        i, j, k = where
        raise NonIntegralFusion(
            f"negative fusion coefficient {lowest} at "
            f"({data.labels[i]}, {data.labels[j]}, {data.labels[k]})"
        )
    weight = row0**-2
    raw = (S * weight) @ Sct
    rounded = np.round(raw.real)
    scale = (np.abs(S) * np.abs(weight)) @ np.abs(S).T
    dev = np.abs(raw - rounded)
    if np.any(dev > _integer_tolerance(atol, scale)):
        raise NonIntegralFusion(f"handle operator deviates from integers by up to {dev.max():.3e}")

    def slice_of(j):
        return np.round(((S * (S[j] / row0)) @ Sct).real).astype(np.int64)

    return FusionTensor(data.labels, slice_of, rounded.astype(np.int64))


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
