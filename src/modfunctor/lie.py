"""Constructors for the built-in modular data families.

Two construction routes are provided:

* :func:`su_modular_data` builds the special-unitary family at a given
  level from Young-diagram labels, using the shifted-parts realization of
  the affine character S-matrix: each entry is a determinant of roots of
  unity read from one table by integer exponent, and one determinant
  serves each unordered pair of labels, and

* :func:`simple_lie_modular_data` builds the same kind of data for any
  simple type of rank <= 4 by summing over the full Weyl group.

Both produce a :class:`~modfunctor.modular_data.ModularData` whose
S-matrix is exactly unitary up to floating point roundoff and whose first
row is real positive.  In addition this module knows the combinatorial
side of the special-unitary family (Young-diagram labels and their
transpose-complement duality).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .modular_data import DEFAULT_TOL, InvalidModularData, ModularData, ScaleLimit

__all__ = [
    "YoungDiagram",
    "young_label",
    "parse_young_label",
    "su_level_labels",
    "young_dagger",
    "su_modular_data",
    "LieData",
    "weight_label",
    "alcove_weights",
    "simple_lie_modular_data",
]

_SU_MAX_N = 6
_SU_MAX_K = 8
_LIE_TERM_CAP = 10**7


# ---------------------------------------------------------------------------
# Young diagrams and the special-unitary label set


@dataclass(frozen=True, order=True)
class YoungDiagram:
    """Partition with weakly decreasing positive rows; the empty tuple is the unit."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if any(r <= 0 for r in rows):
            raise InvalidModularData(f"rows must be positive: {rows}")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise InvalidModularData(f"rows must be weakly decreasing: {rows}")

    @property
    def size(self):
        """Number of boxes."""
        return sum(self.rows)

    def __str__(self):
        return young_label(self)


def young_label(diagram):
    """Canonical label string: row lengths joined by '.', the empty diagram is "0"."""
    if not diagram.rows:
        return "0"
    return ".".join(str(r) for r in diagram.rows)


def parse_young_label(text):
    """Inverse of :func:`young_label`."""
    text = text.strip()
    if text == "0":
        return YoungDiagram(())
    try:
        rows = tuple(int(p) for p in text.split("."))
    except ValueError:
        raise InvalidModularData(f"cannot parse diagram label {text!r}") from None
    return YoungDiagram(rows)


def su_level_labels(N, k):
    """Diagrams with fewer than N rows and first row at most k.

    Sorted by size then lexicographically by rows; the unit (empty diagram)
    comes first.  The count is binomial(N - 1 + k, k).
    """
    if N < 2:
        raise InvalidModularData("N must be at least 2")
    if k < 0:
        raise InvalidModularData("level must be nonnegative")
    out = []

    def extend(prefix, biggest):
        out.append(YoungDiagram(tuple(prefix)))
        if len(prefix) == N - 1:
            return
        for p in range(1, min(biggest, k) + 1):
            extend(prefix + [p], p)

    extend([], k)
    out.sort(key=lambda d: (d.size, d.rows))
    return out


def young_dagger(N, diagram):
    """Duality on diagrams: complement in the lambda_1 x N box, rows reversed.

    Row r of the result is lambda_1 - lambda_{N+1-r} (missing rows read as 0,
    zero rows dropped).  Involutive, and size(d) + size(dagger) = N * lambda_1.
    """
    rows = diagram.rows
    if len(rows) >= N:
        raise InvalidModularData(f"{rows} has too many rows for N={N}")
    if not rows:
        return diagram
    top = rows[0]
    full = list(rows) + [0] * (N - len(rows))
    out = tuple(top - full[N - 1 - r] for r in range(N))
    return YoungDiagram(tuple(r for r in out if r > 0))


# ---------------------------------------------------------------------------
# Special-unitary modular data via shifted parts


def _su_weight_vectors(N, labels):
    """Shifted-parts vectors lambda + rho in the N-coordinate model, as int64."""
    X = np.zeros((len(labels), N), dtype=np.int64)
    for a, lam in enumerate(labels):
        X[a, : len(lam.rows)] = lam.rows
    return X + np.arange(N - 1, -1, -1, dtype=np.int64)


def _roots_of_unity(m, sign):
    """e^{sign 2 pi i r/m} for r = 0..m-1, indexed by the residue r.

    Evaluated in long double and rounded once, so where long double is wider
    than double (x86-64 Linux) each entry is the nearest double
    (e^{2 pi i/3} has real part exactly -1/2).  Where long double is plain
    double (Windows, macOS on arm64) the entries carry ordinary double
    rounding, and S may come out a few ulp less unitary than that.
    """
    angle = (sign * 2 * np.arccos(np.longdouble(-1)) / m) * np.arange(m, dtype=np.longdouble)
    return np.cos(angle).astype(float) + 1j * np.sin(angle).astype(float)


def _normalize_s(raw):
    """Scale a proportional S-matrix to the unitary one with positive first row."""
    phase = raw[0, 0] / abs(raw[0, 0])
    flat = raw / phase
    S = flat / np.linalg.norm(flat[0])
    if np.max(np.abs(S[0].imag)) > 1e-8 or np.min(S[0].real) <= 0:
        raise InvalidModularData("first S row is not positive; labels outside the level alcove?")
    return S


def su_modular_data(N, k, tol=DEFAULT_TOL):
    """Modular data of the special-unitary family of rank N at level k.

    Labels are Young diagrams (see :func:`su_level_labels`), the dual map is
    :func:`young_dagger`, twists are e^{pi i <lambda, lambda+2 rho>/(k+N)} and
    the S-matrix entries are Weyl-group alternating sums, each an N x N
    determinant of kappa-th roots of unity e^{-2 pi i l_i m_j/kappa}
    (kappa = k + N, l and m the integer vectors lambda + rho and mu + rho)
    read from one table by the exponent l_i m_j mod kappa.  S is symmetric,
    so one determinant serves each unordered pair of labels.  Desk scale
    only: N <= 6, k <= 8.
    """
    if not (2 <= N <= _SU_MAX_N):
        raise ScaleLimit(f"N={N} outside supported range 2..{_SU_MAX_N}")
    if not (0 <= k <= _SU_MAX_K):
        raise ScaleLimit(f"level {k} outside supported range 0..{_SU_MAX_K}")
    labels = su_level_labels(N, k)
    n = len(labels)
    kappa = k + N
    X = _su_weight_vectors(N, labels)
    sums = X.sum(axis=1)
    roots = _roots_of_unity(kappa, -1)
    raw = np.empty((n, n), dtype=complex)
    # det[ e^{-2 pi i l_a m_b / kappa} ] for a <= b, assembled in chunks of
    # pairs to bound the (chunk, N, N) workspace, then mirrored
    rows, cols = np.triu_indices(n)
    chunk = max(1, int(2e6 // (N * N)))
    for start in range(0, len(rows), chunk):
        a, b = rows[start : start + chunk], cols[start : start + chunk]
        dets = np.linalg.det(roots[(X[a, :, None] * X[b, None, :]) % kappa])
        raw[a, b] = dets
        raw[b, a] = dets
    # traceless-projection prefactor e^{2 pi i |l| |m| / (N kappa)}
    raw *= _roots_of_unity(N * kappa, 1)[np.outer(sums, sums) % (N * kappa)]
    S = _normalize_s(raw)

    # theta = e^{2 pi i r/m} with m = 2 N kappa and r = N <lambda, lambda + 2 rho>
    # in the traceless projection, the integer N (|l|^2 - |rho|^2) -
    # |lambda| (|lambda| + N (N - 1)) for l = lambda + rho, reduced to |r| <= m/2
    # so the float angle is at most pi; the unit label comes first, so X[0] = rho.
    # Not read from _roots_of_unity: its separately rounded cos and sin leave
    # |theta| an ulp off 1 on some families where this route gives exactly 1
    rho = X[0]
    size = sums - rho.sum()
    m = 2 * N * kappa
    r = (N * ((X * X).sum(axis=1) - rho @ rho) - size * (size + N * (N - 1))) % m
    phases = np.exp((2j * np.pi / m) * np.where(2 * r > m, r - m, r))
    theta = {young_label(lam): complex(t) for lam, t in zip(labels, phases)}

    names = [young_label(lam) for lam in labels]
    dual = {young_label(lam): young_label(young_dagger(N, lam)) for lam in labels}
    return ModularData(names, "0", dual, S, theta, tol=tol)


# ---------------------------------------------------------------------------
# General simple types


_CLASSICAL_WEYL_ORDER = {
    "A": lambda r: math.factorial(r + 1),
    "B": lambda r: 2**r * math.factorial(r),
    "C": lambda r: 2**r * math.factorial(r),
    "D": lambda r: 2 ** (r - 1) * math.factorial(r),
    "F": lambda r: 1152,
    "G": lambda r: 12,
}


def _cartan_matrix(cartan_type, rank):
    """Cartan matrix A (A[i, j] = 2 <a_i, a_j>/<a_i, a_i>) and symmetrizers d_i.

    Normalization: long roots have squared length 2, so d_i = <a_i, a_i>/2 is
    1 on long and 1/2 (1/3 for the exceptional rank-2 type) on short roots.
    """
    t = cartan_type
    A = 2 * np.eye(rank, dtype=np.int64)

    def bond(i, j):
        A[i, j] = A[j, i] = -1

    if t == "A":
        if rank < 1:
            raise InvalidModularData("type A needs rank >= 1")
        for i in range(rank - 1):
            bond(i, i + 1)
        d = [Fraction(1)] * rank
    elif t == "B":
        if rank < 2:
            raise InvalidModularData("type B needs rank >= 2")
        for i in range(rank - 1):
            bond(i, i + 1)
        A[rank - 1, rank - 2] = -2
        d = [Fraction(1)] * (rank - 1) + [Fraction(1, 2)]
    elif t == "C":
        if rank < 2:
            raise InvalidModularData("type C needs rank >= 2")
        for i in range(rank - 1):
            bond(i, i + 1)
        A[rank - 2, rank - 1] = -2
        d = [Fraction(1, 2)] * (rank - 1) + [Fraction(1)]
    elif t == "D":
        if rank < 3:
            raise InvalidModularData("type D needs rank >= 3")
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
        d = [Fraction(1)] * rank
    elif t == "F":
        if rank != 4:
            raise InvalidModularData("type F needs rank 4")
        A = np.array([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -2, 2, -1], [0, 0, -1, 2]], dtype=np.int64)
        d = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 2)]
    elif t == "G":
        if rank != 2:
            raise InvalidModularData("type G needs rank 2")
        A = np.array([[2, -1], [-3, 2]], dtype=np.int64)
        d = [Fraction(1), Fraction(1, 3)]
    else:
        raise InvalidModularData(f"unknown Cartan type {cartan_type!r}")
    return A, tuple(d)


def _enumerate_weyl(A):
    """All Weyl elements as integer matrices on weight coordinates, with signs.

    The simple reflection s_i acts by x -> x - x_i * alpha_i where alpha_i is
    column i of the Cartan matrix; closure under left multiplication
    enumerates the whole group.
    """
    rank = A.shape[0]
    gens = []
    for i in range(rank):
        M = np.eye(rank, dtype=np.int64)
        M[:, i] -= A[:, i]
        gens.append(M)
    eye = np.eye(rank, dtype=np.int64)
    seen = {eye.tobytes(): None}
    elements = [(eye, 1)]
    frontier = [(eye, 1)]
    while frontier:
        nxt = []
        for M, sgn in frontier:
            for g in gens:
                M2 = g @ M
                key = M2.tobytes()
                if key not in seen:
                    seen[key] = None
                    item = (M2, -sgn)
                    elements.append(item)
                    nxt.append(item)
        frontier = nxt
    return elements


class LieData:
    """Root-system data of one simple type, with the Weyl group fully enumerated.

    Rank is at most 4; a larger rank raises :class:`ScaleLimit` at once.

    Attributes
    ----------
    cartan_type, rank, level : the defining parameters.
    cartan : (r, r) integer Cartan matrix.
    symmetrizers : tuple of Fractions d_i with <a_i, a_i> = 2 d_i.
    form : (r, r) float matrix of <omega_i, omega_j>; weights are always
        written in fundamental-weight (Dynkin label) coordinates.
    rho : the all-ones weight.
    weyl : list of (matrix, sign) pairs covering the whole group.
    longest : matrix of the longest element.
    marks, comarks : expansion of the highest root over simple roots and
        coroots; dual_coxeter = 1 + sum(comarks).
    """

    def __init__(self, cartan_type, rank, level):
        cartan_type = str(cartan_type).upper()
        rank = int(rank)
        level = int(level)
        if level < 0:
            raise InvalidModularData("level must be nonnegative")
        if rank > 4:  # before the Weyl group is enumerated
            raise ScaleLimit("general constructor limited to rank <= 4")
        self.cartan_type = cartan_type
        self.rank = rank
        self.level = level
        self.cartan, self.symmetrizers = _cartan_matrix(cartan_type, rank)
        dv = np.array([float(x) for x in self.symmetrizers])
        self.form = np.diag(dv) @ np.linalg.inv(self.cartan)
        self.rho = np.ones(rank)
        expected = _CLASSICAL_WEYL_ORDER[cartan_type](rank)
        self.weyl = _enumerate_weyl(self.cartan)
        if len(self.weyl) != expected:
            raise InvalidModularData(
                f"enumerated {len(self.weyl)} Weyl elements, classical order is {expected}"
            )
        self.longest = next(
            M for M, _ in self.weyl if np.array_equal(M @ np.ones(rank, dtype=np.int64), -np.ones(rank, dtype=np.int64))
        )
        self.marks, self.comarks = self._highest_root_marks()
        self.dual_coxeter = 1 + sum(self.comarks)
        if self.dual_coxeter.denominator != 1:
            raise InvalidModularData("comarks do not sum to an integer")
        self.dual_coxeter = int(self.dual_coxeter)

    def _highest_root_marks(self):
        roots = set()
        for M, _ in self.weyl:
            for i in range(self.rank):
                roots.add(tuple((M @ self.cartan[:, i]).tolist()))
        inv = np.linalg.inv(self.cartan)
        best = None
        for rt in roots:
            coeff = inv @ np.array(rt, dtype=float)
            ints = np.rint(coeff)
            if np.max(np.abs(coeff - ints)) > 1e-9 or np.min(ints) < 0:
                continue
            if best is None or ints.sum() > best.sum():
                best = ints
        marks = tuple(int(x) for x in best)
        comarks = tuple(m * d for m, d in zip(marks, self.symmetrizers))
        return marks, comarks

    def inner(self, x, y):
        """Invariant form on weights in Dynkin coordinates."""
        return float(np.asarray(x, dtype=float) @ self.form @ np.asarray(y, dtype=float))

    def dual_weight(self, weight):
        """Duality -w0(weight) in Dynkin coordinates."""
        v = -(self.longest @ np.array(weight, dtype=np.int64))
        return tuple(int(x) for x in v)

    def __repr__(self):
        return f"LieData({self.cartan_type}{self.rank}, level={self.level})"


def weight_label(weight):
    """Dynkin labels joined by '.' (e.g. "1.0" for the first fundamental weight)."""
    return ".".join(str(int(a)) for a in weight)


def alcove_weights(ld):
    """Dominant weights with <lambda, theta_check> <= level.

    Sorted by that pairing value, then lexicographically by Dynkin labels.
    """
    comarks = ld.comarks
    k = Fraction(ld.level)
    out = []

    def extend(prefix, used):
        if len(prefix) == ld.rank:
            out.append(tuple(prefix))
            return
        c = comarks[len(prefix)]
        top = int((k - used) / c)
        for a in range(top + 1):
            extend(prefix + [a], used + a * c)

    extend([], Fraction(0))
    out.sort(key=lambda w: (sum(a * c for a, c in zip(w, comarks)), w))
    return out


def simple_lie_modular_data(ld, tol=DEFAULT_TOL):
    """Modular data of a simple type at its level, summed over the Weyl group.

    Limited to |W| * |labels|^2 <= 1e7 terms (and, by :class:`LieData`, to
    rank <= 4); raises :class:`ScaleLimit` beyond that.
    """
    weights = alcove_weights(ld)
    n = len(weights)
    if len(ld.weyl) * n * n > _LIE_TERM_CAP:
        raise ScaleLimit(f"{len(ld.weyl)} x {n}^2 Weyl-sum terms exceed cap {_LIE_TERM_CAP}")
    kappa = ld.level + ld.dual_coxeter
    X = np.array([np.array(w, dtype=float) + ld.rho for w in weights])
    raw = np.zeros((n, n), dtype=complex)
    for M, sgn in ld.weyl:
        Q = (X @ M.T @ ld.form) @ X.T
        raw += sgn * np.exp((-2j * np.pi / kappa) * Q)
    S = _normalize_s(raw)

    names = [weight_label(w) for w in weights]
    theta = {}
    for w, name in zip(weights, names):
        v = np.array(w, dtype=float)
        theta[name] = cmath.exp(1j * math.pi * ld.inner(v, v + 2 * ld.rho) / kappa)
    dual = {name: weight_label(ld.dual_weight(w)) for w, name in zip(weights, names)}
    zero = weight_label((0,) * ld.rank)
    return ModularData(names, zero, dual, S, theta, tol=tol)
