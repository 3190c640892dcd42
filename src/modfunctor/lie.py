"""Constructors for the built-in modular data families.

Two construction routes are provided:

* :func:`su_modular_data` builds the special-unitary family at a given
  level from Young-diagram labels, using the shifted-parts realization of
  the affine character S-matrix.  The Z_N simple currents split the labels
  into orbits, each represented by its least label.  An entry between two
  representatives is a determinant of roots of unity read from one
  kappa x kappa phase table, one determinant per unordered pair; every
  other entry is a representative entry times a 2N-th root of unity whose
  exponent is an integer read off the shifted parts, so S comes out
  exactly symmetric, and

* :func:`simple_lie_modular_data` builds the same kind of data for any
  simple type of rank <= 4 by summing over the full Weyl group.

Both produce a :class:`~modfunctor.modular_data.ModularData` whose
S-matrix is exactly unitary up to floating point roundoff and whose first
row is real positive; both hand it over read-only, so it is not copied.
In addition this module knows the combinatorial side of the
special-unitary family: a Young diagram is the tuple of its positive,
weakly decreasing row lengths (the empty tuple is the unit), with its
label string.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .modular_data import DEFAULT_TOL, InvalidModularData, ModularData, ScaleLimit

__all__ = [
    "young_label",
    "su_level_labels",
    "su_modular_data",
    "LieData",
    "weight_label",
    "alcove_weights",
    "simple_lie_modular_data",
]

_SU_MAX_N = 6
_SU_MAX_K = 8
_LIE_TERM_CAP = 10**7
_FILL_BLOCK = 1 << 13  # entries per block: su determinants or S fill rows, or Weyl elements of the Lie sum


# ---------------------------------------------------------------------------
# Young diagrams and the special-unitary label set


def young_label(rows):
    """Canonical label string: the positive row lengths joined by '.', the empty diagram is "0"."""
    return ".".join([str(r) for r in rows if r]) or "0"


def su_level_labels(N, k):
    """Row tuples of the diagrams with fewer than N rows and first row at most k.

    Sorted by size then lexicographically by rows; the unit (empty tuple) comes first.  The count
    is binomial(N - 1 + k, k).  Read off :func:`_su_weight_vectors`, the one enumeration.
    """
    X = _su_weight_vectors(N, k)
    return [tuple(r for r in rows if r) for rows in (X - X[0]).tolist()]


# ---------------------------------------------------------------------------
# Special-unitary modular data via shifted parts


def _su_weight_vectors(N, k):
    """Shifted-parts vectors lambda + rho of the level set, in :func:`su_level_labels` order, as int64.

    Each multiset of N - 1 rows from k..0, drawn in weakly decreasing order, is a diagram; drawn in
    descending order of rows, they are reversed and stably sorted by size.  The su build runs no numpy
    sort and no np.tri: their first calls page in code (0.13 and 0.06 MB of RSS) that small families skip.
    """
    if N < 2:
        raise InvalidModularData("N must be at least 2")
    if k < 0:
        raise InvalidModularData("level must be nonnegative")
    X = np.zeros((math.comb(N - 1 + k, k), N), dtype=np.int64)  # l_N = 0 pads the rows
    X[:, :-1] = sorted(reversed(list(combinations_with_replacement(range(k, -1, -1), N - 1))), key=sum)
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
    """Scale a proportional S-matrix, in place, to the unitary one with positive first row.

    The result is made read-only, so :class:`ModularData` takes it over without a copy.
    """
    raw /= raw[0, 0] / abs(raw[0, 0])
    raw /= np.linalg.norm(raw[0])
    if np.max(np.abs(raw[0].imag)) > 1e-8 or np.min(raw[0].real) <= 0:
        raise InvalidModularData("first S row is not positive; labels outside the level alcove?")
    raw.setflags(write=False)
    return raw


def _su_orbits(X, kappa):
    """Orbits of the shifted-parts vectors X under the Z_N simple currents.

    A vector l (strictly decreasing, l_N = 0, entries in 0..kappa-1) is
    stored as the bit set sum 2^{l_a}, so the translate (l - c) mod kappa,
    re-sorted, is that set rotated by c.  Returns (where, orbit): where[b]
    is the label whose bit set is b, and orbit[a, t] the translate of label
    a by c = X[a, t], below which lie N - 1 - t of its entries.  Row a of
    `orbit` is the whole orbit of a, with repeats at fixed points.
    """
    bits = (1 << X).sum(axis=1)
    where = np.empty(1 << kappa, dtype=np.int64)
    where[bits] = np.arange(len(X))
    b = bits[:, None]
    return where, where[((b >> X) | (b << (kappa - X))) & ((1 << kappa) - 1)]


def _su_core(Xr, kappa):
    """S up to one scalar between the r shifted parts Xr (:func:`su_modular_data`), with r (r + 1)/2 determinants."""
    res = np.arange(kappa)
    phase = _roots_of_unity(kappa, -1)[np.outer(res, res) % kappa]  # phase[l, m] = e^{-2 pi i l m/kappa}
    core = np.empty((len(Xr), len(Xr)), dtype=complex)
    i, j = np.nonzero(np.arange(len(Xr))[:, None] <= np.arange(len(Xr)))  # np.triu_indices order, no np.tri call
    step = max(1, _FILL_BLOCK // Xr.shape[1] ** 2)  # pairs per batch: at most `_FILL_BLOCK` matrix entries
    for p in range(0, len(i), step):
        a, b = i[p : p + step], j[p : p + step]
        core[a, b] = core[b, a] = np.linalg.det(phase[Xr[a, :, None], Xr[b, None, :]])
    sr = Xr.sum(axis=1)
    core *= _roots_of_unity(Xr.shape[1] * kappa, 1)[np.outer(sr, sr) % (Xr.shape[1] * kappa)]
    return core


def su_modular_data(N, k, tol=DEFAULT_TOL):
    """Modular data of the special-unitary family of rank N at level k.

    Labels are the :func:`young_label` strings of :func:`su_level_labels`
    and twists are e^{pi i <lambda, lambda+2 rho>/(k+N)}.  With
    kappa = k + N, a label is its vector l = lambda + rho of shifted parts
    (strictly decreasing, l_N = 0, entries in 0..kappa-1), and the dual of
    l is l_1 - reversed(l): the diagram's complement in its lambda_1 x N
    box, rows reversed, read on the bit set of l.
    Up to one scalar, the S entry of labels l and m is the Weyl-group
    alternating sum

        S_{lm} ~ det[e^{-2 pi i l_a m_b/kappa}] e^{2 pi i |l| |m|/(N kappa)},

    an N x N determinant of roots of unity read from one kappa x kappa
    phase table, times the traceless-projection prefactor (|l| = sum_a l_a).

    Orbits.  The simple currents send l to its translates (l - c) mod
    kappa, re-sorted, for c in l (:func:`_su_orbits`): N labels, fewer at
    fixed points.  The least label of an orbit is its representative, as
    in :func:`~modfunctor.modular_data.verlinde_fusion`.  Let x be the
    translate of the representative i by c, and w_x the number of entries
    of l_i below c.  Re-sorting moves those w_x entries, raised by kappa,
    to the front: a cyclic shift of sign (-1)^{w_x (N - w_x)}.  The shift
    by c multiplies the determinant by e^{2 pi i c |m|/kappa}, and
    |x| = |l_i| - N c + kappa w_x makes the prefactor cancel that phase
    and leave e^{2 pi i w_x |m|/N}.  So (Schellekens-Yankielowicz,
    IJMPA 5 (1990) 2903)

        S_{x,y} = (-1)^{w_x (N - w_x)} e^{2 pi i w_x |m_y|/N} S_{i,y},

    and, applied on both sides with y the translate of the representative j,

        S_{x,y} = zeta^E S_{i,j},  zeta = e^{pi i/N},
        E = N w_x (N - w_x) + N w_y (N - w_y) + 2 w_x |m_y| + 2 w_y |l_i|  (mod 2N).

    :func:`_su_core` takes the r (r + 1)/2 determinants of the pairs i <= j
    of the r representatives, in batches of at most `_FILL_BLOCK` matrix
    entries, and mirrors them.  E reads x only through its row role
    (w_x, |l_i| mod N) and y only through its column role (w_y, |m_y| mod N),
    so zeta^E is one (N^2, N^2) table of the two roles, and each row block
    of at most `_FILL_BLOCK` entries is one gather from the representatives'
    block times one from the table.  E is symmetric in x and y as an
    integer mod 2N, because |m_y| - |m_j| = kappa w_y and |l_x| - |l_i| =
    kappa w_x (mod N), so S is exactly symmetric.  Where several c give the
    same x (a fixed point) any of them is right; the least w_x is taken,
    which is 0 on the representatives themselves.
    Desk scale only: N <= 6, k <= 8.
    """
    if not (2 <= N <= _SU_MAX_N):
        raise ScaleLimit(f"N={N} outside supported range 2..{_SU_MAX_N}")
    if not (0 <= k <= _SU_MAX_K):
        raise ScaleLimit(f"level {k} outside supported range 0..{_SU_MAX_K}")
    X = _su_weight_vectors(N, k)
    n = len(X)
    kappa = k + N
    sums = X.sum(axis=1)
    where, orbit = _su_orbits(X, kappa)
    rep = orbit.min(axis=1)
    reps = np.flatnonzero(rep == np.arange(n))
    w = np.empty(n, dtype=np.int64)
    for t in range(N):  # a later column has the smaller w: the least wins, 0 on the representatives
        w[orbit[reps, t]] = N - 1 - t
    core = _su_core(X[reps], kappa)
    ws, ss = np.divmod(np.arange(N * N), N)  # role t = N w + s
    half = (N * ws * (N - ws))[:, None] + 2 * np.outer(ws, ss)  # re-sorting sign (-1)^{w (N - w)} and 2 w |m|
    table = _roots_of_unity(2 * N, 1)[(half + half.T) % (2 * N)]  # zeta^E of the docstring, by row and column role
    row_role = N * w + sums[rep] % N
    col_role = N * w + sums % N
    at = np.searchsorted(reps, rep)  # row of core for each label's representative
    raw = np.empty((n, n), dtype=complex)
    step = max(1, _FILL_BLOCK // n)
    for x0 in range(0, n, step):
        xs = slice(x0, x0 + step)
        np.multiply(core[at[xs]].take(at, axis=1), table[row_role[xs]].take(col_role, axis=1), out=raw[xs])
    S = _normalize_s(raw)

    # theta = e^{2 pi i r/m}, m = 2 N kappa, r = N <lambda, lambda + 2 rho> in the traceless projection:
    # the integer N (|l|^2 - |rho|^2) - |lambda| (|lambda| + N (N - 1)) with X[0] = rho, reduced to
    # |r| <= m/2 so the float angle is at most pi.  Not read from _roots_of_unity: its separately
    # rounded cos and sin leave |theta| an ulp off 1 on some families where this route gives exactly 1
    rho = X[0]
    size = sums - rho.sum()
    m = 2 * N * kappa
    r = (N * ((X * X).sum(axis=1) - rho @ rho) - size * (size + N * (N - 1))) % m
    phases = np.exp((2j * np.pi / m) * np.where(2 * r > m, r - m, r))

    names = [young_label(lam) for lam in (X - rho).tolist()]
    theta = dict(zip(names, phases.tolist()))
    dual = where[(1 << (X[:, :1] - X)).sum(axis=1)].tolist()  # dual(l) = l_1 - reversed(l), as a bit set
    return ModularData(names, "0", {a: names[d] for a, d in zip(names, dual)}, S, theta, tol=tol)


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
    """All Weyl elements as one (|W|, r, r) int64 stack on weight coordinates, and their signs.

    The simple reflection s_i acts by x -> x - x_i * alpha_i where alpha_i is
    column i of the Cartan matrix.  The walk is breadth first, one word
    length at a time: every generator times every element of the frontier
    in one product, in (frontier, generator) order, keeping the products not
    seen before.  An element first seen at length l has sign (-1)^l.
    """
    rank = A.shape[0]
    eye = np.eye(rank, dtype=np.int64)
    gens = eye - A.T[:, :, None] * eye[:, None, :]  # s_i = 1 - alpha_i e_i^T
    frontier = eye[None]
    seen = {eye.tobytes()}
    layers = [frontier]
    while len(frontier):
        products = np.matmul(gens[None], frontier[:, None]).reshape(-1, rank, rank)
        fresh = []
        for a, M in enumerate(products):
            key = M.tobytes()
            if key not in seen:
                seen.add(key)
                fresh.append(a)
        frontier = products[fresh]
        layers.append(frontier)
    signs = np.concatenate([np.full(len(layer), (-1) ** length) for length, layer in enumerate(layers)])
    return np.concatenate(layers), signs


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
    weyl : (|W|, r, r) int64 stack of the whole group, by word length.
    weyl_signs : (|W|,) int64 signs det(w) = +-1 of those elements.
    longest : matrix of the longest element, the one sending rho to -rho.
    comarks : expansion of the highest root's coroot over simple coroots;
        dual_coxeter = 1 + sum(comarks).
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
        self.weyl, self.weyl_signs = _enumerate_weyl(self.cartan)
        if len(self.weyl) != expected:
            raise InvalidModularData(
                f"enumerated {len(self.weyl)} Weyl elements, classical order is {expected}"
            )
        self.longest = self.weyl[(self.weyl.sum(axis=2) == -1).all(axis=1).argmax()]  # w(rho) = -rho
        self.comarks = self._highest_root_comarks()
        self.dual_coxeter = 1 + sum(self.comarks)
        if self.dual_coxeter.denominator != 1:
            raise InvalidModularData("comarks do not sum to an integer")
        self.dual_coxeter = int(self.dual_coxeter)

    def _highest_root_comarks(self):
        # every root is w(alpha_i); the highest is the positive one of largest height
        roots = (self.weyl @ self.cartan).transpose(0, 2, 1).reshape(-1, self.rank)
        coeff = roots @ np.linalg.inv(self.cartan).T
        ints = np.rint(coeff)
        ints = ints[(np.abs(coeff - ints) <= 1e-9).all(axis=1) & (ints >= 0).all(axis=1)]
        marks = ints[ints.sum(axis=1).argmax()].astype(int).tolist()
        return tuple(m * d for m, d in zip(marks, self.symmetrizers))

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
    The recursion runs in ints: comarks and level scaled by the lcm of the
    comark denominators, which scales the pairing and keeps its order.
    """
    scale = math.lcm(*(c.denominator for c in ld.comarks))
    comarks = [int(c * scale) for c in ld.comarks]
    out = []

    def extend(prefix, room):
        if len(prefix) == ld.rank:
            out.append(tuple(prefix))
            return
        c = comarks[len(prefix)]
        for a in range(room // c + 1):
            extend(prefix + [a], room - a * c)

    extend([], ld.level * scale)
    out.sort(key=lambda w: (sum(a * c for a, c in zip(w, comarks)), w))
    return out


def simple_lie_modular_data(ld, tol=DEFAULT_TOL):
    """Modular data of a simple type at its level, summed over the Weyl group.

    Limited to |W| * |labels|^2 <= 1e7 terms (and, by :class:`LieData`, to
    rank <= 4); raises :class:`ScaleLimit` beyond that.  The sum runs over
    chunks of Weyl elements of at most `_FILL_BLOCK` terms each (one element
    per chunk once n^2 passes it), added in Weyl order, so memory stays a
    few n x n arrays.
    """
    weights = alcove_weights(ld)
    n = len(weights)
    if len(ld.weyl) * n * n > _LIE_TERM_CAP:
        raise ScaleLimit(f"{len(ld.weyl)} x {n}^2 Weyl-sum terms exceed cap {_LIE_TERM_CAP}")
    kappa = ld.level + ld.dual_coxeter
    X = np.array([np.array(w, dtype=float) + ld.rho for w in weights])
    raw = np.zeros((n, n), dtype=complex)
    step = max(1, _FILL_BLOCK // (n * n))  # Weyl elements per chunk
    for w0 in range(0, len(ld.weyl), step):
        Q = (X @ ld.weyl[w0 : w0 + step].transpose(0, 2, 1) @ ld.form) @ X.T  # Q[w] = X w^T form X^T
        terms = (-2j * np.pi / kappa) * Q
        np.exp(terms, out=terms)
        terms *= ld.weyl_signs[w0 : w0 + step, None, None]
        terms[0] += raw
        # one term after another in Weyl order: read as float pairs, the Weyl
        # axis is never the inner loop, along which a reduce pairs terms up
        np.add.reduce(terms.view(float), axis=0, out=raw.view(float))
    S = _normalize_s(raw)

    names = [weight_label(w) for w in weights]
    theta = {}
    for w, name in zip(weights, names):
        v = np.array(w, dtype=float)
        theta[name] = cmath.exp(1j * math.pi * ld.inner(v, v + 2 * ld.rho) / kappa)
    dual = {name: weight_label(ld.dual_weight(w)) for w, name in zip(weights, names)}
    zero = weight_label((0,) * ld.rank)
    return ModularData(names, zero, dual, S, theta, tol=tol)
