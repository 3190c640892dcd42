"""The grading group of modular data and its characters, computed exactly.

The universal grading group U is the finest grading of the labels that
fusion respects: a character of U is a function mu on labels with
mu(i) mu(j) = mu(k) whenever N_ij^k > 0.  For modular data U is dual to
the group G of invertible labels, those i with i (x) dual(i) simple
(Gelaki-Nikshych, "Nilpotent fusion categories", 2008): every character
of U is the monodromy charge i -> S_gi S_00 / (S_0g S_0i) of exactly one
g in G.  :func:`dual_group` therefore reads only the simple-current layer
that :func:`~modfunctor.modular_data.current_layer` finds and certifies
by the simple-current identity (I): G's multiplication table, from the
label permutations sigma_g (``CurrentLayer.currents``), and the integer
charges of its members (``CurrentLayer.charges``).  It reads neither S
nor any Verlinde sum: no fusion slice, no handle, and never the full
fusion support.  A :class:`~modfunctor.modular_data.FusionTensor` keeps
the same layer, so it serves as well.
The integer Smith normal form that presents the group, and whose left
transform spans the kernel behind the certificate below, is computed in
place in Python ints with sympy's pivot steps in sympy's order, and only
its invariant factors and left transform are formed; sympy is needed
only by the tests.  Character
values are rationals mod 1 (the exponent of e^{2 pi i x}), stored as
:class:`fractions.Fraction`, so everything downstream is exact.

The main consumer is :func:`find_fundamental_symplectic_character`, which
looks for a character that is -1 exactly on the symplectic (self-dual,
indicator -1) labels and +1 on the remaining self-dual ones.  When no
such character exists the returned certificate names an integer
combination of the constraints that every character satisfies but the
targets do not, which any skeptical caller can re-verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .modular_data import InvalidModularData, ScaleLimit, fs_indicators
from .surfaces import state_dim

__all__ = [
    "GroupCharacter",
    "DualGroupPresentation",
    "InfeasibilityCertificate",
    "dual_group",
    "generator_characters",
    "find_fundamental_symplectic_character",
    "vanishing_check",
]

_ENUM_CAP = 10**6


@dataclass(frozen=True)
class GroupCharacter:
    """Label-indexed character with values in Q/Z, stored as Fractions in [0, 1)."""

    values: dict

    def __post_init__(self):
        object.__setattr__(
            self, "values", {k: Fraction(v) % 1 for k, v in dict(self.values).items()}
        )

    def __call__(self, label):
        return self.values[label]

    def phase(self, label):
        """The unit-modulus scalar e^{2 pi i value}."""
        import cmath

        v = self.values[label]
        return cmath.exp(2j * cmath.pi * v.numerator / v.denominator)


@dataclass(frozen=True)
class DualGroupPresentation:
    """Finite abelian presentation of the grading group with label images.

    invariant_factors : cyclic orders > 1, divisibility order.
    label_image : label -> coordinates, one per invariant factor.
    """

    labels: tuple
    invariant_factors: tuple
    label_image: dict

    @property
    def torsion_order(self):
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Witness that no character meets the self-duality targets.

    `coefficients` maps self-dual labels to integers z_s such that
    sum_s z_s chi(s) is an integer for every character chi of the
    presentation, while sum_s z_s target_s = `target_sum` is not.
    """

    coefficients: dict
    target_sum: Fraction


def _gcdext(a, b):
    """(x, y, g) with x a + y b = g = gcd(a, b) >= 0, by Euclid on |a|, |b|."""
    if not a or not b:
        g = abs(a) or abs(b)
        return (a // g, b // g, g) if g else (0, 0, 0)
    x_sign, a = (-1, -a) if a < 0 else (1, a)
    y_sign, b = (-1, -b) if b < 0 else (1, b)
    x, r, y, s = 1, 0, 0, 1
    while b:
        q, c = divmod(a, b)
        a, b = b, c
        x, r = r, x - q * r
        y, s = s, y - q * s
    return x * x_sign, y * y_sign, a


def _mix_rows(m, i, j, a, b, c, d):
    """Rows (i, j) of m become (a row_i + b row_j, c row_i + d row_j)."""
    for k, (e, f) in enumerate(zip(m[i], m[j])):
        m[i][k], m[j][k] = a * e + b * f, c * e + d * f


def _mix_columns(m, i, j, a, b, c, d):
    """Columns (i, j) of m become (a col_i + b col_j, c col_i + d col_j)."""
    for row in m:
        e, f = row[i], row[j]
        row[i], row[j] = a * e + b * f, c * e + d * f


def _smith(matrix):
    """(invariants, left) of an integer matrix m: left @ m = diag(invariants) @ R^-1.

    `invariants` is a tuple of min(rows, cols) nonnegative Python ints, each
    dividing the next (zeros last); `left` is a unimodular object array of
    Python ints.  R is a unimodular right transform that is never formed.

    sympy's recursive ``_smith_normal_decomp`` over ZZ, the same steps in the
    same order, in place on one matrix and one left transform.  The forward
    pass runs sympy's level t for t = 0, 1, ...: clear row t and column t,
    make pivot t nonnegative.  The backward pass runs t downwards, as the
    recursion returns, and sorts the pivots into invariant factors.  Rows
    above t and columns left of t are zero off the diagonal, so whole-row and
    whole-column steps move only zeros outside the trailing submatrix, and
    the inner levels' row steps on rows t + 1 onward of left give sympy's
    (1 (+) inner left) left.  No step reads the right transform, so left
    equals sympy's entry for entry.
    """
    rows, cols = matrix.shape
    m = [[int(x) for x in row] for row in matrix]
    left = [[int(a == b) for b in range(rows)] for a in range(rows)]
    size = min(rows, cols)

    def reduce(t, line, count, mix, targets):
        # make line(j) zero for j > t by unimodular mixes with line t
        pivot = m[t][t]
        for j in range(t + 1, count):
            entry = line(j)
            if entry == 0:
                continue
            q, r = divmod(entry, pivot)
            if r == 0:
                coeffs = (1, 0, -q, 1)
            else:
                x, y, g = _gcdext(pivot, entry)
                coeffs = (x, y, entry // g, -(pivot // g))
                pivot = g
            for target in targets:
                mix(target, t, j, *coeffs)

    for t in range(size):
        if m[t][t] == 0:
            # a nonzero pivot from column t by a row swap, else from row t by a column swap
            i = next((i for i in range(t + 1, rows) if m[i][t] != 0), None)
            j = next((j for j in range(t + 1, cols) if m[t][j] != 0), None)
            if i is not None:
                m[t], m[i] = m[i], m[t]
                left[t], left[i] = left[i], left[t]
            elif j is not None:
                for row in m:
                    row[t], row[j] = row[j], row[t]
        while any(m[t][t + 1 :]) or any(row[t] for row in m[t + 1 :]):
            reduce(t, lambda j: m[j][t], rows, _mix_rows, (m, left))
            reduce(t, lambda j: m[t][j], cols, _mix_columns, (m,))
        if m[t][t] < 0:
            m[t][t] = -m[t][t]
            left[t] = [-e for e in left[t]]

    invs = []
    for t in reversed(range(size)):
        if m[t][t] == 0:
            # a zero pivot goes last
            invs.append(0)
            left[t:] = left[t + 1 :] + left[t : t + 1]
            continue
        invs.insert(0, m[t][t])
        # the pivot need not divide the rest: move gcd forward, lcm back
        for i in range(len(invs) - 1):
            a, b = invs[i], invs[i + 1]
            if b == 0 or b % a == 0:
                break
            x, _y, d = _gcdext(a, b)
            alpha = a // d
            _mix_rows(left, t + i, t + i + 1, 1, 0, x, 1)
            _mix_rows(left, t + i, t + i + 1, 1, -alpha, 0, 1)
            _mix_rows(left, t + i, t + i + 1, 0, 1, -1, 0)
            invs[i], invs[i + 1] = d, b * alpha
    return tuple(invs), np.array(left, dtype=object).reshape(rows, rows)


def dual_group(data, layer):
    """Present the grading group as the dual of the group G of invertible labels.

    For modular data the universal grading group is dual to G
    (Gelaki-Nikshych), and g in G acts on it as the character given by the
    monodromy charge exp(2 pi i q_g(i) / |G|) = S_gi S_00 / (S_0g S_0i).  A
    Smith form of G's multiplication relations e_g + e_h - e_gh gives the
    invariant factors d_j and a basis g_j of G; label i then has
    coordinates q_{g_j}(i) d_j / |G| mod d_j.  The invariant factors are
    canonical; the images are canonical only up to an automorphism of the
    group.  G, its multiplication g h = sigma_g(h) and the integer charges
    q_g are ``layer.currents`` and ``layer.charges``, which
    :func:`~modfunctor.modular_data.current_layer` found and certified by
    (I); `layer` is any object that has them, a
    :class:`~modfunctor.modular_data.FusionTensor` too.  Neither S nor any
    slice is read.

    Raises :class:`InvalidModularData`, naming both labels, when a charge
    of g_j is not a d_j-th root of unity, i.e. |G| does not divide
    q_{g_j}(i) d_j.
    """
    group = sorted(layer.currents)
    pos = {g: a for a, g in enumerate(group)}
    rels = np.zeros((len(group) ** 2, len(group)), dtype=np.int64)
    for r, (g, h) in enumerate(product(group, group)):
        rels[r, pos[g]] += 1
        rels[r, pos[h]] += 1
        rels[r, pos[int(layer.currents[g][h])]] -= 1
    invs, left = _smith(rels.T)
    kept = [a for a, d in enumerate(invs) if d > 1]
    factors = tuple(invs[a] for a in kept)
    by_coords = {tuple(int(left[a, pos[g]]) % d for a, d in zip(kept, factors)): g for g in group}
    columns = []
    for j, d in enumerate(factors):
        g = by_coords[tuple(int(a == j) for a in range(len(factors)))]
        k, off = np.divmod(layer.charges[g] * d, len(group))
        if off.any():
            i = int(off.argmax())
            raise InvalidModularData(
                f"monodromy charge of {data.labels[g]!r} on {data.labels[i]!r} is "
                f"exp(2 pi i {layer.charges[g][i]}/{len(group)}), not a {d}-th root of unity"
            )
        columns.append(k.tolist())  # q in [0, |G|), so k in [0, d)
    image = {lab: tuple(col[i] for col in columns) for i, lab in enumerate(data.labels)}
    return DualGroupPresentation(labels=data.labels, invariant_factors=factors, label_image=image)


def _character_values(pres, coords):
    """(e, values): the characters sum_j c_j v_j / d_j mod 1 of the coordinate rows, as integers over e.

    e = lcm(d_j) is the exponent of the group; values[t, i] is e times the
    value of the character of row t of `coords` on label i.
    """
    exponent = math.lcm(*pres.invariant_factors)
    weights = coords * np.array([exponent // d for d in pres.invariant_factors], dtype=np.int64)
    image = np.array([pres.label_image[lab] for lab in pres.labels], dtype=np.int64)  # (n, 0) on G = {0}
    return exponent, weights @ image.T % exponent


def _character(pres, exponent, values):
    """The character with integer values over `exponent`, in label order."""
    return GroupCharacter({lab: Fraction(v, exponent) for lab, v in zip(pres.labels, values)})


def generator_characters(pres):
    """One character per invariant factor: the charge of basis element g_j of G."""
    exponent, values = _character_values(pres, np.eye(len(pres.invariant_factors), dtype=np.int64))
    return [_character(pres, exponent, row) for row in values.tolist()]


def _indicator_targets(data):
    """Required character values on self-dual labels: 1/2 on symplectic, 0 otherwise."""
    return {
        lab: Fraction(1, 2) if nu == -1 else Fraction(0)
        for i, (lab, nu) in enumerate(fs_indicators(data).items())
        if data.dual_index(i) == i
    }


def find_fundamental_symplectic_character(data, pres):
    """Character that is -1 exactly on symplectic labels, or a certificate.

    `pres` is :func:`dual_group` of `data`.  Takes the values of every
    character of the (small) torsion part in one integer product over the
    exponent, keeps the solutions and returns the one whose value tuple in
    label order is lexicographically smallest; with no symplectic labels
    this is the identity.  When no character fits, an
    :class:`InfeasibilityCertificate` is constructed from the kernel lattice
    of the constraint map and verified before being returned.
    """
    if pres.torsion_order > _ENUM_CAP:
        raise ScaleLimit(f"character enumeration over order {pres.torsion_order} exceeds cap")
    targets = _indicator_targets(data)
    coords = np.indices(pres.invariant_factors).reshape(len(pres.invariant_factors), pres.torsion_order).T
    exponent, values = _character_values(pres, coords)
    # a value v over the exponent e meets the target p/q exactly when v q = p e
    want = [Fraction(t) for t in targets.values()]
    cols = [data.index(lab) for lab in targets]
    q = np.array([t.denominator for t in want], dtype=np.int64)
    p = np.array([t.numerator for t in want], dtype=np.int64)
    fits = values[(values[:, cols] * q == p * exponent).all(axis=1)]
    if len(fits):
        return _character(pres, exponent, min(map(tuple, fits.tolist())))
    return _build_certificate(pres, targets)


def _build_certificate(pres, targets):
    """Integer combination of the target congruences no character can satisfy."""
    slabels = sorted(targets)
    nfac = len(pres.invariant_factors)
    V = np.array([[pres.label_image[s][j] for j in range(nfac)] for s in slabels], dtype=np.int64)
    D = np.diag(np.array(pres.invariant_factors, dtype=np.int64))
    # kernel lattice of z -> (z^T V mod d_j): integer kernel of [V^T | diag(d)],
    # spanned by the rows of the left transform of its transpose past the rank
    invs, left = _smith(np.hstack([V.T, D]).T)
    rank = sum(1 for d in invs if d)
    for vec in left[rank:]:
        z = [int(x) for x in vec[: len(slabels)]]
        sm = sum(Fraction(zi) * targets[s] for zi, s in zip(z, slabels))
        if sm % 1 != 0:
            cert = InfeasibilityCertificate(
                coefficients={s: zi for zi, s in zip(z, slabels) if zi},
                target_sum=sm % 1,
            )
            _verify_certificate(pres, cert)
            return cert
    raise InvalidModularData("search found no character yet no certificate exists")


def _verify_certificate(pres, cert):
    """Check sum_s z_s chi(s) is an integer for every generator character."""
    for chi in generator_characters(pres):
        total = sum(Fraction(z) * chi(s) for s, z in cert.coefficients.items())
        if total % 1 != 0:
            raise InvalidModularData("infeasibility certificate failed verification")


def vanishing_check(data, fusion, chi, a):
    """True iff: the label character-sum being nonzero forces a zero state space.

    For a character chi of the grading group, sum_l chi(i_l) != 0 in Q/Z
    must imply state_dim(data, fusion, a) = 0; the check reports that
    implication for one surface (vacuously true when the sum vanishes).
    """
    total = sum((chi(lab) for lab in a.labels()), Fraction(0)) % 1
    if total == 0:
        return True
    return state_dim(data, fusion, a) == 0
