"""The grading group of modular data and its characters, computed exactly.

The universal grading group U is the finest grading of the labels that
fusion respects: a character of U is a function mu on labels with
mu(i) mu(j) = mu(k) whenever N_ij^k > 0.  For modular data U is dual to
the group G of invertible labels, those i with i (x) dual(i) simple
(Gelaki-Nikshych, "Nilpotent fusion categories", 2008): every character
of U is the monodromy charge i -> S_gi S_00 / (S_0g S_0i) of exactly one
g in G.  :func:`dual_group` therefore reads only G's multiplication
table, from the fusion slices of the labels with |dim| = 1, and |G| rows
of S, never the full fusion support.  The integer Smith normal form
that presents the group (and builds the certificate below) is computed
in Python ints, pivot step by pivot step as sympy computes it, so sympy
is needed only by the tests.  Character values are rationals
mod 1 (the exponent of e^{2 pi i x}), stored as :class:`fractions.Fraction`,
so everything downstream is exact.

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

from .modular_data import (
    InvalidModularData,
    ScaleLimit,
    fs_indicators,
    quantum_dims,
    verlinde_fusion,
)

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
# loose on purpose: a candidate that is not invertible costs only its slice
_INVERTIBLE_DIM_TOL = 1e-3


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


def _eye(n):
    return [[int(a == b) for b in range(n)] for a in range(n)]


def _smith_lists(m, rows, cols):
    """(invariants, left, right) for the list-of-lists integer matrix m, which is consumed.

    The pivot step of sympy's ``_smith_normal_decomp`` over ZZ, with the same
    choices at every step, so the transforms agree with sympy's exactly.
    """
    if not rows or not cols:
        return (), _eye(rows), _eye(cols)
    left, right = _eye(rows), _eye(cols)

    def reduce(line, count, mix, transform):
        # make line(j) zero for j >= 1 by unimodular mixes with line 0
        pivot = m[0][0]
        for j in range(1, count):
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
            mix(m, 0, j, *coeffs)
            mix(transform, 0, j, *coeffs)

    if m[0][0] == 0:
        # a nonzero pivot from column 0 by a row swap, else from row 0 by a column swap
        i = next((i for i in range(1, rows) if m[i][0] != 0), None)
        j = next((j for j in range(1, cols) if m[0][j] != 0), None)
        if i is not None:
            m[0], m[i] = m[i], m[0]
            left[0], left[i] = left[i], left[0]
        elif j is not None:
            for row in m + right:
                row[0], row[j] = row[j], row[0]
    while any(m[0][1:]) or any(row[0] for row in m[1:]):
        reduce(lambda j: m[j][0], rows, _mix_rows, left)
        reduce(lambda j: m[0][j], cols, _mix_columns, right)
    pivot = m[0][0]
    if pivot < 0:
        pivot = m[0][0] = -pivot
        left[0] = [-e for e in left[0]]

    invs = ()
    if rows > 1 and cols > 1:
        invs, sub_left, sub_right = _smith_lists([row[1:] for row in m[1:]], rows - 1, cols - 1)
        # left <- (1 (+) sub_left) left, right <- right (1 (+) sub_right)
        lower = list(zip(*left[1:]))
        left = [left[0]] + [[sum(x * y for x, y in zip(r, c)) for c in lower] for r in sub_left]
        inner = list(zip(*sub_right))
        right = [[r[0]] + [sum(x * y for x, y in zip(r[1:], c)) for c in inner] for r in right]
    if pivot == 0:
        # a zero pivot goes last
        left = left[1:] + left[:1]
        right = [row[1:] + row[:1] for row in right]
        return invs + (0,), left, right
    result = [pivot, *invs]
    # the pivot need not divide the rest: move gcd forward, lcm back
    for i in range(len(result) - 1):
        a, b = result[i], result[i + 1]
        if b == 0 or b % a == 0:
            break
        x, y, d = _gcdext(a, b)
        alpha, beta = a // d, b // d
        _mix_rows(left, i, i + 1, 1, 0, x, 1)
        _mix_columns(right, i, i + 1, 1, y, 0, 1)
        _mix_rows(left, i, i + 1, 1, -alpha, 0, 1)
        _mix_columns(right, i, i + 1, 1, 0, -beta, 1)
        _mix_rows(left, i, i + 1, 0, 1, -1, 0)
        result[i], result[i + 1] = d, b * alpha
    return tuple(result), left, right


def _smith(matrix):
    """(diag, left, right) of an integer matrix with diag = left @ m @ right.

    Object arrays of Python ints; left and right are unimodular and each
    diagonal entry divides the next.
    """
    rows, cols = matrix.shape
    invs, left, right = _smith_lists([[int(x) for x in row] for row in matrix], rows, cols)
    diag = np.zeros((rows, cols), dtype=object)
    for a, x in enumerate(invs):
        diag[a, a] = x
    left = np.array(left, dtype=object).reshape(rows, rows)
    return diag, left, np.array(right, dtype=object).reshape(cols, cols)


def dual_group(data, fusion):
    """Present the grading group as the dual of the group G of invertible labels.

    For modular data the universal grading group is dual to G
    (Gelaki-Nikshych), and g in G acts on it as the character given by the
    monodromy charge q_g(i) = S_gi S_00 / (S_0g S_0i).  A Smith form of
    G's multiplication relations e_g + e_h - e_gh gives the invariant
    factors d_j and a basis g_j of G; label i then has coordinates
    d_j q_{g_j}(i) mod d_j.  The invariant factors are canonical; the
    images are canonical only up to an automorphism of the group.
    G is found among the labels with |dim| = 1, each confirmed and
    multiplied by its own slice ``fusion.slice(g)``; no other slice is read.

    Raises :class:`InvalidModularData`, naming both labels, when a charge
    of g_j is not a d_j-th root of unity within `data.tol`.
    """
    # |dim g| = 1 is necessary (dim g dim g* = 1, dim g* = dim g); each
    # candidate is confirmed by its own slice: sum_k N_{g* g}^k = 1
    dims = np.abs(quantum_dims(data))
    candidates = np.flatnonzero(np.abs(dims - 1) <= _INVERTIBLE_DIM_TOL)
    group = [int(g) for g in candidates if fusion.slice(g)[data.dual_index(g)].sum() == 1]
    pos = {g: a for a, g in enumerate(group)}
    rels = np.zeros((len(group) ** 2, len(group)), dtype=np.int64)
    for r, (g, h) in enumerate(product(group, group)):
        rels[r, pos[g]] += 1
        rels[r, pos[h]] += 1
        rels[r, pos[int(np.argmax(fusion.slice(g)[h]))]] -= 1  # g h is the one k with N_hg^k = 1
    snf, left, _right = _smith(rels.T)
    kept = [a for a in range(len(group)) if abs(int(snf[a, a])) > 1]
    factors = tuple(abs(int(snf[a, a])) for a in kept)
    by_coords = {tuple(int(left[a, pos[g]]) % d for a, d in zip(kept, factors)): g for g in group}
    S, z = data.S, data.index(data.zero)
    columns = []
    for j, d in enumerate(factors):
        g = by_coords[tuple(int(a == j) for a in range(len(factors)))]
        charge = S[g] * S[z, z] / (S[z, g] * S[z])
        k = np.round(np.angle(charge) * d / (2 * np.pi))
        dev = np.abs(charge - np.exp(2j * np.pi * k / d))
        i = int(np.argmax(dev))
        if dev[i] > data.tol:
            raise InvalidModularData(
                f"monodromy charge of {data.labels[g]!r} on {data.labels[i]!r} is "
                f"{complex(charge[i]):.6g}, not a {d}-th root of unity"
            )
        columns.append([int(x) % d for x in k])
    image = {lab: tuple(col[i] for col in columns) for i, lab in enumerate(data.labels)}
    return DualGroupPresentation(labels=data.labels, invariant_factors=factors, label_image=image)


def _character_from_coords(pres, coords):
    """The character sum_j c_j v_j / d_j mod 1, summed in integers over the exponent."""
    exponent = math.lcm(*pres.invariant_factors)
    weights = [c * (exponent // d) for c, d in zip(coords, pres.invariant_factors)]
    return GroupCharacter(
        {
            lab: Fraction(sum(w * v for w, v in zip(weights, pres.label_image[lab])) % exponent, exponent)
            for lab in pres.labels
        }
    )


def generator_characters(pres):
    """One character per invariant factor: the charge of basis element g_j of G."""
    out = []
    for j, d in enumerate(pres.invariant_factors):
        coords = [0] * len(pres.invariant_factors)
        coords[j] = 1
        out.append(_character_from_coords(pres, coords))
    return out


def _indicator_targets(data):
    """Required character values on self-dual labels: 1/2 on symplectic, 0 otherwise."""
    return {
        lab: Fraction(1, 2) if nu == -1 else Fraction(0)
        for i, (lab, nu) in enumerate(fs_indicators(data).items())
        if data.dual_index(i) == i
    }


def find_fundamental_symplectic_character(data, fusion=None, pres=None):
    """Character that is -1 exactly on symplectic labels, or a certificate.

    Enumerates the (small) character group of the torsion part, keeps the
    solutions and returns the one whose value tuple in label order is
    lexicographically smallest; with no symplectic labels this is the
    identity.  When no
    character fits, an :class:`InfeasibilityCertificate` is constructed
    from the kernel lattice of the constraint map and verified before
    being returned.
    """
    if fusion is None:
        fusion = verlinde_fusion(data)
    if pres is None:
        pres = dual_group(data, fusion)
    if pres.torsion_order > _ENUM_CAP:
        raise ScaleLimit(f"character enumeration over order {pres.torsion_order} exceeds cap")
    targets = _indicator_targets(data)
    every = product(*[range(d) for d in pres.invariant_factors])
    candidates = (_character_from_coords(pres, coords) for coords in every)
    solutions = (chi for chi in candidates if all(chi(lab) == want for lab, want in targets.items()))
    best = min(solutions, key=lambda chi: [chi(lab) for lab in pres.labels], default=None)
    if best is not None:
        return best
    return _build_certificate(pres, targets)


def _build_certificate(pres, targets):
    """Integer combination of the target congruences no character can satisfy."""
    slabels = sorted(targets)
    nfac = len(pres.invariant_factors)
    V = np.array([[pres.label_image[s][j] for j in range(nfac)] for s in slabels], dtype=np.int64)
    D = np.diag(np.array(pres.invariant_factors, dtype=np.int64))
    # kernel lattice of z -> (z^T V mod d_j): integer kernel of [V^T | diag(d)]
    stacked = np.hstack([V.T, D]) if nfac else np.zeros((0, len(slabels)), dtype=np.int64)
    if stacked.size:
        snf, _left, right = _smith(stacked)
        rank = sum(1 for i in range(min(snf.shape)) if snf[i, i] != 0)
        kernel = [np.array(right[: len(slabels), j], dtype=object) for j in range(rank, right.shape[1])]
    else:
        kernel = [np.eye(len(slabels), dtype=object)[:, j] for j in range(len(slabels))]
    for vec in kernel:
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


def vanishing_check(data, chi, a, fusion=None):
    """True iff: the label character-sum being nonzero forces a zero state space.

    For a character chi of the grading group, sum_l chi(i_l) != 0 in Q/Z
    must imply state_dim(a) = 0; the check reports that implication for
    one surface (vacuously true when the sum vanishes).
    """
    from .surfaces import state_dim

    if fusion is None:
        fusion = verlinde_fusion(data)
    total = sum((chi(lab) for lab in a.labels()), Fraction(0)) % 1
    if total == 0:
        return True
    return state_dim(data, fusion, a) == 0
