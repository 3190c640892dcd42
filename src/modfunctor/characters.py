"""The grading group of modular data and its characters, computed exactly.

The universal grading group U is the finest grading of the labels that
fusion respects: a character of U is a function mu on labels with
mu(i) mu(j) = mu(k) whenever N_ij^k > 0.  For modular data U is dual to
the group G of invertible labels, those i with i (x) dual(i) simple
(Gelaki-Nikshych, "Nilpotent fusion categories", 2008): every character
of U is the monodromy charge i -> S_gi S_00 / (S_0g S_0i) of exactly one
g in G.  :func:`dual_group` therefore reads only G's multiplication
table, from the fusion slices of the labels with |dim| = 1, and |G| rows
of S, never the full fusion support.  Character values are rationals
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

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .modular_data import (
    InvalidModularData,
    ScaleLimit,
    fs_indicator,
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


def _smith(matrix):
    """(diag, left, right) of an integer matrix with diag = left @ m @ right."""
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_decomp

    snf, left, right = smith_normal_decomp(Matrix(matrix.tolist()), ZZ)
    return (
        np.array(snf.tolist(), dtype=object),
        np.array(left.tolist(), dtype=object),
        np.array(right.tolist(), dtype=object),
    )


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
    vals = {}
    for lab in pres.labels:
        img = pres.label_image[lab]
        total = Fraction(0)
        for c, v, d in zip(coords, img, pres.invariant_factors):
            total += Fraction(c * v, d)
        vals[lab] = total % 1
    return GroupCharacter(vals)


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
    targets = {}
    for i, lab in enumerate(data.labels):
        if data.dual_index(i) != i:
            continue
        nu = fs_indicator(data, lab)
        targets[lab] = Fraction(1, 2) if nu == -1 else Fraction(0)
    return targets


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
    best = None
    best_coords = None
    for coords in product(*[range(d) for d in pres.invariant_factors]):
        ok = True
        for lab, want in targets.items():
            img = pres.label_image[lab]
            total = Fraction(0)
            for c, v, d in zip(coords, img, pres.invariant_factors):
                total += Fraction(c * v, d)
            if total % 1 != want:
                ok = False
                break
        if ok:
            key = tuple(
                sum(
                    (Fraction(c * v, d) for c, v, d in zip(coords, pres.label_image[lab], pres.invariant_factors)),
                    Fraction(0),
                )
                % 1
                for lab in pres.labels
            )
            if best is None or key < best:
                best = key
                best_coords = coords
    if best_coords is not None:
        return _character_from_coords(pres, best_coords)
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
