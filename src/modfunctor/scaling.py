"""Scaling pairs: making duality, gluing and unitarity strictly compatible.

The pairing between the state spaces of a surface and of its orientation
reversal, and the gluing isomorphisms between cut and glued surfaces, can
each be rescaled label by label.  A :class:`ScalingPair` holds the two
families of nonzero scalars involved — `u` rescaling the gluing/duality
copairings and `w` rescaling the pairings — together with the square-root
branch chosen once per dual pair of labels, so every formula that
involves sqrt(u_i u_{i*}) is evaluated consistently, and the self-duality
sign mu(i) of each label.

The sign is not a choice: mu(i) is the Frobenius-Schur indicator of a
self-dual label (-1 on symplectic labels, +1 on orthogonal ones) and +1
on the others, read once from :func:`fs_indicators` by each solver.

Two solvers are provided.  :func:`solve_canonical` solves
u_i = s_i^{u,w} w_i with w = 1, giving u_i = dim(i)^{1/4} and a
self-duality scalar (-1)^(number of symplectic labels).  :func:`solve_strict`
additionally uses a fundamental symplectic character to spread the
self-duality signs over the dual pairs so that the scalar becomes +1 on
every surface with a nonzero state space.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction

from .modular_data import InvalidModularData, fs_indicators, global_D, quantum_dim

__all__ = [
    "ScalingPair",
    "pair_key",
    "s_factor",
    "pairing_normalization",
    "strict_gluing_normalization",
    "same_component_factor",
    "distinct_component_factor",
    "mu_scaled",
    "solve_canonical",
    "solve_strict",
    "symplectic_multiplicity",
    "self_duality_scalar",
    "unitary_rho",
    "z_of_label",
    "quasi_iso_gamma",
]


def pair_key(data, i):
    """Order-free key for the dual pair {i, dual(i)}."""
    j = data.dual[i]
    return (i, j) if i <= j else (j, i)


@dataclass
class ScalingPair:
    """Scalars (u, w) per label, square-root branches per dual pair, and mu.

    `sqrt_uu`, keyed by :func:`pair_key`, holds the value chosen for
    sqrt(u_i u_{i*}).  Every constructor keeps w_i w_{i*} = 1 and takes 1
    as its root, so :func:`s_factor` reads sqrt(w_i w_{i*}) as 1.  `mu`
    holds the self-duality sign of every label; both solvers fill it from
    the indicators, :meth:`ones` leaves it empty.  A pair built from
    (u, w) alone serves every function that reads neither the roots nor mu.
    """

    u: dict
    w: dict
    sqrt_uu: dict = field(default_factory=dict)
    mu: dict = field(default_factory=dict)

    @classmethod
    def ones(cls, data):
        one = {lab: 1.0 + 0j for lab in data.labels}
        roots = {pair_key(data, lab): 1.0 + 0j for lab, _ in _dual_pairs(data)}
        return cls(u=dict(one), w=dict(one), sqrt_uu=roots)


def _self_duality_signs(data):
    """mu(i): the indicator -1 on symplectic labels, +1 on every other label."""
    return {lab: -1.0 + 0j if nu == -1 else 1.0 + 0j for lab, nu in fs_indicators(data).items()}


def _dual_pairs(data):
    """Each dual pair (i, i*) once, at its first label in label order; i == i* if self-dual."""
    for i, lab in enumerate(data.labels):
        if i <= data.dual_index(i):  # the dual is an involution, checked at load time
            yield lab, data.dual[lab]


def _sqrt_dim(data, i):
    return cmath.sqrt(quantum_dim(data, i))


def s_factor(data, sp, i):
    """The per-label scale sqrt(w_i w_{i*}) sqrt(dim i) / sqrt(u_i u_{i*}), where sqrt(w_i w_{i*}) = 1."""
    return _sqrt_dim(data, i) / sp.sqrt_uu[pair_key(data, i)]


def pairing_normalization(data, sp, a):
    """Normalization scalar D^{-4g} prod_l s_l w_l, multiplied over components."""
    D = global_D(data)
    out = 1.0 + 0j
    for comp in a.components:
        out *= D ** (-4 * comp.genus)
        for p in comp.points:
            out *= s_factor(data, sp, p.label) * sp.w[p.label]
    return out


def strict_gluing_normalization(data, sp, a):
    """Normalization D^{-4g} prod_l u_l / sqrt(dim l) that telescopes under gluing.

    With this scalar in front of the pairing, gluing a dual pair of points
    multiplies the normalized pairing by exactly the same-component factor
    u_i u_{i*}/(w_i w_{i*}) * D^4/dim(i) (or its distinct-component variant
    without D^4) divided by the normalization ratio — and that quotient is
    identically 1, for every scaling pair.  (At u = w = 1 the per-label
    factor is dim^{-1/2}; the square root must sit in the denominator for
    the telescoping to close.)
    """
    D = global_D(data)
    out = 1.0 + 0j
    for comp in a.components:
        out *= D ** (-4 * comp.genus)
        for p in comp.points:
            out *= sp.u[p.label] / (_sqrt_dim(data, p.label) * sp.w[p.label])
    return out


def same_component_factor(data, sp, i):
    """Pairing jump across a same-component gluing: u_i u_{i*}/(w_i w_{i*}) D^4/dim."""
    j = data.dual[i]
    return (
        sp.u[i] * sp.u[j] / (sp.w[i] * sp.w[j]) * global_D(data) ** 4 / quantum_dim(data, i)
    )


def distinct_component_factor(data, sp, i):
    """Pairing jump when the gluing merges two components: u_i u_{i*}/(w_i w_{i*} dim)."""
    j = data.dual[i]
    return sp.u[i] * sp.u[j] / (sp.w[i] * sp.w[j]) / quantum_dim(data, i)


def mu_scaled(data, sp, i):
    """Self-duality sign after scaling: (w_i / w_{i*}) mu(i)."""
    return sp.w[i] / sp.w[data.dual[i]] * sp.mu[i]


def solve_canonical(data):
    """Star-invariant solution of u_i = s_i^{u,w} w_i with w = 1.

    Returns the pair with u_i = dim(i)^{1/4} (principal fourth root), the
    pair roots filled so the defining equation holds to machine
    precision, and mu read from the indicators.
    """
    u = {lab: cmath.sqrt(_sqrt_dim(data, lab)) for lab in data.labels}
    w = {lab: 1.0 + 0j for lab in data.labels}
    # dim is dual-symmetric, so u is star-invariant and u at the key's first label is the pair root
    suu = {pair_key(data, lab): u[min(lab, other)] for lab, other in _dual_pairs(data)}
    return ScalingPair(u=u, w=w, sqrt_uu=suu, mu=_self_duality_signs(data))


def _half_phase(frac):
    """e^{pi i x} for an exact rational x."""
    return cmath.exp(1j * cmath.pi * frac.numerator / frac.denominator)


def solve_strict(data, chi):
    """Scaling pair built from a fundamental symplectic character.

    `chi` must take 1/2 exactly on the labels with mu = -1 and 0 on the
    other self-dual labels, and satisfy chi(i) + chi(i*) = 0.  The
    construction picks square roots r_i of the character phases with
    r_{i*} = 1/r_i across each non-self-dual pair, sets w_i = r_i * sqrt(mu_i)
    (which is 1 on self-dual labels), and solves
    u_i^2 = sqrt(dim i) w_i / r_{i*} on one half of each pair with
    u_{i*} = u_i * phase(chi(i*)).  Afterwards the scaled self-duality sign
    of every label is exactly the character phase, so label tuples with a
    nonzero state space multiply to +1.
    """
    mu = _self_duality_signs(data)
    vals = {lab: Fraction(chi(lab)) % 1 for lab in data.labels}
    for lab in data.labels:
        other = data.dual[lab]
        if (vals[lab] + vals[other]) % 1 != 0:
            raise InvalidModularData(f"chi({lab!r}) + chi(dual) nonzero; not a pairing character")
        if other == lab and vals[lab] != (Fraction(1, 2) if mu[lab] == -1 else 0):
            raise InvalidModularData(f"chi({lab!r}) = {vals[lab]} does not match the self-duality sign")

    u, w, suu = {}, {}, {}
    for lab, other in _dual_pairs(data):
        key = pair_key(data, lab)
        if lab == other:
            # eta = sqrt(chi-phase) * sqrt(mu) with sqrt(mu) = 1/r -> w = 1
            w[lab] = 1.0 + 0j
            u[lab] = suu[key] = cmath.sqrt(_sqrt_dim(data, lab))
            continue
        # w = r, the chosen sqrt of the character phase (sqrt(mu) = 1 there)
        w[lab] = _half_phase(vals[lab])
        w[other] = 1.0 / w[lab]
        u[lab] = cmath.sqrt(_sqrt_dim(data, lab) * w[lab] / w[other])
        u[other] = u[lab] * w[other] ** 2
        suu[key] = u[key[0]] * w[key[1]]
    return ScalingPair(u=u, w=w, sqrt_uu=suu, mu=mu)


def symplectic_multiplicity(data, sp, a):
    """Number of marked points whose label is symplectic, i.e. has mu = -1."""
    return sum(sp.mu[lab] == -1 for lab in a.labels())


def self_duality_scalar(data, sp, a):
    """Product of scaled self-duality signs over all marked points."""
    out = 1.0 + 0j
    for lab in a.labels():
        out *= mu_scaled(data, sp, lab)
    return out


def unitary_rho(data, sp, a):
    """Hermitian-compatibility scalar prod_l r_l r_{l*} / (mu(l) w_l conj(w_{l*})).

    Here r_i = sqrt(dim i)/sqrt(u_i conj(u_i)).  For the scalar of the
    u-normalized Hermitian pairing, call with the pair's w replaced by its
    u, e.g. ``dataclasses.replace(sp, w=sp.u)``.
    """

    def r(x):
        return _sqrt_dim(data, x) / cmath.sqrt(sp.u[x] * sp.u[x].conjugate())

    out = 1.0 + 0j
    for lab in a.labels():
        other = data.dual[lab]
        out *= r(lab) * r(other) / (sp.mu[lab] * sp.w[lab] * sp.w[other].conjugate())
    return out


def z_of_label(data, i):
    """The label's closed-path scalar dim(i) / theta(i)."""
    return quantum_dim(data, i) / data.theta[i]


def quasi_iso_gamma(data, f):
    """Solve (alpha_i alpha_{i*})^2 f_i f_{i*} = 1 and return (alpha, gamma).

    The pair product alpha_i alpha_{i*} is the principal value of
    1/sqrt(f_i f_{i*}), chosen once per dual pair; gamma_i = 1/(alpha_i
    alpha_{i*} f_i) then satisfies gamma_i gamma_{i*} = 1 exactly.
    """
    for lab in data.labels:
        if f[lab] == 0:
            raise InvalidModularData(f"f({lab!r}) must be nonzero")
    alpha, gamma = {}, {}
    for lab, other in _dual_pairs(data):
        key = pair_key(data, lab)
        pairprod = 1.0 / cmath.sqrt(f[key[0]] * f[key[1]])
        if lab == other:
            alpha[lab] = cmath.sqrt(pairprod)
        else:
            alpha[key[0]] = pairprod
            alpha[key[1]] = 1.0 + 0j
        gamma[lab] = 1.0 / (pairprod * f[lab])
        gamma[other] = 1.0 / (pairprod * f[other])
    return alpha, gamma
