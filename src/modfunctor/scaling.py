"""Scaling pairs: making duality, gluing and unitarity strictly compatible.

The pairing between the state spaces of a surface and of its orientation
reversal, and the gluing isomorphisms between cut and glued surfaces, can
each be rescaled label by label.  A :class:`ScalingPair` holds the two
families of nonzero scalars involved — `u` rescaling the gluing/duality
copairings and `w` rescaling the pairings — together with the square-root
branch chosen once per dual pair of labels, so every formula that
involves sqrt(u_i u_{i*}) or sqrt(w_i w_{i*}) is evaluated consistently.

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
    "SelfDualityData",
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
class SelfDualityData:
    """Base self-duality signs mu(i) and duality-loop scalars lambda(i).

    Defaults: mu is the self-duality indicator on self-dual labels and +1
    on non-self-dual ones; lambda is identically 1.
    """

    mu: dict
    lam: dict

    @classmethod
    def defaults(cls, data):
        mu = {lab: complex(nu) if nu != 0 else 1.0 + 0j for lab, nu in fs_indicators(data).items()}
        return cls(mu=mu, lam={lab: 1.0 + 0j for lab in data.labels})


@dataclass
class ScalingPair:
    """Scalars (u, w) per label plus square-root branches per dual pair.

    `sqrt_uu` and `sqrt_ww`, keyed by :func:`pair_key`, hold the values
    chosen for sqrt(u_i u_{i*}) and sqrt(w_i w_{i*}).  Every constructor
    fills them with the branches its construction relies on, and
    :func:`s_factor` only reads them.  A pair built from (u, w) alone
    serves every function that does not read the roots.
    """

    u: dict
    w: dict
    sqrt_uu: dict = field(default_factory=dict)
    sqrt_ww: dict = field(default_factory=dict)

    @classmethod
    def ones(cls, data):
        one = {lab: 1.0 + 0j for lab in data.labels}
        roots = {pair_key(data, lab): 1.0 + 0j for lab, _ in _dual_pairs(data)}
        return cls(u=dict(one), w=dict(one), sqrt_uu=dict(roots), sqrt_ww=dict(roots))


def _dual_pairs(data):
    """Each dual pair (i, i*) once, at its first label in label order; i == i* if self-dual."""
    for i, lab in enumerate(data.labels):
        if i <= data.dual_index(i):  # the dual is an involution, checked at load time
            yield lab, data.dual[lab]


def _sqrt_dim(data, i):
    return cmath.sqrt(quantum_dim(data, i))


def s_factor(data, sp, i):
    """The per-label scale sqrt(w_i w_{i*}) sqrt(dim i) / sqrt(u_i u_{i*})."""
    key = pair_key(data, i)
    return sp.sqrt_ww[key] * _sqrt_dim(data, i) / sp.sqrt_uu[key]


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


def mu_scaled(data, sdd, sp, i):
    """Self-duality sign after scaling: (w_i / w_{i*}) mu(i)."""
    return sp.w[i] / sp.w[data.dual[i]] * sdd.mu[i]


def solve_canonical(data, sdd):
    """Star-invariant solution of u_i = s_i^{u,w} w_i with w = 1.

    Requires mu(i) = 1 on non-self-dual labels.  Returns the pair with
    u_i = dim(i)^{1/4} (principal fourth root) and the pair roots
    filled so the defining equation holds to machine precision.
    """
    for i, lab in enumerate(data.labels):
        if data.dual_index(i) != i and abs(sdd.mu[lab] - 1) > data.tol:
            raise InvalidModularData(f"canonical solution needs mu({lab!r}) = 1 on non-self-dual labels")
    u = {lab: cmath.sqrt(_sqrt_dim(data, lab)) for lab in data.labels}
    w = {lab: 1.0 + 0j for lab in data.labels}
    keys = [pair_key(data, lab) for lab, _ in _dual_pairs(data)]
    # dim is dual-symmetric, so u is star-invariant and u_i is the pair root
    suu = {key: u[key[0]] for key in keys}
    return ScalingPair(u=u, w=w, sqrt_uu=suu, sqrt_ww=dict.fromkeys(keys, 1.0 + 0j))


def _half_phase(frac):
    """e^{pi i x} for an exact rational x."""
    return cmath.exp(1j * cmath.pi * frac.numerator / frac.denominator)


def solve_strict(data, sdd, chi):
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
    vals = {lab: Fraction(chi(lab)) % 1 for lab in data.labels}
    for i, lab in enumerate(data.labels):
        j = data.dual_index(i)
        other = data.labels[j]
        if (vals[lab] + vals[other]) % 1 != 0:
            raise InvalidModularData(f"chi({lab!r}) + chi(dual) nonzero; not a pairing character")
        if j == i:
            want = Fraction(1, 2) if abs(sdd.mu[lab] + 1) <= data.tol else Fraction(0)
            if abs(sdd.mu[lab] - 1) > data.tol and abs(sdd.mu[lab] + 1) > data.tol:
                raise InvalidModularData(f"mu({lab!r}) must be +1 or -1 on self-dual labels")
            if vals[lab] != want:
                raise InvalidModularData(
                    f"chi({lab!r}) = {vals[lab]} does not match the self-duality sign"
                )
        elif abs(sdd.mu[lab] - 1) > data.tol:
            raise InvalidModularData(f"strict solution needs mu({lab!r}) = 1 off the self-dual part")

    u, w, suu, sww = {}, {}, {}, {}
    for lab, other in _dual_pairs(data):
        key = pair_key(data, lab)
        sww[key] = 1.0 + 0j
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
    return ScalingPair(u=u, w=w, sqrt_uu=suu, sqrt_ww=sww)


def symplectic_multiplicity(data, sdd, a):
    """Number of marked points whose label is self-dual with mu = -1."""
    count = 0
    for lab in a.labels():
        if data.dual[lab] == lab and abs(sdd.mu[lab] + 1) <= data.tol:
            count += 1
    return count


def self_duality_scalar(data, sdd, sp, a):
    """Product of scaled self-duality signs over all marked points."""
    out = 1.0 + 0j
    for lab in a.labels():
        out *= mu_scaled(data, sdd, sp, lab)
    return out


def unitary_rho(data, sdd, sp, a):
    """Hermitian-compatibility scalar prod_l r_l r_{l*} / (sigma_l w_l conj(w_{l*})).

    Here r_i = sqrt(dim i)/sqrt(lambda_i u_i conj(u_i)) and
    sigma(i) = lambda_{i*} mu(i).  For the scalar of the u-normalized
    Hermitian pairing, call with a pair whose w equals its u.
    """

    def r(x):
        return _sqrt_dim(data, x) / cmath.sqrt(sdd.lam[x] * sp.u[x] * sp.u[x].conjugate())

    out = 1.0 + 0j
    for lab in a.labels():
        other = data.dual[lab]
        sigma = sdd.lam[other] * sdd.mu[lab]
        out *= r(lab) * r(other) / (sigma * sp.w[lab] * sp.w[other].conjugate())
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
