"""Closed forms and second routes for the Lie families, kept for the tests.

None of these is read by the library.  :func:`su_s_matrix_oracle` builds
the special-unitary S-matrix by a float exponential and a determinant
for every ordered pair of labels, and :func:`su_twist_oracle` its twists
from the float quadratic form.  :func:`su_mu_tilde` is the exact
|lambda|/N character of the special-unitary family, :func:`coupon_sign`
evaluates the duality coupon scalar from its fractional powers of q, and
:func:`lattice_fundamental_group` presents weight lattice / root lattice,
the grading group of every built-in Lie family, as the cokernel of the
Cartan matrix.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import modfunctor as mf
from modfunctor.characters import _smith


def su_s_matrix_oracle(N, k):
    """Unitary S-matrix of the rank-N family at level k, one float det per entry.

    Entry (a, b) is det[e^{-2 pi i l_i m_j/kappa}] e^{2 pi i |l| |m|/(N kappa)}
    with kappa = k + N and l, m the float vectors lambda + rho and mu + rho,
    evaluated by complex exponentials for every ordered pair; the matrix is
    then scaled to unit first row norm with S_00 > 0.
    """
    labels = mf.su_level_labels(N, k)
    n = len(labels)
    kappa = k + N
    X = np.tile(np.arange(N - 1, -1, -1, dtype=float), (n, 1))
    for a, lam in enumerate(labels):
        X[a, : len(lam.rows)] += lam.rows
    sums = X.sum(axis=1)
    raw = np.empty((n, n), dtype=complex)
    chunk = max(1, int(2e6 // (n * N * N)))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        block = np.exp((-2j * np.pi / kappa) * np.einsum("ai,bj->abij", X[start:stop], X))
        raw[start:stop] = np.linalg.det(block)
    raw *= np.exp(2j * np.pi * np.outer(sums, sums) / (N * kappa))
    raw /= raw[0, 0] / abs(raw[0, 0])
    return raw / np.linalg.norm(raw[0])


def su_twist_oracle(N, k):
    """Twists e^{pi i q/kappa} by label, q = <lambda, lambda + 2 rho> in floats.

    The form is the traceless projection of the N-coordinate one:
    q = p.(p + 2 rho) - |p| (|p| + 2 |rho|)/N for the padded parts p.
    """
    rho = np.arange(N - 1, -1, -1, dtype=float)
    out = {}
    for lam in mf.su_level_labels(N, k):
        p = np.zeros(N)
        p[: len(lam.rows)] = lam.rows
        q = p @ (p + 2 * rho) - p.sum() * (p + 2 * rho).sum() / N
        out[mf.young_label(lam)] = cmath.exp(1j * math.pi * q / (k + N))
    return out


def su_mu_tilde(N, diagram):
    """Exact value |lambda| / N in Q/Z of the dual fundamental group character."""
    return Fraction(diagram.size, N) % 1


def coupon_sign(N, k, m):
    """Duality coupon scalar for an m-row column inside the rank-N family at level k.

    With q = e^{2 pi i/(k+N)} and principal fractional powers
    a = q^{-1/(2N)}, v = q^{-N/2}, s = q^{1/2}, returns
    (-a^{-1} s)^{n m + m(m-1)} (a^{-1} v)^m for n = N - m.  The fractional
    powers cancel exactly, leaving the sign (-1)^{(N-1) m}.
    """
    if not (0 <= m <= N):
        raise mf.InvalidModularData(f"m must be in 0..{N}")
    kappa = k + N

    def qpow(r):
        return cmath.exp(2j * math.pi * r / kappa)

    a = qpow(Fraction(-1, 2 * N))
    v = qpow(Fraction(-N, 2))
    s = qpow(Fraction(1, 2))
    n = N - m
    return (-s / a) ** (n * m + m * (m - 1)) * (v / a) ** m


@dataclass(frozen=True)
class LatticeGroup:
    """Finite abelian presentation of weight lattice / root lattice.

    `invariant_factors` lists the cyclic orders > 1 in divisibility order;
    `project` maps a weight in Dynkin coordinates to its class, one
    coordinate per factor.
    """

    invariant_factors: tuple
    _transform: tuple

    def project(self, weight):
        out = []
        for row, mod in zip(self._transform, self.invariant_factors):
            out.append(sum(r * int(a) for r, a in zip(row, weight)) % mod)
        return tuple(out)

    @property
    def order(self):
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n


def lattice_fundamental_group(cartan):
    """Quotient of the weight lattice by the root lattice as a :class:`LatticeGroup`.

    Computed as the cokernel of the Cartan matrix (whose columns are the
    simple roots in weight coordinates) via Smith normal form.
    """
    rank = cartan.shape[0]
    snf, left, _right = _smith(cartan)
    diag = [abs(int(snf[i, i])) for i in range(rank)]
    kept = [i for i, x in enumerate(diag) if x > 1]
    factors = tuple(diag[i] for i in kept)
    rows = tuple(tuple(int(left[i, j]) for j in range(rank)) for i in kept)
    return LatticeGroup(invariant_factors=factors, _transform=rows)
