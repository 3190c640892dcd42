"""Closed forms and the centre-grading oracle for the Lie families, kept for the tests.

None of these is read by the library.  :func:`su_mu_tilde` is the exact
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

import modfunctor as mf
from modfunctor.characters import _smith


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


def lattice_fundamental_group(ld):
    """Quotient of the weight lattice by the root lattice as a :class:`LatticeGroup`.

    Computed as the cokernel of the Cartan matrix (whose columns are the
    simple roots in weight coordinates) via Smith normal form.
    """
    snf, left, _right = _smith(ld.cartan)
    diag = [abs(int(snf[i, i])) for i in range(ld.rank)]
    kept = [i for i, x in enumerate(diag) if x > 1]
    factors = tuple(diag[i] for i in kept)
    rows = tuple(tuple(int(left[i, j]) for j in range(ld.rank)) for i in kept)
    return LatticeGroup(invariant_factors=factors, _transform=rows)
