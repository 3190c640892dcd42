"""Closed forms and second routes for the Lie families, kept for the tests.

None of these is read by the library.  :func:`parse_young_label` reads a
diagram back from its label, and :func:`young_dagger` is the
transpose-complement duality on row tuples: the second route to the
special-unitary duals, which the library reads from bit sets.
:func:`su_s_matrix_oracle` builds the special-unitary S-matrix by a float
exponential and a determinant for every ordered pair of labels, and
:func:`su_twist_oracle` its twists from the float quadratic form.  :func:`su_mu_tilde` is the exact
|lambda|/N character of the special-unitary family, :func:`coupon_sign`
evaluates the duality coupon scalar from its fractional powers of q, and
:func:`lattice_fundamental_group` presents weight lattice / root lattice,
the grading group of every built-in Lie family, as the cokernel of the
Cartan matrix.  :func:`weyl_oracle`, :func:`highest_root_comarks_oracle`
and :func:`lie_weyl_sum_oracle` are the element-at-a-time routes that
``LieData`` and ``simple_lie_modular_data`` replace with whole-group array
steps: the breadth-first walk one product at a time, the highest root
from the set of roots one root at a time, and the Weyl sum one element at
a time.  :func:`su_level_labels_oracle` and :func:`su_modular_data_oracle`
are the special-unitary build that ``su_modular_data`` replaces with
batched determinants, a table of phases by row and column role and labels
read off one int64 array: tuple labels sorted by a Python key, one
determinant call per representative row and an integer phase exponent
filled in five n-column passes.  Both routes make the same floating-point
operations on S, so it agrees bit for bit.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

import modfunctor as mf
from modfunctor import lie
from modfunctor.characters import _smith


def parse_young_label(text):
    """Inverse of ``young_label``: the row tuple, positive and weakly decreasing."""
    text = text.strip()
    if text == "0":
        return ()
    try:
        rows = tuple(int(p) for p in text.split("."))
    except ValueError:
        raise mf.InvalidModularData(f"cannot parse diagram label {text!r}") from None
    if any(r <= 0 for r in rows):
        raise mf.InvalidModularData(f"rows must be positive: {rows}")
    if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
        raise mf.InvalidModularData(f"rows must be weakly decreasing: {rows}")
    return rows


def young_dagger(N, rows):
    """Duality on row tuples: complement in the lambda_1 x N box, rows reversed.

    Row r of the result is lambda_1 - lambda_{N+1-r} (missing rows read as 0,
    zero rows dropped).  Involutive, and size(d) + size(dagger) = N * lambda_1.
    """
    if len(rows) >= N:
        raise mf.InvalidModularData(f"{rows} has too many rows for N={N}")
    if not rows:
        return rows
    top = rows[0]
    full = list(rows) + [0] * (N - len(rows))
    out = tuple(top - full[N - 1 - r] for r in range(N))
    return tuple(r for r in out if r > 0)


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
        X[a, : len(lam)] += lam
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


def su_level_labels_oracle(N, k):
    """Row tuples of the level set, sorted by size then rows by a Python key."""
    out = [tuple(r for r in rows if r) for rows in combinations_with_replacement(range(k, -1, -1), N - 1)]
    out.sort(key=lambda rows: (sum(rows), rows))
    return out


def su_modular_data_oracle(N, k):
    """``su_modular_data`` by one determinant call per representative row and an integer exponent fill.

    Everything but the three steps named in the module docstring is the
    library's, so S, theta, labels and dual must agree bit for bit.
    """
    labels = su_level_labels_oracle(N, k)
    n = len(labels)
    kappa = k + N
    X = np.zeros((n, N), dtype=np.int64)
    for a, lam in enumerate(labels):
        X[a, : len(lam)] = lam
    X += np.arange(N - 1, -1, -1, dtype=np.int64)
    sums = X.sum(axis=1)
    where, orbit = lie._su_orbits(X, kappa)
    rep = orbit.min(axis=1)
    reps = np.flatnonzero(rep == np.arange(n))
    w = np.empty(n, dtype=np.int64)
    for t in range(N):
        w[orbit[reps, t]] = N - 1 - t

    res = np.arange(kappa)
    phase = lie._roots_of_unity(kappa, -1)[np.outer(res, res) % kappa]
    Xr = X[reps]
    core = np.empty((len(reps), len(reps)), dtype=complex)
    for a in range(len(reps)):  # row a of the upper triangle, b >= a, mirrored
        row = np.linalg.det(phase[Xr[a, None, :, None], Xr[a:, None, :]])
        core[a, a:] = row
        core[a:, a] = row
    sr = sums[reps]
    core *= lie._roots_of_unity(N * kappa, 1)[np.outer(sr, sr) % (N * kappa)]

    zeta = lie._roots_of_unity(2 * N, 1)
    sign = N * w * (N - w)
    at = np.searchsorted(reps, rep)
    raw = np.empty((n, n), dtype=complex)
    step = max(1, lie._FILL_BLOCK // n)
    for x0 in range(0, n, step):
        xs = slice(x0, x0 + step)
        E = np.multiply.outer(w[xs], 2 * sums)
        E += np.multiply.outer(2 * sums[rep[xs]], w)
        E += sign[xs, None]
        E += sign
        E %= 2 * N
        block = raw[xs]
        block[...] = core[at[xs, None], at]
        block *= zeta[E]
    S = lie._normalize_s(raw)

    rho = X[0]
    size = sums - rho.sum()
    m = 2 * N * kappa
    r = (N * ((X * X).sum(axis=1) - rho @ rho) - size * (size + N * (N - 1))) % m
    phases = np.exp((2j * np.pi / m) * np.where(2 * r > m, r - m, r))
    names = [mf.young_label(lam) for lam in labels]
    theta = dict(zip(names, phases.tolist()))
    dual = where[(1 << (X[:, :1] - X)).sum(axis=1)].tolist()
    return mf.ModularData(names, "0", {a: names[d] for a, d in zip(names, dual)}, S, theta)


def su_twist_oracle(N, k):
    """Twists e^{pi i q/kappa} by label, q = <lambda, lambda + 2 rho> in floats.

    The form is the traceless projection of the N-coordinate one:
    q = p.(p + 2 rho) - |p| (|p| + 2 |rho|)/N for the padded parts p.
    """
    rho = np.arange(N - 1, -1, -1, dtype=float)
    out = {}
    for lam in mf.su_level_labels(N, k):
        p = np.zeros(N)
        p[: len(lam)] = lam
        q = p @ (p + 2 * rho) - p.sum() * (p + 2 * rho).sum() / N
        out[mf.young_label(lam)] = cmath.exp(1j * math.pi * q / (k + N))
    return out


def su_mu_tilde(N, diagram):
    """Exact value |lambda| / N in Q/Z of the dual fundamental group character."""
    return Fraction(sum(diagram), N) % 1


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
    invs, left = _smith(cartan)
    kept = [i for i, x in enumerate(invs) if x > 1]
    factors = tuple(invs[i] for i in kept)
    rows = tuple(tuple(int(left[i, j]) for j in range(rank)) for i in kept)
    return LatticeGroup(invariant_factors=factors, _transform=rows)


def weyl_oracle(A):
    """All Weyl elements as (matrix, sign) pairs, one product at a time.

    Breadth first by left multiplication with the simple reflections
    x -> x - x_i alpha_i (alpha_i column i of the Cartan matrix A): each
    element of the frontier times each generator in turn, a product not
    seen before joins the group with the opposite sign.
    """
    rank = A.shape[0]
    gens = []
    for i in range(rank):
        M = np.eye(rank, dtype=np.int64)
        M[:, i] -= A[:, i]
        gens.append(M)
    eye = np.eye(rank, dtype=np.int64)
    seen = {eye.tobytes()}
    elements = [(eye, 1)]
    frontier = [(eye, 1)]
    while frontier:
        nxt = []
        for M, sgn in frontier:
            for g in gens:
                M2 = g @ M
                key = M2.tobytes()
                if key not in seen:
                    seen.add(key)
                    item = (M2, -sgn)
                    elements.append(item)
                    nxt.append(item)
        frontier = nxt
    return elements


def highest_root_comarks_oracle(cartan, symmetrizers):
    """(comarks, dual Coxeter number) from the set of roots w(alpha_i), one root at a time."""
    rank = cartan.shape[0]
    roots = set()
    for M, _ in weyl_oracle(cartan):
        for i in range(rank):
            roots.add(tuple((M @ cartan[:, i]).tolist()))
    inv = np.linalg.inv(cartan)
    best = None
    for rt in roots:
        coeff = inv @ np.array(rt, dtype=float)
        ints = np.rint(coeff)
        if np.max(np.abs(coeff - ints)) > 1e-9 or np.min(ints) < 0:
            continue
        if best is None or ints.sum() > best.sum():
            best = ints
    comarks = tuple(int(m) * d for m, d in zip(best, symmetrizers))
    return comarks, int(1 + sum(comarks))


def lie_weyl_sum_oracle(ld):
    """(S, theta) of ``simple_lie_modular_data``, summed one Weyl element at a time.

    The elements and signs come from :func:`weyl_oracle`, in its order, and
    the raw sum is scaled by the library's ``_normalize_s``, so S agrees bit
    for bit when the library adds the same terms in the same order.
    """
    weights = lie.alcove_weights(ld)
    n = len(weights)
    kappa = ld.level + ld.dual_coxeter
    X = np.array([np.array(w, dtype=float) + ld.rho for w in weights])
    raw = np.zeros((n, n), dtype=complex)
    for M, sgn in weyl_oracle(ld.cartan):
        Q = (X @ M.T @ ld.form) @ X.T
        raw += sgn * np.exp((-2j * np.pi / kappa) * Q)
    theta = {}
    for w in weights:
        v = np.array(w, dtype=float)
        theta[lie.weight_label(w)] = cmath.exp(1j * math.pi * ld.inner(v, v + 2 * ld.rho) / kappa)
    return lie._normalize_s(raw), theta
