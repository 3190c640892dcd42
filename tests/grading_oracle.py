"""Test oracle for the grading group: the fusion-support presentation.

An independent route to the grading group that assumes nothing about
modularity.  A function mu on labels is a grading character when
mu(i) mu(dual i) = 1 and mu(i) mu(j) mu(k) = 1 for every triple with a
nonzero invariant space.  With values written as rationals mod 1 this is
integer linear algebra: the grading group is the cokernel of the relation
matrix whose rows are the fusion-supported triples and the dual pairs,
and its invariant factors come from a Smith form.  The relation matrix
has one row per nonzero fusion coefficient, so this route is only for
the small built-in families.

:func:`symplectic_character_oracle` is the element-at-a-time search that
``find_fundamental_symplectic_character`` replaces with one integer
product over the whole character group: one Fraction-valued character per
group element, each tested against every target.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form

_CACHE = {}


def build_relation_matrix(data, fusion):
    """Integer relation rows: fusion-supported triples plus dual pairs.

    A triple {i, j, k} with N_{ij}^{dual(k)} > 0 yields the row
    e_i + e_j + e_k (with multiplicity for repeated labels); each pair
    {i, dual(i)} yields e_i + e_{dual(i)}.  Rows are deduplicated and
    returned in sorted order.
    """
    n = data.n
    dual = np.array([data.dual_index(i) for i in range(n)])
    supp = np.argwhere(fusion.N > 0)  # N_{ij}^{m} > 0 gives the triple (i, j, dual m)
    triples = np.zeros((len(supp), n), dtype=np.int64)
    idx = np.arange(len(supp))
    np.add.at(triples, (idx, supp[:, 0]), 1)
    np.add.at(triples, (idx, supp[:, 1]), 1)
    np.add.at(triples, (idx, dual[supp[:, 2]]), 1)
    pairs = np.zeros((n, n), dtype=np.int64)
    np.add.at(pairs, (np.arange(n), np.arange(n)), 1)
    np.add.at(pairs, (np.arange(n), dual), 1)
    return np.unique(np.vstack([triples, pairs]), axis=0)


def row_echelon_lattice_basis(rows):
    """Integer basis (at most one row per column) of the row span of `rows`.

    Euclidean elimination over Z: replacing a row by row - q*other or
    swapping rows never changes the spanned lattice, so the result
    generates the same subgroup with at most one row per column.
    """
    n = rows.shape[1]
    basis = {}
    for row in rows:
        row = row.copy()
        while True:
            support = np.nonzero(row)[0]
            if support.size == 0:
                break
            col = int(support[0])
            if row[col] < 0:
                row = -row
            have = basis.get(col)
            if have is None:
                basis[col] = row
                break
            row = row - (row[col] // have[col]) * have
            if row[col] != 0:
                basis[col], row = row, have  # gcd step: smaller pivot wins
    out = [basis[c] for c in sorted(basis)]
    return np.array(out, dtype=np.int64).reshape(len(out), n)


def oracle_group(data, fusion):
    """(invariant_factors, free_rank, relation_rows) of the fusion-support presentation.

    Cached per data object, as the test fixtures cache the data itself.
    """
    key = id(data)
    if key not in _CACHE:
        rows = build_relation_matrix(data, fusion)
        basis = row_echelon_lattice_basis(rows)
        snf = smith_normal_form(Matrix(basis.tolist()), ZZ)
        diag = [abs(int(snf[i, i])) for i in range(min(snf.shape))]
        factors = tuple(d for d in diag if d > 1)
        free = data.n - sum(1 for d in diag if d)
        _CACHE[key] = (data, (factors, free, rows))
    return _CACHE[key][1]


def is_character(rows, labels, chi):
    """Exact test: every relation row maps to 0 in Q/Z under `chi`."""
    for row in rows:
        total = Fraction(0)
        for c, lab in zip(row, labels):
            if c:
                total += int(c) * chi(lab)
        if total % 1 != 0:
            return False
    return True


def symplectic_character_oracle(pres, targets):
    """Values of the lexicographically least character meeting `targets`, or None.

    The character of coordinates c takes sum_j c_j v_j / d_j mod 1 on a
    label of image v; it is built as Fractions for every c, tested exactly
    against every target, and compared by its value tuple in label order.
    """
    factors = pres.invariant_factors
    exponent = math.lcm(*factors)
    best = None
    for coords in itertools.product(*[range(d) for d in factors]):
        weights = [c * (exponent // d) for c, d in zip(coords, factors)]
        chi = {
            lab: Fraction(sum(w * v for w, v in zip(weights, pres.label_image[lab])) % exponent, exponent)
            for lab in pres.labels
        }
        if not all(chi[lab] == want for lab, want in targets.items()):
            continue
        if best is None or [chi[lab] for lab in pres.labels] < [best[lab] for lab in pres.labels]:
            best = chi
    return best
