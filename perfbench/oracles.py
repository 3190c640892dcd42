"""Independent answers for the benchmark's operations.

No function here calls modfunctor's derived-quantity code.  Each expected
value comes from a closed form (Young-diagram combinatorics, the
q-dimension product, Verlinde's formula from those dimensions and the
fundamental character, the truncated Clebsch-Gordan rule, the centre of the
simply connected group, exact Python-integer handle powers) or from a
property every correct answer must have.  The one program output used as
input is the S-matrix, from which :func:`fusion_support` computes its own
Verlinde support for the grading checks.

:func:`character_error`, like the checkers built on these functions in
``workloads.py``, returns ``None`` for a right answer and a one-line reason
for a wrong one.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# Special-unitary labels: Young diagrams with fewer than N rows, first row <= k


def rows_of(label):
    return () if label == "0" else tuple(int(p) for p in label.split("."))


def label_of(rows):
    rows = tuple(r for r in rows if r)
    return ".".join(str(r) for r in rows) if rows else "0"


def su_labels(N, k):
    """Every label of su(N) at level k, by direct enumeration of diagrams."""
    out = []

    def extend(prefix, top):
        out.append(label_of(prefix))
        if len(prefix) < N - 1:
            for r in range(1, top + 1):
                extend(prefix + [r], r)

    extend([], k)
    return out


def su_label_count(N, k):
    """binom(N - 1 + k, k): also the dimension of the torus state space."""
    return math.comb(N - 1 + k, k)


def _padded(N, rows):
    return list(rows) + [0] * (N - len(rows))  # r_1 .. r_N with r_N = 0


def su_dual(N, label):
    """Conjugate representation: complement of the diagram in its N-row box."""
    r = _padded(N, rows_of(label))
    return label_of(tuple(r[0] - r[N - 1 - i] for i in range(N - 1)))


def su_qdim(N, k, label):
    """Quantum dimension prod_{i<j} [l_i - l_j]_q / [j - i]_q at q = e^{i pi/(N+k)}."""
    r = _padded(N, rows_of(label))
    shifted = [r[i] + N - 1 - i for i in range(N)]
    kappa = N + k
    out = 1.0
    for i in range(N):
        for j in range(i + 1, N):
            out *= math.sin(math.pi * (shifted[i] - shifted[j]) / kappa)
            out /= math.sin(math.pi * (j - i) / kappa)
    return out


def su_fundamental_pair_dim(N, k, genus):
    """Dimension of genus `genus` with the points "1" and its dual, by Verlinde's formula.

    sum_mu S_{0 mu}^{2-2g} |S_{1 mu} / S_{0 mu}|^2, where S_{0 mu} = d_mu / D
    comes from the q-dimension product and S_{1 mu} / S_{0 mu} is the
    fundamental character sum_i x_i at x_i = e^{2 pi i l_i / (N + k)},
    l = mu + rho.  Neither needs the program's S-matrix.
    """
    kappa = N + k
    labels = su_labels(N, k)
    dims = [su_qdim(N, k, lab) for lab in labels]
    total = 0.0
    for lab, d in zip(labels, dims):
        r = _padded(N, rows_of(lab))
        chi = sum(cmath.exp(2j * math.pi * (r[i] + N - 1 - i) / kappa) for i in range(N))
        total += d ** (2 - 2 * genus) * abs(chi) ** 2
    value = sum(d * d for d in dims) ** (genus - 1) * total
    exact = round(value)
    if abs(value - exact) > 1e-6 * max(1.0, value):
        raise ValueError(f"Verlinde sum {value} is not near an integer")
    return exact


def su_indicator(N, label):
    """Frobenius-Schur indicator (-1)^<lambda, 2 rho_check> of a self-dual label."""
    if N % 4 != 2:
        return 1
    r = _padded(N, rows_of(label))
    middle = r[N // 2 - 1] - r[N // 2]  # Dynkin label on the middle node
    return -1 if middle % 2 else 1


# ---------------------------------------------------------------------------
# Other simple types: Dynkin-label weights "a.b.c", Bourbaki node order


def _cartan(cartan_type, rank):
    """A[i][j] = <alpha_i check, alpha_j>; B: last root short, C: last root long."""
    A = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    if cartan_type == "G":
        return [[2, -1], [-3, 2]]
    for i in range(rank - 1):
        A[i][i + 1] = A[i + 1][i] = -1
    if cartan_type == "B":
        A[rank - 1][rank - 2] = -2
    elif cartan_type == "C":
        A[rank - 2][rank - 1] = -2
    elif cartan_type == "D":
        A[rank - 2][rank - 1] = A[rank - 1][rank - 2] = 0
        A[rank - 3][rank - 1] = A[rank - 1][rank - 3] = -1
    elif cartan_type != "A":
        raise ValueError(f"no oracle for type {cartan_type}")
    return A


def _inverse(A):
    """Exact inverse of a small integer matrix by Gauss-Jordan over Fractions."""
    n = len(A)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        M[c] = [x / M[c][c] for x in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                M[r] = [a - M[r][c] * b for a, b in zip(M[r], M[c])]
    return [row[n:] for row in M]


def lie_dual(cartan_type, rank, label):
    """-w0 on Dynkin labels: reversal for A, spinor swap for odd D, else identity."""
    w = [int(p) for p in label.split(".")]
    if cartan_type == "A":
        w = w[::-1]
    elif cartan_type == "D" and rank % 2:
        w[-2], w[-1] = w[-1], w[-2]
    return ".".join(str(a) for a in w)


def lie_indicator(cartan_type, rank, label):
    """(-1)^<lambda, 2 rho_check>; 2 rho_check = 2 * column sums of A^-1 in simple coroots."""
    inv = _inverse(_cartan(cartan_type, rank))
    w = [int(p) for p in label.split(".")]
    total = sum(2 * sum(inv[i][j] for i in range(rank)) * w[j] for j in range(rank))
    if total.denominator != 1:
        raise ValueError(f"<lambda, 2 rho_check> = {total} is not an integer")
    return -1 if total.numerator % 2 else 1


def grading_factors(family):
    """Invariant factors of the dual of the centre of the simply connected group."""
    if family[0] == "su":
        return (int(family[1]),)
    cartan_type, rank = family[1], int(family[2])
    if cartan_type == "A":
        return (rank + 1,)
    if cartan_type in ("B", "C"):
        return (2,)
    if cartan_type == "D":
        return (4,) if rank % 2 else (2, 2)
    if cartan_type == "G":
        return ()
    raise ValueError(f"no grading oracle for {family}")


def family_dual(family, label):
    if family[0] == "su":
        return su_dual(int(family[1]), label)
    return lie_dual(family[1], int(family[2]), label)


def family_indicator(family, label):
    if family[0] == "su":
        return su_indicator(int(family[1]), label)
    return lie_indicator(family[1], int(family[2]), label)


# ---------------------------------------------------------------------------
# su(2)_k: truncated Clebsch-Gordan fusion and exact integer dimensions


def cg_coeff(k, a, b, c):
    """N_{ab}^c for su(2)_k with labels a, b, c = 2j in 0..k."""
    return int(abs(a - b) <= c <= min(a + b, 2 * k - a - b) and (a + b + c) % 2 == 0)


def cg_tensor(k):
    n = k + 1
    return np.array(
        [[[cg_coeff(k, a, b, c) for c in range(n)] for b in range(n)] for a in range(n)],
        dtype=np.int64,
    )


def su2_exact_dim(k, genus, labels):
    """Exact dimension of one component by the fusion recursion in Python ints.

    Every su(2)_k label is self-dual, so the handle operator is sum_j M_j^2
    with (M_j)_{xy} = N_{xj}^y from the Clebsch-Gordan rule.
    """
    n = k + 1
    M = [[[cg_coeff(k, x, j, y) for y in range(n)] for x in range(n)] for j in range(n)]

    def times(v, mat):
        return [sum(v[x] * mat[x][y] for x in range(n)) for y in range(n)]

    handle = [[sum(M[j][x][z] * M[j][z][y] for j in range(n) for z in range(n)) for y in range(n)] for x in range(n)]
    pts = [int(lab) for lab in labels]
    v = [int(i == (pts[0] if pts else 0)) for i in range(n)]
    for j in pts[1:]:
        v = times(v, M[j])
    for _ in range(genus):
        v = times(v, handle)
    return v[0]


# ---------------------------------------------------------------------------
# Grading characters


def fusion_support(S, zero):
    """Boolean N_{ij}^k > 0 from this module's own Verlinde sum over S."""
    S = np.asarray(S, dtype=complex)
    row0 = S[zero]
    Sct = S.conj().T
    raw = np.stack([(S * (S[i] / row0)) @ Sct for i in range(S.shape[0])])
    return np.round(raw.real) > 0.5


def character_error(values, labels, support, dual):
    """Reason a label function fails to be a grading character, or None.

    A character satisfies chi(i) + chi(dual i) = 0 and chi(i) + chi(j) = chi(k)
    in Q/Z on every fusion-supported triple N_{ij}^k > 0.
    """
    for lab in labels:
        if (values[lab] + values[dual[lab]]) % 1:
            return f"chi({lab}) + chi(dual) = {(values[lab] + values[dual[lab]]) % 1}"
    denom = math.lcm(*(v.denominator for v in values.values()))
    num = np.array([int(values[lab] * denom) for lab in labels], dtype=np.int64)
    i, j, k = np.nonzero(support)
    bad = np.nonzero((num[i] + num[j] - num[k]) % denom)[0]
    if bad.size:
        t = bad[0]
        return f"not additive on ({labels[i[t]]}, {labels[j[t]]}; {labels[k[t]]})"
    return None
