"""Labeled marked surfaces and state-space dimensions.

A surface is a disjoint union of connected components, each carrying a
genus and an ordered tuple of marked points labeled by category labels,
together with an integer framing weight.  Only the combinatorial shadow
is kept — enough to drive the dimension bookkeeping: disjoint union,
orientation reversal (labels dualized, weight negated), gluing a pair of
dual-labeled points (same component: genus + 1; distinct components:
merge) and its inverse, cutting along a curve.

State-space dimensions are computed two independent ways: the
pair-of-pants recursion in integers (:func:`state_dim`), and the
closed-form character sum over the S-matrix (:func:`state_dim_verlinde`).
Valid data makes them agree exactly.  The recursion applies one fusion
slice ``FusionTensor.slice(j)`` per point and ``FusionTensor.handle`` once
per genus, so it never reads the dense tensor; H_{xy} is the dimension of
the torus with points labeled x and dual(y).  It is exact at every genus:
entries that could pass 2^62 are carried as Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .modular_data import InvalidModularData, _integer_tolerance

_INT64_SAFE = 2**62

__all__ = [
    "MarkedPoint",
    "Component",
    "Surface",
    "sphere_with_labels",
    "disjoint_union",
    "reverse_orientation",
    "glue_points",
    "factorize",
    "state_dim",
    "state_dim_verlinde",
    "check_gluing_dimension",
]


@dataclass(frozen=True)
class MarkedPoint:
    """A marked point: stable identifier plus category label."""

    id: str
    label: str


@dataclass(frozen=True)
class Component:
    """Connected component of given genus with ordered marked points."""

    genus: int
    points: tuple = ()

    def __post_init__(self):
        if self.genus < 0:
            raise InvalidModularData("genus must be nonnegative")
        object.__setattr__(self, "points", tuple(self.points))


@dataclass(frozen=True)
class Surface:
    """Disjoint union of components with an integer framing weight."""

    components: tuple = ()
    weight: int = 0

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        ids = [p.id for c in self.components for p in c.points]
        if len(set(ids)) != len(ids):
            raise InvalidModularData("point ids must be unique across the surface")

    def point_ids(self):
        return [p.id for c in self.components for p in c.points]

    def labels(self):
        """All point labels in component order."""
        return [p.label for c in self.components for p in c.points]

    def locate(self, point_id):
        """(component index, point index) of a point id."""
        for ci, c in enumerate(self.components):
            for pi, p in enumerate(c.points):
                if p.id == point_id:
                    return ci, pi
        raise KeyError(f"no point with id {point_id!r}")

    def relabel(self, point_id, label):
        """Copy of the surface with one point's label replaced."""
        ci, pi = self.locate(point_id)
        comp = self.components[ci]
        pts = list(comp.points)
        pts[pi] = replace(pts[pi], label=label)
        comps = list(self.components)
        comps[ci] = replace(comp, points=tuple(pts))
        return replace(self, components=tuple(comps))

    def _fresh_id(self, stem):
        used = set(self.point_ids())
        if stem not in used:
            return stem
        n = 1
        while f"{stem}~{n}" in used:
            n += 1
        return f"{stem}~{n}"


def sphere_with_labels(labels, id_prefix="p"):
    """Genus-0 surface with one component and the given point labels."""
    pts = tuple(MarkedPoint(f"{id_prefix}{i}", lab) for i, lab in enumerate(labels))
    return Surface((Component(0, pts),))


def disjoint_union(a, b):
    """Concatenate components; weights add; colliding point ids of `b` are renamed."""
    used = set(a.point_ids())
    comps = []
    for c in b.components:
        pts = []
        for p in c.points:
            pid = p.id
            while pid in used:
                pid = pid + "'"
            used.add(pid)
            pts.append(MarkedPoint(pid, p.label))
        comps.append(Component(c.genus, tuple(pts)))
    return Surface(a.components + tuple(comps), a.weight + b.weight)


def reverse_orientation(a, dual):
    """Opposite surface: every label replaced by its dual, weight negated."""
    comps = tuple(
        Component(c.genus, tuple(MarkedPoint(p.id, dual[p.label]) for p in c.points))
        for c in a.components
    )
    return Surface(comps, -a.weight)


def glue_points(a, p, q, dual):
    """Glue marked point `p` to `q`; requires label(p) = dual(label(q)).

    Same component: the two points disappear and the genus rises by one.
    Distinct components: they merge (genus adds, the merged component takes
    the position of the earlier one, points concatenated in order).  The
    weight is unchanged.
    """
    if p == q:
        raise InvalidModularData("cannot glue a point to itself")
    ci, pi = a.locate(p)
    cj, pj = a.locate(q)
    lp = a.components[ci].points[pi].label
    lq = a.components[cj].points[pj].label
    if lp != dual[lq]:
        raise InvalidModularData(f"label mismatch: {lp!r} glued to {lq!r} (dual {dual[lq]!r})")
    comps = list(a.components)
    if ci == cj:
        comp = comps[ci]
        pts = tuple(pt for idx, pt in enumerate(comp.points) if idx not in (pi, pj))
        comps[ci] = Component(comp.genus + 1, pts)
    else:
        if ci > cj:
            ci, cj, pi, pj = cj, ci, pj, pi
        first, second = comps[ci], comps[cj]
        pts = tuple(pt for idx, pt in enumerate(first.points) if idx != pi) + tuple(
            pt for idx, pt in enumerate(second.points) if idx != pj
        )
        comps[ci] = Component(first.genus + second.genus, pts)
        del comps[cj]
    return Surface(tuple(comps), a.weight)


def factorize(a, component, label, dual, mode="nonseparating", genus_split=None, first_points=None):
    """Cut a component along a curve colored by `label`; inverse of gluing.

    mode "nonseparating": the component's genus drops by one and two new
    points labeled (label, dual(label)) are appended.  mode "separating":
    the component splits into two, `genus_split = (g1, g2)` with
    g1 + g2 = genus, `first_points` the ids kept on the first part (order
    preserved); the first part gains the `label` point, the second the dual
    point.  Gluing the two new points back returns the original surface.
    """
    comp = a.components[component]
    plus = a._fresh_id("cut+")
    minus = a._fresh_id("cut-")
    comps = list(a.components)
    if mode == "nonseparating":
        if comp.genus < 1:
            raise InvalidModularData("nonseparating cut needs genus >= 1")
        pts = comp.points + (MarkedPoint(plus, label), MarkedPoint(minus, dual[label]))
        comps[component] = Component(comp.genus - 1, pts)
    elif mode == "separating":
        if genus_split is None:
            raise InvalidModularData("separating cut needs genus_split=(g1, g2)")
        g1, g2 = genus_split
        if g1 < 0 or g2 < 0 or g1 + g2 != comp.genus:
            raise InvalidModularData(f"genus split {genus_split} does not sum to {comp.genus}")
        chosen = set(first_points or ())
        unknown = chosen - {p.id for p in comp.points}
        if unknown:
            raise InvalidModularData(f"unknown point ids in split: {sorted(unknown)}")
        left = tuple(p for p in comp.points if p.id in chosen) + (MarkedPoint(plus, label),)
        right = tuple(p for p in comp.points if p.id not in chosen) + (
            MarkedPoint(minus, dual[label]),
        )
        comps[component] = Component(g1, left)
        comps.insert(component + 1, Component(g2, right))
    else:
        raise InvalidModularData(f"unknown factorization mode {mode!r}")
    return Surface(tuple(comps), a.weight)


def _component_dim(data, fusion, genus, labels):
    """Invariant-space dimension of one component by the fusion recursion.

    Realizes dim(0; i) = [i = 0], dim(0; i, j) = [j = dual(i)],
    dim(0; i_1..i_n) = sum_x N_{i_1 i_2}^x dim(0; x, i_3..),
    dim(g; L) = sum_x dim(g-1; L + (x, dual x)), reassociated into a chain
    of fusion slices (N_j)_{xy} = N_{xj}^y followed by powers of the
    handle operator H = sum_j N_j N_{j*}, all in integers: int64 while the
    product of the largest column sums bounds every entry below 2^62,
    Python ints above.  The powers of H stop at a fixed point v H = v,
    exactly; for valid data that is a one-label family (H = [[1]]) or
    v = 0, since for n > 1 every eigenvalue S_{0r}^{-2} of H exceeds 1 in
    modulus.
    """
    idx = [data.index(l) for l in labels]
    z = data.index(data.zero)
    bound = fusion.handle_column_max**genus
    slices = []
    for j in idx[1:]:
        slices.append(fusion.slice(j))
        bound *= fusion.column_max[j]
    if slices:  # e_{i_1} N_{i_2} is the row N_{i_1 i_2}^.
        v = slices.pop(0)[idx[0]]
    else:
        v = np.zeros(data.n, dtype=np.int64)
        v[idx[0] if idx else z] = 1
    if bound >= _INT64_SAFE:
        v = v.astype(object)
    for M in slices:
        v = v @ M
    for _ in range(genus):
        w = v @ fusion.handle
        # at v H = v every later step is the same (valid data: n = 1 or v = 0); one step skips none
        if genus > 1 and (w == v).all():
            break
        v = w
    return int(v[z])


def state_dim(data, fusion, a):
    """Total state-space dimension: product of per-component recursion values."""
    out = 1
    for c in a.components:
        out *= _component_dim(data, fusion, c.genus, [p.label for p in c.points])
    return out


def state_dim_verlinde(data, a):
    """Closed-form dimension sum_r S_{0r}^{2-2g-n} prod_l S_{i_l r} per component.

    Independent of :func:`state_dim`: evaluated over the complex S-matrix and
    rounded, with an integrality check within `data.tol`, widened with the
    magnitude of the terms.  A sum that overflows, or whose double spacing
    exceeds that tolerance (from about 2^51 on), is refused before rounding,
    since every double there is an integer or a half and the check could
    not fail.
    """
    z = data.index(data.zero)
    row0 = data.S[z, :]
    out = 1
    for c in a.components:
        n = len(c.points)
        with np.errstate(over="ignore", invalid="ignore"):
            term = row0 ** (2 - 2 * c.genus - n)
            for p in c.points:
                term = term * data.S[data.index(p.label), :]
            val = complex(np.sum(term))
            tol = _integer_tolerance(data.tol, float(np.sum(np.abs(term))))
        # an overflowed sum is inf or NaN, which no comparison accepts
        if not (np.spacing(abs(val.real)) <= tol):
            raise InvalidModularData(f"character sum {val} is too large to decide an integer in double precision")
        nearest = round(val.real)
        if not (abs(val - nearest) <= tol):
            raise InvalidModularData(f"character sum {val} is not an integer within tolerance")
        out *= int(nearest)
    return out


def check_gluing_dimension(data, fusion, a, p, q):
    """Factorization identity at the dimension level.

    The points `p`, `q` are slots: for every label x the surface with
    p -> x, q -> dual(x) contributes, and the identity says the sum equals
    the dimension of the glued surface (which is independent of x).  The
    slots are located once and the other components' dimensions taken
    once; each x only substitutes its labels and reruns the recursion of
    the one or two components that hold the slots.
    """
    (ci, pi), (cj, pj) = a.locate(p), a.locate(q)
    labels = [[pt.label for pt in c.points] for c in a.components]
    rest = 1
    for c, comp in enumerate(a.components):
        if c not in (ci, cj):
            rest *= _component_dim(data, fusion, comp.genus, labels[c])
    total = 0
    for x in data.labels:
        labels[ci][pi] = x
        labels[cj][pj] = data.dual[x]
        dim = _component_dim(data, fusion, a.components[ci].genus, labels[ci])
        if cj != ci:
            dim *= _component_dim(data, fusion, a.components[cj].genus, labels[cj])
        total += dim
    anyfill = a.relabel(p, data.zero).relabel(q, data.zero)
    glued = glue_points(anyfill, p, q, data.dual)
    return total * rest == state_dim(data, fusion, glued)
