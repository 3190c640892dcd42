"""Marked surfaces, gluing/cutting, and state-space dimensions."""

import time

import numpy as np
import pytest

import modfunctor as mf
from modfunctor import cli, surfaces
from modfunctor.cli import run_command
from modfunctor.surfaces import Component, MarkedPoint, Surface
from conftest import get_family, get_fusion


def torus(weight=0):
    return Surface((Component(1),), weight)


def test_surface_rejects_duplicate_ids():
    pts = (MarkedPoint("a", "0"), MarkedPoint("a", "1"))
    with pytest.raises(mf.InvalidModularData):
        Surface((Component(0, pts),))


def test_component_rejects_negative_genus():
    with pytest.raises(mf.InvalidModularData):
        Component(-1)


def test_sphere_with_labels():
    a = mf.sphere_with_labels(["0", "1", "1"])
    assert len(a.components) == 1
    assert a.components[0].genus == 0
    assert a.point_ids() == ["p0", "p1", "p2"]
    assert a.labels() == ["0", "1", "1"]


def test_disjoint_union_weights_and_renaming():
    a = Surface((Component(0, (MarkedPoint("p0", "1"),)),), weight=2)
    b = Surface((Component(1, (MarkedPoint("p0", "2"),)),), weight=3)
    u = mf.disjoint_union(a, b)
    assert u.weight == 5
    assert len(u.components) == 2
    assert u.point_ids() == ["p0", "p0'"]  # collision renamed, label kept
    assert u.labels() == ["1", "2"]
    empty = Surface(())
    again = mf.disjoint_union(u, empty)
    assert again.labels() == u.labels() and again.weight == u.weight


def test_reverse_orientation(su31):
    a = Surface((Component(1, (MarkedPoint("x", "1"),)),), weight=4)
    r = mf.reverse_orientation(a, su31.dual)
    assert r.weight == -4
    assert r.labels() == ["1.1"]
    assert r.components[0].genus == 1
    rr = mf.reverse_orientation(r, su31.dual)
    assert rr == a


def test_glue_same_component_raises_genus(su22):
    a = mf.sphere_with_labels(["1", "1", "2"])
    glued = mf.glue_points(a, "p0", "p1", su22.dual)
    assert len(glued.components) == 1
    assert glued.components[0].genus == 1
    assert glued.labels() == ["2"]


def test_glue_distinct_components_merges(su22):
    a = mf.sphere_with_labels(["1", "0"], id_prefix="a")
    b = mf.sphere_with_labels(["1", "2"], id_prefix="b")
    u = mf.disjoint_union(a, b)
    glued = mf.glue_points(u, "a0", "b0", su22.dual)
    assert len(glued.components) == 1
    assert glued.components[0].genus == 0
    assert glued.labels() == ["0", "2"]

    g1 = Surface((Component(1, (MarkedPoint("x", "0"),)),))
    g2 = Surface((Component(2, (MarkedPoint("y", "0"),)),))
    merged = mf.glue_points(mf.disjoint_union(g1, g2), "x", "y", su22.dual)
    assert merged.components[0].genus == 3
    assert merged.labels() == []


def test_glue_label_mismatch(su22):
    a = mf.sphere_with_labels(["1", "2", "0"])
    with pytest.raises(mf.InvalidModularData):
        mf.glue_points(a, "p0", "p1", su22.dual)  # 1 glued to 2: not dual
    with pytest.raises(mf.InvalidModularData):
        mf.glue_points(a, "p0", "p0", su22.dual)


def test_factorize_round_trip(su23):
    a = Surface((Component(2, (MarkedPoint("m", "1"),)),), weight=1)
    cut = mf.factorize(a, 0, "2", su23.dual, mode="nonseparating")
    assert cut.components[0].genus == 1
    assert cut.labels() == ["1", "2", "2"]  # dual("2") == "2"
    back = mf.glue_points(cut, "cut+", "cut-", su23.dual)
    assert back == a

    split = mf.factorize(a, 0, "3", su23.dual, mode="separating",
                         genus_split=(1, 1), first_points=("m",))
    assert [c.genus for c in split.components] == [1, 1]
    assert split.labels() == ["1", "3", "3"]
    back = mf.glue_points(split, "cut+", "cut-", su23.dual)
    assert back.components[0].genus == 2
    assert back.labels() == ["1"]


def test_factorize_errors(su22):
    sphere = mf.sphere_with_labels(["0"])
    with pytest.raises(mf.InvalidModularData):
        mf.factorize(sphere, 0, "1", su22.dual, mode="nonseparating")
    a = Surface((Component(2),))
    with pytest.raises(mf.InvalidModularData):
        mf.factorize(a, 0, "1", su22.dual, mode="separating", genus_split=(1, 2))
    with pytest.raises(mf.InvalidModularData):
        mf.factorize(a, 0, "1", su22.dual, mode="shear")


def test_state_dim_frozen_values(su22):
    fusion = get_fusion(su22)
    # empty surface and spheres with few points
    assert mf.state_dim(su22, fusion, Surface(())) == 1
    assert mf.state_dim(su22, fusion, mf.sphere_with_labels([])) == 1
    assert mf.state_dim(su22, fusion, mf.sphere_with_labels(["0"])) == 1
    assert mf.state_dim(su22, fusion, mf.sphere_with_labels(["1"])) == 0
    assert mf.state_dim(su22, fusion, mf.sphere_with_labels(["1", "1"])) == 1
    assert mf.state_dim(su22, fusion, mf.sphere_with_labels(["1", "2"])) == 0
    assert mf.state_dim(su22, fusion, mf.sphere_with_labels(["1", "1", "2"])) == 1
    assert mf.state_dim(su22, fusion, mf.sphere_with_labels(["1", "1", "1", "1"])) == 2
    # torus = number of labels
    assert mf.state_dim(su22, fusion, torus()) == 3


def test_state_dim_genus_two(su21):
    fusion = get_fusion(su21)
    a = Surface((Component(2),))
    # sum_r S_{0r}^{-2} = 2 + 2 over the two unit-dim labels
    assert mf.state_dim(su21, fusion, a) == 4
    assert mf.state_dim_verlinde(su21, a) == 4


def test_state_dim_multiplicative(su23):
    fusion = get_fusion(su23)
    a = mf.sphere_with_labels(["1", "1", "2"])
    b = torus()
    u = mf.disjoint_union(a, b)
    da = mf.state_dim(su23, fusion, a)
    assert mf.state_dim(su23, fusion, u) == da * mf.state_dim(su23, fusion, b)
    assert da == 1


def test_state_dim_reversal_invariant(su31):
    fusion = get_fusion(su31)
    a = Surface((Component(1, (MarkedPoint("x", "1"), MarkedPoint("y", "1"))),))
    r = mf.reverse_orientation(a, su31.dual)
    assert mf.state_dim(su31, fusion, a) == mf.state_dim(su31, fusion, r)


def test_state_dim_matches_verlinde_batch():
    rng = np.random.default_rng(20240817)
    for tokens in (("su", 2, 3), ("su", 3, 2), ("lie", "B", 2, 1)):
        data = get_family(*tokens)
        fusion = get_fusion(data)
        for _ in range(25):
            comps = []
            for ci in range(rng.integers(1, 3)):
                g = int(rng.integers(0, 3))
                pts = tuple(
                    MarkedPoint(f"c{ci}p{pi}", data.labels[rng.integers(0, data.n)])
                    for pi in range(rng.integers(0, 4))
                )
                comps.append(Component(g, pts))
            a = Surface(tuple(comps))
            assert mf.state_dim(data, fusion, a) == mf.state_dim_verlinde(data, a)


def test_verlinde_rejects_bad_s(su22):
    bad = mf.ModularData(su22.labels, su22.zero, dict(su22.dual),
                         su22.S + 0.01, dict(su22.theta), tol=su22.tol)
    # the genus-1 sum is integral for any S, so probe at genus 2
    with pytest.raises(mf.InvalidModularData):
        mf.state_dim_verlinde(bad, Surface((Component(2),)))


def test_verlinde_refuses_sums_beyond_double_precision(su22):
    fusion = get_fusion(su22)
    # sum_r S_{0r}^{2-2g} = 2^{2g-1} + 2^{g-1} on su 2 2
    below = Surface((Component(25),))
    assert mf.state_dim_verlinde(su22, below) == mf.state_dim(su22, fusion, below) == 2**49 + 2**24
    above = Surface((Component(33),))
    assert mf.state_dim(su22, fusion, above) == 2**65 + 2**32
    with pytest.raises(mf.InvalidModularData, match="double precision"):
        mf.state_dim_verlinde(su22, above)


def test_check_gluing_dimension(su22):
    fusion = get_fusion(su22)
    a = mf.sphere_with_labels(["1", "1", "0", "0"])
    assert mf.check_gluing_dimension(su22, fusion, a, "p2", "p3")
    # slots interleaved with fixed labels exercise the reordering
    b = mf.sphere_with_labels(["0", "1", "0", "1"])
    assert mf.check_gluing_dimension(su22, fusion, b, "p0", "p2")
    c = Surface((Component(1, (MarkedPoint("s", "0"), MarkedPoint("t", "0"))),))
    assert mf.check_gluing_dimension(su22, fusion, c, "s", "t")


def test_check_gluing_dimension_detects_corruption(su22):
    fusion = get_fusion(su22)
    broken = np.array(fusion.N)
    broken[0, 1, 1] += 1  # inflate a unit-row structure constant
    fake = mf.FusionTensor(su22.labels, lambda j: broken[:, j, :], fusion.handle)
    # With the slots mid-chain the two sides reassociate differently, so
    # the identity really constrains the tensor (trailing slots would not).
    a = mf.sphere_with_labels(["0", "1", "0", "1"])
    assert not mf.check_gluing_dimension(su22, fake, a, "p0", "p2")


def test_check_gluing_dimension_random(su31):
    fusion = get_fusion(su31)
    rng = np.random.default_rng(7)
    for _ in range(10):
        labs = [su31.labels[rng.integers(0, su31.n)] for _ in range(2)]
        a = mf.sphere_with_labels(labs + ["0", "0"])
        assert mf.check_gluing_dimension(su31, fusion, a, "p2", "p3")


def gluing_oracle(data, fusion, a, p, q):
    """The gluing identity by relabelled surfaces: one new Surface per label x."""
    total = sum(
        mf.state_dim(data, fusion, a.relabel(p, x).relabel(q, data.dual[x])) for x in data.labels
    )
    glued = mf.glue_points(a.relabel(p, data.zero).relabel(q, data.zero), p, q, data.dual)
    return total == mf.state_dim(data, fusion, glued)


def _gluing_cases(data):
    """Surfaces with slots x, y in one component and in two, with other components riding along."""
    lab, o = data.labels, data.zero
    pt = MarkedPoint
    one = Surface((Component(1, (pt("x", o), pt("a", lab[1]), pt("y", o), pt("b", lab[-1]))),))
    two = Surface(
        (
            Component(0, (pt("a", lab[1]), pt("x", o), pt("b", lab[1]))),
            Component(2, ()),
            Component(1, (pt("y", o), pt("c", lab[-1]))),
        )
    )
    return [(one, "x", "y"), (two, "x", "y"), (two, "y", "x")]


def _gluing_layouts(data):
    """Slot layouts that _gluing_cases lacks: x, y first and adjacent (as verify places them),
    apart with points between, y before x, a slot last, genus 0 and 3, and two components
    where neither slot is first."""
    pt = MarkedPoint
    fixed = {k: data.labels[(1 + 3 * s) % data.n] for s, k in enumerate("abc")}

    def comp(genus, ids):
        return Component(genus, tuple(pt(k, fixed.get(k, data.zero)) for k in ids))

    one = [comp(1, "xyab"), comp(0, "xabyc"), comp(1, "axbyc"), comp(2, "yaxb"), comp(3, "abxy")]
    two = [(comp(0, "axb"), comp(1, "cy")), (comp(2, "ay"), comp(0, "bxc"))]
    return [(Surface((c,)), "x", "y") for c in one] + [(Surface(cs), "x", "y") for cs in two]


@pytest.mark.parametrize(
    "tokens", [("su", 2, 2), ("su", 3, 2), ("lie", "B", 2, 1), ("su", 4, 3)], ids=lambda t: " ".join(map(str, t))
)
def test_check_gluing_dimension_matches_relabel_oracle(tokens):
    data = get_family(*tokens)
    fusion = get_fusion(data)
    fakes = []
    # one structure constant or handle entry raised by one, indices taken mod n
    for where in [(0, 1, 1), (1, 2, 3), (1, 4, 0), (0, 0)]:
        broken, handle = np.array(fusion.N), np.array(fusion.handle)
        (broken if len(where) == 3 else handle)[tuple(w % data.n for w in where)] += 1
        fakes.append(mf.FusionTensor(data.labels, lambda j, broken=broken: broken[:, j, :], handle))
    refuted = set()  # whether the slots share a component, for each layout the oracle refutes
    for a, p, q in _gluing_cases(data) + _gluing_layouts(data):
        assert mf.check_gluing_dimension(data, fusion, a, p, q)
        for f in fakes:
            want = gluing_oracle(data, f, a, p, q)
            assert mf.check_gluing_dimension(data, f, a, p, q) == want
            if not want:
                refuted.add(a.locate(p)[0] == a.locate(q)[0])
    # the corruptions break the identity with the slots on one component and on two,
    # so the comparison constrains both ways of summing the fills
    assert refuted == {True, False}
    a = mf.sphere_with_labels([data.zero, data.labels[1], data.zero, data.labels[1]])
    assert mf.check_gluing_dimension(data, fakes[0], a, "p0", "p2") == gluing_oracle(data, fakes[0], a, "p0", "p2")


def exact_dim_oracle(data, fusion, genus, labels):
    """One component's dimension by the fusion recursion in Python ints.

    The handle is the integer sum_j N_j N_{j*}, not the library's closed form.
    """
    n = data.n
    N = fusion.N.tolist()
    handle = [
        [sum(N[x][j][w] * N[w][data.dual_index(j)][y] for j in range(n) for w in range(n)) for y in range(n)]
        for x in range(n)
    ]
    idx = [data.index(lab) for lab in labels]
    v = [0] * n
    v[idx[0] if idx else data.index(data.zero)] = 1
    steps = [[row[j] for row in N] for j in idx[1:]] + [handle] * genus
    for M in steps:
        v = [sum(v[x] * M[x][y] for x in range(n)) for y in range(n)]
    return v[data.index(data.zero)]


@pytest.mark.parametrize(
    "tokens, genus, labels, want",
    [
        (("su", 3, 3), 15, (), 18422826780655469656870),
        (("su", 3, 3), 20, (), 1113957878245082949567486357526),
        (("su", 3, 3), 30, (), 4072806498390771485704334873246916374486404726),
        (("su", 2, 5), 20, ("1", "1"), None),
        (("su", 3, 2), 30, ("1", "2.1", "1.1"), None),
        (("lie", "G", 2, 1), 45, ("0.1",), None),
    ],
    ids=lambda v: " ".join(map(str, v)) if isinstance(v, tuple) else str(v),
)
def test_state_dim_exact_at_high_genus(tokens, genus, labels, want):
    data = get_family(*tokens)
    fusion = get_fusion(data)
    pts = tuple(MarkedPoint(f"p{i}", lab) for i, lab in enumerate(labels))
    got = mf.state_dim(data, fusion, Surface((Component(genus, pts),)))
    oracle = exact_dim_oracle(data, fusion, genus, labels)
    assert got == oracle > 2**63
    assert type(got) is int
    if want is not None:
        assert got == want


def _spy_chain(monkeypatch):
    """Record every array that surfaces._chain returns."""
    seen = []
    real = surfaces._chain

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(surfaces, "_chain", spy)
    return seen


def test_gluing_sums_fills_in_python_ints_past_int64(monkeypatch):
    data = get_family("su", 3, 3)
    fusion = get_fusion(data)
    ab = [data.labels[1], data.dual[data.labels[1]]]
    pts = tuple(map(MarkedPoint, "xyab", [data.zero, data.zero, *ab]))
    seen = _spy_chain(monkeypatch)
    assert mf.check_gluing_dimension(data, fusion, Surface((Component(15, pts),)), "x", "y")
    # the glued surface's chain, then the one chain that runs from the summed fills
    glued, fills = (v[data.index(data.zero)] for v in seen)
    assert all(v.dtype == object for v in seen)
    want = exact_dim_oracle(data, fusion, 16, ab)
    assert fills == sum(exact_dim_oracle(data, fusion, 15, [x, data.dual[x], *ab]) for x in data.labels)
    assert glued == fills == want > 2**63


def test_gluing_chain_count_does_not_grow_with_labels(monkeypatch):
    seen = _spy_chain(monkeypatch)
    counts = []
    for tokens in [("su", 3, 2), ("su", 4, 4)]:  # n = 6 and n = 35
        data = get_family(*tokens)
        fusion = get_fusion(data)
        seen.clear()
        for t in range(4):  # verify's four surfaces: slots x, y, then two labels, on a torus
            labels = (data.zero, data.zero, *cli._stride_labels(data, t, 2))
            a = Surface((Component(1, tuple(map(MarkedPoint, "xyab", labels))),))
            assert mf.check_gluing_dimension(data, fusion, a, "x", "y")
        counts.append(len(seen))
    assert counts[0] == counts[1]



def test_gluing_two_components_in_python_ints_past_int64(monkeypatch):
    data = get_family("su", 3, 3)
    fusion = get_fusion(data)
    z = data.index(data.zero)
    want = exact_dim_oracle(data, fusion, 16, [])
    assert want == 663221760397547940009046 > 2**63
    seen = _spy_chain(monkeypatch)
    for gx, gy in [(15, 1), (8, 8)]:
        a = Surface((Component(gx, (MarkedPoint("x", data.zero),)), Component(gy, (MarkedPoint("y", data.zero),))))
        seen.clear()
        assert mf.check_gluing_dimension(data, fusion, a, "x", "y")
        # the glued surface's chain, then each side's rows, one per fill
        glued, rows_x, rows_y = seen
        assert all(v.dtype == object for v in seen)
        fills = sum(rows_x[x, z] * rows_y[data.dual_index(x), z] for x in range(data.n))
        oracle = sum(
            exact_dim_oracle(data, fusion, gx, [x]) * exact_dim_oracle(data, fusion, gy, [data.dual[x]])
            for x in data.labels
        )
        assert glued[z] == fills == oracle == want


def test_gluing_multiplies_only_by_cached_slices_and_the_handle(monkeypatch):
    data = get_family("su", 3, 2)
    fusion = get_fusion(data)
    cached = [fusion.slice(j) for j in range(data.n)] + [fusion.handle]
    factors = []
    real = surfaces._chain

    def spy(v, steps, bound):
        factors.extend(M for M, _power in steps)
        return real(v, steps, bound)

    monkeypatch.setattr(surfaces, "_chain", spy)
    for a, p, q in _gluing_cases(data) + _gluing_layouts(data):
        assert mf.check_gluing_dimension(data, fusion, a, p, q)
    # every product runs one way, a row or a stack of rows times a cached factor
    assert factors and all(any(M is c for c in cached) for M in factors)


@pytest.mark.parametrize("tokens", [("su", "2", "0"), ("lie", "G", "2", "0")], ids=" ".join)
def test_one_label_family_stops_after_one_handle_step(tokens):
    # H = [[1]], so v H = v after the first step and the recursion returns
    # at once, at a genus whose loop would never finish
    argv = ["--json", "dims", *tokens, "--surface", "g=99999999999999999999[]"]
    start = time.perf_counter()
    code, report = run_command(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 0, report.human
    assert report.machine["state_dim"] == report.machine["state_dim_verlinde"] == 1
