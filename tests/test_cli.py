"""CLI surface: parsing, subcommands, exit codes, JSON output."""

import cmath
import json
import os
import subprocess
import sys
import types
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import modfunctor as mf
from modfunctor import cli, modular_data
from modfunctor.cli import UsageError, main, parse_surface_literal, run_command
from conftest import builtin_tokens, get_family
from lie_oracle import lattice_fundamental_group


# the keys of every family's "checks" in verify's --json output, in order
VERIFY_CHECKS = (
    "axioms",
    "fusion-integral",
    "fusion-unit",
    "fusion-duality",
    "fusion-commutative",
    "fusion-rigidity",
    "once-punctured-sphere",
    "twice-punctured-sphere",
    "torus-dim",
    "gauss-modulus",
    "canonical-residual",
    "gluing-dimension",
    "oracle-equivalence",
)


def test_parse_surface_literal_basic(su22):
    a = parse_surface_literal("g=0[1,1,2]", su22)
    assert len(a.components) == 1
    assert a.components[0].genus == 0
    assert a.labels() == ["1", "1", "2"]
    b = parse_surface_literal(" g = 1 [ ] ")
    assert b.components[0].genus == 1
    assert b.components[0].points == ()


def test_parse_surface_literal_multi_component(su22):
    a = parse_surface_literal("g=1[] + g=0[1,1]", su22)
    assert [c.genus for c in a.components] == [1, 0]
    assert a.labels() == ["1", "1"]
    assert a.point_ids() == ["c1p0", "c1p1"]


def test_parse_surface_literal_errors(su22):
    with pytest.raises(UsageError):
        parse_surface_literal("torus")
    with pytest.raises(UsageError):
        parse_surface_literal("g=-1[]")
    with pytest.raises(UsageError):
        parse_surface_literal("g=0[1,,2]")
    with pytest.raises(UsageError):
        parse_surface_literal("g=0[7]", su22)  # unknown label


def test_info_command():
    code, report = run_command(["info", "su", "2", "2"])
    assert code == 0
    assert report.machine["labels"] == ["0", "1", "2"]
    assert abs(report.machine["D"] - 2.0) < 1e-12
    assert report.machine["fs"] == {"0": 1, "1": -1, "2": 1}
    assert "family" in report.human


def test_unknown_family_is_usage_error():
    code, report = run_command(["info", "su", "9", "1"])
    assert code == 2
    code, report = run_command(["info", "zu", "2", "1"])
    assert code == 2
    code, report = run_command([])
    assert code == 2


def test_dims_command():
    code, report = run_command(["dims", "su", "2", "2", "--surface", "g=1[]"])
    assert code == 0
    assert report.machine["state_dim"] == 3
    assert report.machine["state_dim_verlinde"] == 3
    assert report.machine["match"] is True
    code, _ = run_command(["dims", "su", "2", "2", "--surface", "nope"])
    assert code == 2


@pytest.mark.parametrize("family, torus", [(("C", "4", "4"), 70), (("C", "3", "6"), 84)], ids=["C 4 4", "C 3 6"])
def test_c_type_families_pass_every_fusion_command(family, torus):
    # a bound on the folded handle once refused both with exit 2
    code, report = run_command(["dims", "lie", *family, "--surface", "g=1[]"])
    assert code == 0
    assert report.machine["state_dim"] == report.machine["state_dim_verlinde"] == torus
    for argv in (["characters"], ["scaling", "--mode", "strict"], ["verify"]):
        assert run_command([argv[0], "lie", *family, *argv[1:]])[0] == 0


def test_characters_command_json():
    code, report = run_command(["--json", "characters", "su", "3", "2"])
    assert code == 0
    doc = json.loads(report.human)
    assert doc["invariant_factors"] == [3]
    assert doc["free_rank"] == 0
    assert doc["certificate"] is None
    assert doc["fundamental_symplectic"]["0"] == "0"


def test_scaling_command():
    for mode in ("canonical", "strict"):
        code, report = run_command(["scaling", "su", "2", "3", "--mode", mode])
        assert code == 0
        assert report.machine["max_residual"] < 1e-12
        assert report.machine["max_pair_residual"] < 1e-12
    code, report = run_command(["--json", "scaling", "su", "2", "2"])
    doc = json.loads(report.human)
    assert abs(doc["u"]["1"][0] - 2.0 ** 0.125) < 1e-12
    assert abs(doc["u"]["1"][1]) < 1e-12


def test_scaling_checks_pass_on_every_builtin_family():
    for tokens in builtin_tokens():
        for mode in ("canonical", "strict"):
            code, report = run_command(["scaling", *map(str, tokens), "--mode", mode])
            assert code == 0, (tokens, mode)
            for key in ("max_residual", "max_pair_residual", "max_sign_check"):
                assert report.machine[key] < 1e-9, (tokens, mode, key, report.machine[key])


def test_scaling_exits_1_on_a_failed_sign_check(monkeypatch):
    monkeypatch.setattr(cli, "self_duality_scalar", lambda data, sp, a: 2.0 + 0j)
    for mode in ("canonical", "strict"):
        code, report = run_command(["scaling", "su", "2", "3", "--mode", mode])
        assert code == 1
        assert report.machine["max_sign_check"] >= 1
        assert report.machine["max_residual"] < 1e-9 and report.machine["max_pair_residual"] < 1e-9


def test_characters_and_strict_scaling_report_the_certificate(monkeypatch):
    # lie G 2 1 has the trivial grading group, so a symplectic target on
    # its nontrivial label has no character: both commands take their
    # certificate branch
    monkeypatch.setattr(mf.characters, "_indicator_targets", lambda data: {"0.0": 0, "0.1": Fraction(1, 2)})
    family = ["lie", "G", "2", "1"]
    data = get_family(*family)
    found = mf.find_fundamental_symplectic_character(data, mf.dual_group(data, mf.verlinde_fusion(data)))
    assert isinstance(found, mf.InfeasibilityCertificate)
    code, report = run_command(["--json", "characters", *family])
    assert code == 1
    doc = json.loads(report.human)
    assert doc["certificate"] == {"coefficients": {"0.1": 1}, "target_sum": "1/2"}
    assert doc["fundamental_symplectic"] is None
    assert doc["invariant_factors"] == [] and doc["generators"] == []
    code, report = run_command(["characters", *family])
    assert code == 1
    assert report.human.splitlines()[2:] == [
        "fundamental symplectic character: none (certificate below)",
        "  certificate coefficients: {'0.1': 1}",
        "  certificate target sum: 1/2 (not an integer)",
    ]
    code, report = run_command(["--json", "scaling", *family, "--mode", "strict"])
    assert code == 1
    assert json.loads(report.human) == {"family": "lie G 2 1", "mode": "strict", "solvable": False}
    code, report = run_command(["scaling", *family, "--mode", "strict"])
    assert code == 1
    assert report.human == "family: lie G 2 1\nno fundamental symplectic character; strict scaling impossible"


def test_verify_command():
    code, report = run_command(["verify", "su", "2", "2"])
    assert code == 0
    checks = report.machine["families"]["su 2 2"]["checks"]
    assert checks["fusion-integral"] and checks["oracle-equivalence"]
    code, _ = run_command(["verify"])
    assert code == 2


def test_verify_refuses_slices_beyond_its_memory_budget(monkeypatch):
    # su 6 8 (n = 1287) is inside ScaleLimit, but its dense slices would need 17 GB
    code, report = run_command(["verify", "su", "6", "8"])
    assert code == 2
    assert report.machine["error"] == (
        "verify would hold n = 1287 dense fusion slices of n^2 int64, 17053975224 bytes, "
        "over its budget of 2147483648 bytes"
    )
    # a family whose slices fill the budget exactly is checked; one byte less refuses it
    data = get_family("su", 2, 2)
    monkeypatch.setattr(cli, "_VERIFY_SLICE_BUDGET", 8 * 3**3)
    assert all(cli._verify_family(data).values())
    monkeypatch.setattr(cli, "_VERIFY_SLICE_BUDGET", 8 * 3**3 - 1)
    with pytest.raises(mf.ScaleLimit, match="n = 3 dense"):
        cli._verify_family(data)


def test_export_round_trip(tmp_path):
    code, report = run_command(["export", "su", "2", "1"])
    assert code == 0
    path = tmp_path / "su21.json"
    path.write_text(report.human + "\n")
    loaded = mf.load_modular_data(path)
    orig = get_family("su", 2, 1)
    assert loaded.labels == orig.labels
    assert loaded.dual == orig.dual
    assert abs(loaded.S[1, 1] - orig.S[1, 1]) == 0.0  # bit-stable round trip
    code2, _ = run_command(["info", "file", str(path)])
    assert code2 == 0


def _load_corrupted_su22(tmp_path, corrupt):
    code, report = run_command(["export", "su", "2", "2"])
    assert code == 0
    doc = json.loads(report.human)
    corrupt(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return run_command(["info", "file", str(path)])


def test_info_rejects_nan_in_s(tmp_path):
    code, report = _load_corrupted_su22(tmp_path, lambda doc: doc["S"][0].__setitem__(1, [float("nan"), 0.0]))
    assert code == 2
    assert "S[0][1]" in report.machine["error"]


def test_info_rejects_infinite_twist(tmp_path):
    code, report = _load_corrupted_su22(tmp_path, lambda doc: doc["theta"].__setitem__("1", [float("inf"), 0.0]))
    assert code == 2
    assert "theta['1']" in report.machine["error"]


def test_nonintegral_fusion_is_input_error(monkeypatch):
    monkeypatch.setenv("MF_TOL", "1e-20")
    code, report = run_command(["dims", "su", "2", "2", "--surface", "g=1[]"])
    assert code == 2
    assert "fusion coefficients deviate from integers" in report.machine["error"]


def test_verify_reports_nonintegral_fusion(monkeypatch):
    monkeypatch.setenv("MF_TOL", "1e-20")
    code, report = run_command(["verify", "su", "2", "2"])
    assert code == 1
    assert report.machine["families"]["su 2 2"]["checks"]["fusion-integral"] is False


def test_verify_reports_undecided_closed_form_as_failed_check(monkeypatch):
    def undecided(data, surface):
        raise mf.InvalidModularData("character sum is not an integer within tolerance")

    monkeypatch.setattr(cli, "state_dim_verlinde", undecided)
    code, report = run_command(["--json", "verify", "su", "2", "2"])
    assert code == 1
    checks = json.loads(report.human)["families"]["su 2 2"]["checks"]
    assert checks["oracle-equivalence"] is False
    assert all(ok for name, ok in checks.items() if name != "oracle-equivalence")


def test_verify_file_failing_validation_fails_checks(tmp_path):
    code, report = run_command(["export", "su", "2", "2"])
    doc = json.loads(report.human)
    turned = complex(*doc["theta"]["2"]) * cmath.exp(0.1j)
    doc["theta"]["2"] = [turned.real, turned.imag]
    path = tmp_path / "turned.json"
    path.write_text(json.dumps(doc))
    code, report = run_command(["verify", "file", str(path)])
    assert code == 1
    assert report.machine["families"][f"file {path}"]["checks"]["ST-cubed"] is False
    assert "failed: ST-cubed" in report.human
    code, report = run_command(["info", "file", str(path)])
    assert code == 2
    assert "ST-cubed" in report.machine["error"]


def test_info_and_canonical_scaling_build_no_fusion_tensor(monkeypatch):
    # the reference outputs: the same commands on the layer that the fusion tensor keeps
    layer_argvs = [
        [*prefix, command, *family, *mode]
        for family in (["su", "4", "5"], ["lie", "D", "4", "2"])
        for command, mode in (("characters", []), ("scaling", ["--mode", "strict"]))
        for prefix in ([], ["--json"])
    ]
    monkeypatch.setattr(cli, "current_layer", mf.verlinde_fusion)
    via_fusion = [run_command(argv) for argv in layer_argvs]
    monkeypatch.undo()

    def refuse(data):
        raise AssertionError("verlinde_fusion called")

    monkeypatch.setattr(cli, "verlinde_fusion", refuse)
    monkeypatch.setattr(modular_data, "verlinde_fusion", refuse)
    assert run_command(["info", "su", "4", "5"])[0] == 0
    assert run_command(["scaling", "su", "4", "5", "--mode", "canonical"])[0] == 0
    for argv, (code, report) in zip(layer_argvs, via_fusion):
        assert code == 0, report.human
        assert run_command(argv)[1].human == report.human, argv


# lie families whose Verlinde check fails in floats (the handle deviates), with
# the invariant factors of their grading group, the centre of the simply connected group
REFUSED_LIE = {("B", 3, 15): [2], ("G", 2, 50): [], ("C", 4, 5): [2], ("A", 2, 40): [3]}


@pytest.mark.parametrize("family", sorted(REFUSED_LIE), ids=lambda t: " ".join(map(str, t)))
def test_characters_and_strict_scaling_need_only_the_current_layer(family):
    tokens = ["lie", *map(str, family)]
    data = get_family(*tokens)
    with pytest.raises(mf.NonIntegralFusion, match="handle operator deviates"):
        mf.verlinde_fusion(data)
    code, report = run_command(["characters", *tokens])
    assert code == 0, report.human
    factors = report.machine["invariant_factors"]
    assert factors == REFUSED_LIE[family]
    assert tuple(factors) == lattice_fundamental_group(mf.LieData(*family).cartan).invariant_factors
    assert report.machine["fundamental_symplectic"] is not None
    code, report = run_command(["scaling", *tokens, "--mode", "strict"])
    assert code == 0, report.human
    code, report = run_command(["dims", *tokens, "--surface", "g=1[]"])
    assert code == 2
    assert "handle operator deviates" in report.machine["error"]


@pytest.mark.parametrize("family, torus", [(("4", "3"), 20), (("4", "4"), 35), (("6", "3"), 56)])
def test_loose_tolerance_does_not_call_a_unit_row_entry_zero(monkeypatch, family, torus):
    # MF_TOL=0.1 lies above the least |S_0r| of each (0.084 on su 4 3)
    monkeypatch.setenv("MF_TOL", "0.1")
    data = get_family("su", *family)
    assert np.abs(data.S[data.index(data.zero)]).min() < 0.1
    code, report = run_command(["dims", "su", *family, "--surface", "g=1[]"])
    assert code == 0, report.human
    assert report.machine["state_dim"] == report.machine["state_dim_verlinde"] == torus


@pytest.mark.parametrize(
    "family", [("su", "2", "2"), ("su", "4", "3"), ("su", "4", "4"), ("su", "6", "3"), ("lie", "C", "3", "2")],
    ids=" ".join,
)
def test_loose_tolerance_gives_the_default_outputs(monkeypatch, family):
    # at MF_TOL=0.01 a window of 100 tol reached 0 from +-1 in fs_indicators, and
    # at MF_TOL=0.1 S_00 (0.084 on su 4 3) was called zero by quantum_dims
    def outputs():
        out = {}
        for argv in (["info"], ["characters"], ["scaling"], ["scaling", "--mode", "strict"]):
            code, report = run_command([argv[0], *family, *argv[1:]])
            machine = dict(report.machine)
            machine.pop("tol", None)
            out[" ".join(argv)] = (code, machine)
        return out

    monkeypatch.delenv("MF_TOL", raising=False)
    want = outputs()
    assert want["info"][0] == 0 and want["info"][1]["fs"]
    for tol in ("0.01", "0.1"):
        monkeypatch.setenv("MF_TOL", tol)
        assert outputs() == want, tol


def _export(tmp_path, family, tol=None):
    """Path of the exported document of `family`, with its metadata.tol set to `tol` if given."""
    code, report = run_command(["export", *family])
    assert code == 0
    doc = json.loads(report.human)
    if tol is not None:
        doc["metadata"]["tol"] = tol
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_file_input_uses_its_metadata_tol_unless_mf_tol_is_set(monkeypatch, tmp_path):
    path = _export(tmp_path, ["su", "2", "2"], tol=1e-13)
    code, report = run_command(["info", "file", path])
    assert code == 0 and report.machine["tol"] == 1e-13
    assert mf.parse_family(["file", path])[0].tol == 1e-13
    assert mf.parse_family(["su", "2", "2"])[0].tol == mf.DEFAULT_TOL
    monkeypatch.setenv("MF_TOL", "1e-10")
    code, report = run_command(["info", "file", path])
    assert code == 0 and report.machine["tol"] == 1e-10
    code, report = run_command(["info", "su", "2", "2"])
    assert code == 0 and report.machine["tol"] == 1e-10


@pytest.mark.parametrize("route", ["metadata", "MF_TOL"])
def test_file_with_nonintegral_fusion_is_refused_at_load(monkeypatch, tmp_path, route):
    # su 4 4 passes validation at 1e-13, but its fusion deviation is 3.4e-13
    if route == "metadata":
        path = _export(tmp_path, ["su", "4", "4"], tol=1e-13)
    else:
        path = _export(tmp_path, ["su", "4", "4"])
        monkeypatch.setenv("MF_TOL", "1e-13")
    data = mf.load_modular_data(path, tol=1e-13)
    assert mf.validate_modular_data(data).ok
    for argv in (
        ["info"],
        ["export"],
        ["characters"],
        ["scaling", "--mode", "canonical"],
        ["scaling", "--mode", "strict"],
        ["dims", "--surface", "g=1[]"],
    ):
        code, report = run_command([argv[0], "file", path, *argv[1:]])
        assert code == 2, argv
        error = report.machine["error"]
        assert error.startswith("fusion coefficients deviate from integers by "), argv
        assert 1e-13 < float(error.split()[6]) < 1e-12, error
    code, report = run_command(["--json", "verify", "file", path])
    assert code == 1
    assert report.machine["families"][f"file {path}"]["checks"] == {"axioms": True, "fusion-integral": False}


def test_dims_characters_strict_scaling_read_no_dense_tensor(monkeypatch):
    def refuse(self):
        raise AssertionError("dense fusion tensor read")

    monkeypatch.setattr(mf.FusionTensor, "N", property(refuse))
    assert run_command(["dims", "su", "4", "5", "--surface", "g=2[1,1]"])[0] == 0
    assert run_command(["characters", "su", "4", "5"])[0] == 0
    assert run_command(["scaling", "su", "4", "5", "--mode", "strict"])[0] == 0


def test_dims_builds_only_the_slice_it_reads(monkeypatch):
    built = []
    init = mf.FusionTensor.__init__

    def counting_init(self, labels, slice_of, handle):
        def counted(j):
            built.append(j)
            return slice_of(j)

        init(self, labels, counted, handle)

    monkeypatch.setattr(mf.FusionTensor, "__init__", counting_init)
    assert run_command(["dims", "su", "4", "5", "--surface", "g=2[1,1]"])[0] == 0
    assert built == [get_family("su", 4, 5).index("1")]


def test_verify_reads_no_dense_tensor(monkeypatch):
    def refuse(self):
        raise AssertionError("dense fusion tensor read")

    monkeypatch.setattr(mf.FusionTensor, "N", property(refuse))
    code, report = run_command(["verify", "su", "4", "5"])
    assert code == 0
    assert all(report.machine["families"]["su 4 5"]["checks"].values())


def _dense_identity_flags(data, N):
    """The four fusion identities written on the dense stack N[i, j, k] = N_{ij}^k."""
    n = data.n
    z = data.index(data.zero)
    dual = [data.dual_index(i) for i in range(n)]
    eye = np.eye(n, dtype=N.dtype)
    return {
        "fusion-unit": np.array_equal(N[z], eye),
        "fusion-duality": np.array_equal(N[:, :, z], eye[dual]),
        "fusion-commutative": np.array_equal(N, N.transpose(1, 0, 2)),
        # N_{xj}^y = N_{y j*}^x; agrees with N_{ij}^k = N_{i* k}^j on commutative tensors
        "fusion-rigidity": np.array_equal(N, N[:, dual].transpose(2, 1, 0)),
    }


def _corrupt_unit_row(N, z):
    N[z, 1, 1], N[z, 1, 2] = 0, 1


def _corrupt_duality_column(N, z):
    N[1, 1, z] += 1


def _corrupt_one_entry(N, z):
    N[0, 1, 1] += 1


def _corrupt_symmetric_pair(N, z):  # stays commutative, breaks rigidity only
    N[1, 2, 1] += 1
    N[2, 1, 1] += 1


@pytest.mark.parametrize("family", [("su", 2, 2), ("su", 3, 2)])
@pytest.mark.parametrize(
    "corrupt", [None, _corrupt_unit_row, _corrupt_duality_column, _corrupt_one_entry, _corrupt_symmetric_pair]
)
def test_verify_fusion_identities_match_dense_oracle(monkeypatch, family, corrupt):
    data = get_family(*family)
    true = mf.verlinde_fusion(data)
    N = np.array(true.N)
    if corrupt is not None:
        corrupt(N, data.index(data.zero))
    broken = mf.FusionTensor(data.labels, lambda j: N[:, j, :].copy(), true.handle)
    monkeypatch.setattr(cli, "verlinde_fusion", lambda data: broken)
    checks = cli._verify_family(data)
    want = _dense_identity_flags(data, N)
    assert {name: checks[name] for name in want} == want
    assert all(want.values()) == (corrupt is None)
    # the n^2 twice-punctured spheres of the recursion, asked one by one
    twice = all(
        mf.state_dim(data, broken, mf.sphere_with_labels([a, b])) == (b == data.dual[a])
        for a in data.labels
        for b in data.labels
    )
    assert checks["twice-punctured-sphere"] == twice == want["fusion-duality"]


def test_once_punctured_sphere_reads_the_unit_slice(monkeypatch):
    # every slice zero, handle correct: dim(0; i, 0) = [i = 0] must fail
    data = get_family("su", 3, 2)
    true = mf.verlinde_fusion(data)
    empty = mf.FusionTensor(data.labels, lambda j: np.zeros((data.n, data.n), dtype=np.int64), true.handle)
    monkeypatch.setattr(cli, "verlinde_fusion", lambda data: empty)
    assert cli._verify_family(data)["once-punctured-sphere"] is False


def test_torus_dim_reads_the_handle(monkeypatch):
    # slices correct, H_00 off by one: dim(1; ) = n must fail
    data = get_family("su", 3, 2)
    true = mf.verlinde_fusion(data)
    handle = np.array(true.handle)
    z = data.index(data.zero)
    handle[z, z] += 1
    broken = mf.FusionTensor(data.labels, true.slice, handle)
    monkeypatch.setattr(cli, "verlinde_fusion", lambda data: broken)
    assert cli._verify_family(data)["torus-dim"] is False


def test_verify_all_passes_with_the_same_checks():
    code, report = run_command(["verify", "--all"])
    assert code == 0
    families = report.machine["families"]
    assert len(families) == 33 and all(fam["ok"] for fam in families.values())
    assert {tuple(fam["checks"]) for fam in families.values()} == {VERIFY_CHECKS}


def _stride_draws(data, first, count, size):
    """The fixed rule of the CLI: point s of test surface t gets label (1 + 3s + 5t) mod n."""
    return [[data.labels[(1 + 3 * s + 5 * t) % data.n] for s in range(size)] for t in range(first, first + count)]


def test_verify_gluing_draws_are_distinct_identities(monkeypatch):
    seen = []
    real = cli.check_gluing_dimension

    def record(data, fusion, a, p, q):
        seen.append((a, p, q))
        return real(data, fusion, a, p, q)

    monkeypatch.setattr(cli, "check_gluing_dimension", record)
    data = get_family("su", 3, 2)
    code, report = run_command(["verify", "su", "3", "2"])
    assert code == 0 and report.machine["families"]["su 3 2"]["checks"]["gluing-dimension"]
    drawn = _stride_draws(data, 0, 4, 2)  # surfaces t = 0..3 of _verify_family
    assert len({tuple(labs) for labs in drawn}) == 4
    assert len(seen) == 4
    for (a, p, q), labs in zip(seen, drawn):
        (component,) = a.components
        kept = [pt.label for pt in component.points if pt.id not in (p, q)]
        assert component.genus == 1 and kept == labs


def test_verify_oracle_surfaces_are_the_fixed_draws(monkeypatch):
    seen = []
    real = cli.state_dim_verlinde

    def record(data, a):
        seen.append(a)
        return real(data, a)

    monkeypatch.setattr(cli, "state_dim_verlinde", record)
    data = get_family("su", 3, 2)
    code, report = run_command(["verify", "su", "3", "2"])
    assert code == 0 and report.machine["families"]["su 3 2"]["checks"]["oracle-equivalence"]
    drawn = _stride_draws(data, 4, 3, 3)  # surfaces t = 4..6, after the four gluing ones
    assert len({tuple(labs) for labs in drawn}) == 3
    assert [(c.genus, [pt.label for pt in c.points]) for (c,) in (a.components for a in seen)] == list(
        zip((0, 1, 2), drawn)
    )


def test_scaling_sign_checks_are_the_fixed_draws(monkeypatch):
    seen = []
    real = cli.self_duality_scalar

    def record(data, sp, a):
        seen.append(a)
        return real(data, sp, a)

    monkeypatch.setattr(cli, "self_duality_scalar", record)
    # n = 8 is prime to the stride 5 over surfaces, so the 8 spheres are distinct;
    # both modes check the same spheres
    data = get_family("su", 2, 7)
    code, report = run_command(["scaling", "su", "2", "7"])
    assert code == 0
    drawn = _stride_draws(data, 0, 8, 3)
    assert len({tuple(labs) for labs in drawn}) == 8
    assert [(c.genus, [pt.label for pt in c.points]) for (c,) in (a.components for a in seen)] == [
        (0, labs) for labs in drawn
    ]


def test_verify_refuses_family_tokens_with_all(capsys):
    assert main(["verify", "su", "2", "2", "--all"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: verify: give family tokens or --all, not both\n"


def test_mf_tol_env(monkeypatch):
    monkeypatch.setenv("MF_TOL", "abc")
    code, report = run_command(["info", "su", "2", "1"])
    assert code == 2
    for raw in ("-1", "inf", "nan"):
        monkeypatch.setenv("MF_TOL", raw)
        code, report = run_command(["info", "su", "2", "1"])
        assert code == 2
        assert report.human.startswith("error: MF_TOL: ") and "\n" not in report.human
    monkeypatch.setenv("MF_TOL", "0.001")
    code, report = run_command(["info", "su", "2", "1"])
    assert code == 0
    assert report.machine["tol"] == 0.001


def test_main_prints_to_streams(capsys):
    assert main(["info", "su", "2", "1"]) == 0
    out = capsys.readouterr()
    assert "family" in out.out and out.err == ""
    assert main(["info", "su", "99", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err != ""


@pytest.mark.parametrize(
    "calls",
    [
        (["info"], ["info", "su", "2", "1"]),
        (["dims", "su", "2", "2"], ["dims", "su", "2", "2", "--surface", "g=1[]"]),
        (["--json", "info", "su", "2", "2"], ["info", "su", "2", "2"]),
        (["--json", "verify", "su", "2", "2"], ["verify", "su", "2", "2"], ["--json", "export", "su", "2", "1"]),
    ],
    ids=["usage-error-then-info", "usage-error-then-dims", "json-then-text", "json-text-json"],
)
def test_reused_parser_carries_no_state_between_calls(calls):
    def outcome(result):
        code, report = result
        return code, report.machine, report.human

    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(outcome(run_command(argv)))
    cli._build_parser.cache_clear()
    assert [outcome(run_command(argv)) for argv in calls] == fresh
    assert cli._build_parser() is cli._build_parser()


def test_json_export_is_the_export_text(tmp_path, capsys):
    path = tmp_path / "su33.json"
    assert main(["export", "su", "3", "3"]) == 0
    path.write_text(capsys.readouterr().out)
    for family in (["su", "3", "3"], ["file", str(path)]):
        assert main(["export", *family]) == 0
        text = capsys.readouterr().out
        assert main(["--json", "export", *family]) == 0
        assert capsys.readouterr().out == text
        code, report = run_command(["--json", "export", *family])
        assert report.human + "\n" == text
        assert report.machine == json.loads(text)
    original = path.read_text()
    assert mf.dumps_modular_data(mf.load_modular_data(path), json.loads(original)["metadata"]) == original


@pytest.mark.parametrize(
    "corrupt, field",
    [
        (lambda doc: doc["S"][0][0].__setitem__(1, 10**400), "S[0][0]"),
        (lambda doc: doc["theta"]["1"].__setitem__(1, 10**400), "theta['1']"),
    ],
    ids=["S", "theta"],
)
def test_integer_beyond_float_range_is_one_error_line(tmp_path, capsys, corrupt, field):
    doc = mf.modular_data_to_dict(get_family("su", 2, 1))
    corrupt(doc)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["info", "file", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {field}: ") and out.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "su", "2", "2", "--surface", "g=0[x]"],
        ["verify"],
        ["dims", "su", "2", "2", "--surface", "torus"],
    ],
)
def test_refusals_print_one_error_line(capsys, argv):
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "su", "2", "2", "--surface", "g=600[]"],
        ["dims", "su", "3", "2", "--surface", "g=300[1,1]"],
        ["dims", "su", "3", "3", "--surface", "g=100000[]"],
    ],
)
def test_dims_refuses_an_overflowing_closed_form(capsys, monkeypatch, argv):
    # the S-matrix sum overflows to inf (or NaN) before it could be rounded,
    # and the refusal comes before the recursion, quadratic in the genus, runs
    def recursion(*args):
        raise AssertionError("the fusion recursion ran")

    monkeypatch.setattr(cli, "state_dim", recursion)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert "Traceback" not in out.err and "RuntimeWarning" not in out.err


def test_main_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_star_import_binds_the_api_and_no_submodule():
    namespace = {}
    exec("from modfunctor import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == mf.__all__
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert "YoungDiagram" not in namespace and "su_level_labels" in namespace


def test_runtime_never_imports_sympy():
    # sympy is a test-only oracle; the Smith form of the grading group is in
    # Python ints, so a fresh interpreter running the commands never loads it
    script = (
        "import sys\n"
        "import modfunctor\n"
        "from modfunctor.cli import run_command\n"
        "for argv in (['characters', 'su', '2', '1'], ['scaling', 'su', '3', '1', '--mode', 'strict'],"
        " ['verify', '--all']):\n"
        "    assert run_command(argv)[0] == 0, argv\n"
        "print('sympy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_no_command_imports_numpy_random():
    # importing numpy.random alone adds about 6 MB to the peak RSS of a run;
    # numpy releases that load it on import are the baseline, not a failure
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = "print('numpy.random' in sys.modules)\n"
    script = (
        "import sys\n"
        "from modfunctor.cli import run_command\n"
        "for argv in (['dims', 'su', '4', '6', '--surface', 'g=2[1,1]'], ['characters', 'su', '4', '6'],"
        " ['verify', '--all'], ['verify', 'su', '3', '2'], ['scaling', 'su', '4', '6', '--mode', 'strict'],"
        " ['scaling', 'su', '4', '6', '--mode', 'canonical']):\n"
        "    assert run_command(argv)[0] == 0, argv\n"
    )
    runs = [
        subprocess.run([sys.executable, "-c", code + probe], env=env, capture_output=True, text=True, check=True)
        for code in ("import sys\nimport numpy\n", script)
    ]
    baseline, after = (run.stdout.strip() for run in runs)
    assert after == baseline
