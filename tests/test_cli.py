"""CLI surface: parsing, subcommands, exit codes, JSON output."""

import cmath
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modfunctor as mf
from modfunctor import cli, modular_data
from modfunctor.cli import UsageError, main, parse_surface_literal, run_command
from conftest import get_family


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


def test_verify_command():
    code, report = run_command(["verify", "su", "2", "2"])
    assert code == 0
    checks = report.machine["families"]["su 2 2"]["checks"]
    assert checks["fusion-integral"] and checks["oracle-equivalence"]
    code, _ = run_command(["verify"])
    assert code == 2


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
    def refuse(data, atol=None):
        raise AssertionError("verlinde_fusion called")

    monkeypatch.setattr(cli, "verlinde_fusion", refuse)
    monkeypatch.setattr(modular_data, "verlinde_fusion", refuse)
    assert run_command(["info", "su", "4", "5"])[0] == 0
    assert run_command(["scaling", "su", "4", "5", "--mode", "canonical"])[0] == 0


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
    rng = np.random.default_rng(11)  # the draws of _verify_family
    drawn = [[data.labels[int(t)] for t in rng.integers(0, data.n, size=2)] for _ in range(4)]
    assert len(seen) == 4
    for (a, p, q), labs in zip(seen, drawn):
        (component,) = a.components
        kept = [pt.label for pt in component.points if pt.id not in (p, q)]
        assert component.genus == 1 and kept == labs


def test_mf_tol_env(monkeypatch):
    monkeypatch.setenv("MF_TOL", "abc")
    code, report = run_command(["info", "su", "2", "1"])
    assert code == 2
    monkeypatch.setenv("MF_TOL", "-1")
    code, report = run_command(["info", "su", "2", "1"])
    assert code == 2
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


def test_main_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


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
