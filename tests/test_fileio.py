"""JSON interchange: round trips, canonical form, and field-level errors."""

import json

import numpy as np
import pytest

import modfunctor as mf
from conftest import get_family


def test_round_trip_is_bit_stable(tmp_path, su23):
    path = tmp_path / "data.json"
    mf.save_modular_data(su23, path, metadata={"tol": su23.tol})
    loaded = mf.load_modular_data(path)
    assert loaded.labels == su23.labels
    assert loaded.zero == su23.zero
    assert loaded.dual == su23.dual
    assert loaded.tol == su23.tol
    assert np.array_equal(loaded.S, su23.S)
    assert loaded.theta == su23.theta
    # a second dump of the loaded data is byte-identical
    assert mf.dumps_modular_data(loaded, {"tol": su23.tol}) == path.read_text()


def test_dumps_is_canonical(su21):
    text = mf.dumps_modular_data(su21)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["schema_version"] == "1"
    assert list(doc) == sorted(doc)


def test_missing_field_is_named(su21):
    doc = mf.modular_data_to_dict(su21)
    del doc["theta"]
    with pytest.raises(mf.FileFormatError, match="theta"):
        mf.modular_data_from_dict(doc)


def test_wrong_schema_version(su21):
    doc = mf.modular_data_to_dict(su21)
    doc["schema_version"] = "2"
    with pytest.raises(mf.FileFormatError, match="schema_version"):
        mf.modular_data_from_dict(doc)


def test_bad_matrix_shape(su21):
    doc = mf.modular_data_to_dict(su21)
    doc["S"] = doc["S"][:1]
    with pytest.raises(mf.FileFormatError, match="S"):
        mf.modular_data_from_dict(doc)
    doc = mf.modular_data_to_dict(su21)
    doc["S"][0][0] = "one"
    with pytest.raises(mf.FileFormatError, match=r"S\[0\]\[0\]"):
        mf.modular_data_from_dict(doc)


def test_missing_theta_entry(su21):
    doc = mf.modular_data_to_dict(su21)
    del doc["theta"]["1"]
    with pytest.raises(mf.FileFormatError, match="theta"):
        mf.modular_data_from_dict(doc)


def test_axiom_violation_reports(su21):
    doc = mf.modular_data_to_dict(su21)
    doc["S"][0][1][0] += 0.25  # break S-symmetry numerically
    with pytest.raises(mf.ValidationFailure):
        mf.modular_data_from_dict(doc)


def test_invalid_json_names_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": "1",\n  "labels": [}\n')
    with pytest.raises(mf.FileFormatError, match="line 2"):
        mf.load_modular_data(path)


def test_tol_override(tmp_path, su21):
    path = tmp_path / "data.json"
    mf.save_modular_data(su21, path)
    loaded = mf.load_modular_data(path, tol=1e-6)
    assert loaded.tol == 1e-6
    default = mf.load_modular_data(path)
    assert default.tol == mf.DEFAULT_TOL


def test_metadata_tol_is_read(su21):
    doc = mf.modular_data_to_dict(su21, metadata={"tol": 1e-7})
    assert mf.modular_data_from_dict(doc).tol == 1e-7


@pytest.mark.parametrize(
    "tol",
    ["abc", "1e-6", None, [1], True, 0, -1e-6, pytest.param(10**400, id="int-above-float-range"), float("inf"), float("nan")],
)
def test_bad_metadata_tol_names_the_field(su21, tol):
    doc = mf.modular_data_to_dict(su21, metadata={"tol": tol})
    with pytest.raises(mf.FileFormatError, match="metadata.tol"):
        mf.modular_data_from_dict(doc)
