"""JSON interchange: round trips, canonical form, and field-level errors."""

import json
import re

import numpy as np
import pytest

import modfunctor as mf
from conftest import builtin_tokens, get_family


def json_oracle(data, metadata=None):
    """The canonical text through json's own encoder: the writer's byte-identity oracle."""
    return json.dumps(mf.modular_data_to_dict(data, metadata), sort_keys=True, indent=2) + "\n"


WRITER_FAMILIES = [*builtin_tokens(), ("su", 4, 8)]


def _family_id(tokens):
    return " ".join(map(str, tokens))


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


@pytest.mark.parametrize("tokens", WRITER_FAMILIES, ids=_family_id)
def test_writer_matches_json_oracle(tokens):
    data = get_family(*tokens)
    meta = {"family": _family_id(tokens), "tol": data.tol}
    assert mf.dumps_modular_data(data) == json_oracle(data)
    assert mf.dumps_modular_data(data, meta) == json_oracle(data, meta)


def test_writer_matches_json_oracle_on_any_metadata(su23):
    meta = {
        "tol": 1e-9,
        "source": {"table": [1, 2.5, {"z": None, "a": [True, -0.0]}], "empty": {}, "none": []},
        "author": "Bakalov–Kirillov, naïve ✓",
        "count": 7,
        "ratio": 0.1,
    }
    assert mf.dumps_modular_data(su23, meta) == json_oracle(su23, meta)


@pytest.mark.parametrize("tokens", builtin_tokens(), ids=_family_id)
def test_dump_load_dump_keeps_signed_zeros(tokens):
    data = get_family(*tokens)
    text = mf.dumps_modular_data(data, {"tol": data.tol})
    loaded = mf.modular_data_from_dict(json.loads(text))
    assert mf.dumps_modular_data(loaded, {"tol": data.tol}) == text
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(loaded.S)), np.signbit(part(data.S)))
        theta = [loaded.theta[lab] for lab in data.labels]
        assert np.array_equal(np.signbit(part(theta)), np.signbit(part([data.theta[lab] for lab in data.labels])))


def test_signed_zeros_occur_in_the_round_trip_families(su23):
    # keeps the test above from passing vacuously
    assert np.any((su23.S.imag == 0) & np.signbit(su23.S.imag))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda S: S[0].__setitem__(0, [True, 0.0]), "S[0][0]: expected a [re, im] number pair"),
        (lambda S: S[0][1].__setitem__(0, "0.5"), "S[0][1]: expected a [re, im] number pair"),
        (lambda S: S[1][0].append(0.0), "S[1][0]: expected a [re, im] number pair"),
        (lambda S: S[1].pop(), "S[1]: expected 2 entries"),
        (lambda S: S.__setitem__(1, tuple(S[1])), "S[1]: expected 2 entries"),
    ],
    ids=["bool", "string", "three-element-pair", "short-row", "tuple-row"],
)
def test_reader_names_the_bad_entry(su21, corrupt, message):
    doc = mf.modular_data_to_dict(su21)
    corrupt(doc["S"])
    with pytest.raises(mf.FileFormatError, match=f"^{re.escape(message)}$"):
        mf.modular_data_from_dict(doc)


def test_reader_accepts_tuple_pairs_and_float_subclasses(su23):
    doc = mf.modular_data_to_dict(su23)
    doc["S"] = [[tuple(pair) for pair in row] for row in doc["S"]]
    doc["S"][1][2] = [np.float64(x) for x in doc["S"][1][2]]
    doc["theta"]["1"] = tuple(np.float64(x) for x in doc["theta"]["1"])
    loaded = mf.modular_data_from_dict(doc)
    assert np.array_equal(loaded.S, su23.S)
    assert np.array_equal(np.signbit(loaded.S.imag), np.signbit(su23.S.imag))
    assert loaded.theta == su23.theta


def test_reader_accepts_integer_entries(su21):
    doc = mf.modular_data_to_dict(su21)
    doc["theta"]["0"] = [1, 0]
    assert mf.modular_data_from_dict(doc).theta["0"] == 1


@pytest.mark.parametrize(
    "corrupt, field",
    [
        (lambda doc: doc["S"][0][0].__setitem__(1, 10**400), "S[0][0]"),
        (lambda doc: doc["theta"]["1"].__setitem__(1, 10**400), "theta['1']"),
    ],
    ids=["S", "theta"],
)
def test_integer_beyond_float_range_names_the_field(su21, corrupt, field):
    doc = mf.modular_data_to_dict(su21)
    corrupt(doc)
    with pytest.raises(mf.FileFormatError, match=f"^{re.escape(field)}: "):
        mf.modular_data_from_dict(doc)
