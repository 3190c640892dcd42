"""JSON interchange for modular data.

A document (schema_version "1") stores the label list, unit label, dual
map, S-matrix and twists, with every complex number written as a
[re, im] pair of floats.  Serialization is canonical — sorted keys,
two-space indent, ``float.__repr__`` for every number, a trailing newline —
so equal data produce byte-identical documents and a dump/load cycle is
bit-stable.

The writer emits that text itself: it formats the 2n² floats of S in one
``repr`` pass and joins them with the fixed indent separators, and passes
only the small fields through ``json.dumps``, whose indented encoder runs in
pure Python.  The text is byte-identical to ``modular_data_to_dict`` passed
through ``json.dumps(..., sort_keys=True, indent=2)`` plus a newline, the
writer's oracle in the tests.
The reader converts S in one ``np.array`` call when every row is a list of
[int or float, int or float] lists, and otherwise checks entry by entry, so
a malformed entry is named.
"""

from __future__ import annotations

import json
import sys
from itertools import chain

import numpy as np

from .modular_data import (
    DEFAULT_TOL,
    ModularData,
    ValidationFailure,
    validate_modular_data,
)

__all__ = [
    "SCHEMA_VERSION",
    "FileFormatError",
    "modular_data_to_dict",
    "modular_data_from_dict",
    "dumps_modular_data",
    "load_modular_data",
    "save_modular_data",
]

SCHEMA_VERSION = "1"


class FileFormatError(ValueError):
    """A document is structurally unusable; the message names the field."""


def _pair(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _unpair(value, field):
    ok = (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    )
    if not ok:
        raise FileFormatError(f"{field}: expected a [re, im] number pair")
    try:
        return complex(float(value[0]), float(value[1]))
    except OverflowError:  # a JSON integer may exceed every float
        raise FileFormatError(f"{field}: number out of float range") from None


def _s_pairs(S):
    """S as an n x n x 2 float array of [re, im] pairs."""
    return np.stack((S.real, S.imag), -1)


def _small_fields(data, metadata):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "labels": list(data.labels),
        "zero": data.zero,
        "dual": {lab: data.dual[lab] for lab in data.labels},
        "theta": {lab: _pair(data.theta[lab]) for lab in data.labels},
    }
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc


def modular_data_to_dict(data, metadata=None):
    """Plain-dict form of `data`, ready for json.dump."""
    doc = _small_fields(data, metadata)
    doc["S"] = _s_pairs(data.S).tolist()
    return doc


# json's indent=2 separators inside S: between numbers, pairs and rows
_NUMBER_SEP = ",\n        "
_PAIR_SEP = "\n      ],\n      [\n        "
_ROW_SEP = "\n      ]\n    ],\n    [\n      [\n        "


def _s_text(S):
    """The S block as json.dumps(..., indent=2) writes it at depth 1."""
    n = len(S)
    it = iter(map(repr, _s_pairs(S).ravel().tolist()))
    pairs = list(map(_NUMBER_SEP.join, zip(it, it)))
    rows = _ROW_SEP.join(_PAIR_SEP.join(pairs[i:i + n]) for i in range(0, n * n, n))
    return "[\n    [\n      [\n        " + rows + "\n      ]\n    ]\n  ]"


def dumps_modular_data(data, metadata=None):
    """Canonical JSON text (sorted keys, indent 2, trailing newline)."""
    # "S" sorts before every lowercase key, so the small fields follow its block
    rest = json.dumps(_small_fields(data, metadata), sort_keys=True, indent=2)
    return '{\n  "S": ' + _s_text(data.S) + "," + rest[1:] + "\n"


def _plain_row(row, n):
    """True when `row` is a list of n [number, number] lists, bools excluded."""
    return (
        type(row) is list
        and len(row) == n
        and set(map(type, row)) == {list}
        and set(map(len, row)) == {2}
        and set(map(type, chain.from_iterable(row))) <= {int, float}
    )


def modular_data_from_dict(doc, tol=None):
    """Build validated ModularData from a parsed document.

    Structural problems raise FileFormatError naming the offending field;
    numeric axiom violations raise ValidationFailure carrying the report.
    """
    if not isinstance(doc, dict):
        raise FileFormatError("document: expected a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise FileFormatError(
            f"schema_version: expected {SCHEMA_VERSION!r}, got {version!r}"
        )
    for name in ("labels", "zero", "dual", "S", "theta"):
        if name not in doc:
            raise FileFormatError(f"{name}: missing required field")
    labels = doc["labels"]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise FileFormatError("labels: expected a list of strings")
    n = len(labels)
    if not isinstance(doc["zero"], str):
        raise FileFormatError("zero: expected a label string")
    dual = doc["dual"]
    if not isinstance(dual, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in dual.items()
    ):
        raise FileFormatError("dual: expected an object mapping labels to labels")
    rows = doc["S"]
    if not isinstance(rows, list) or len(rows) != n:
        raise FileFormatError(f"S: expected {n} rows, got {len(rows) if isinstance(rows, list) else type(rows).__name__}")
    S = None
    if all(_plain_row(row, n) for row in rows):
        try:
            # the pairs' memory read as complex keeps the sign of a zero part
            S = np.array(rows, dtype=float).reshape(n, n, 2).view(complex)[..., 0]
        except OverflowError:  # an integer beyond every float: the pass below names it
            pass
    if S is None:
        S = np.zeros((n, n), dtype=complex)
        for a, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != n:
                raise FileFormatError(f"S[{a}]: expected {n} entries")
            for b, value in enumerate(row):
                S[a, b] = _unpair(value, f"S[{a}][{b}]")
    theta_doc = doc["theta"]
    if not isinstance(theta_doc, dict):
        raise FileFormatError("theta: expected an object mapping labels to [re, im]")
    theta = {}
    for lab in labels:
        if lab not in theta_doc:
            raise FileFormatError(f"theta[{lab!r}]: missing entry")
        theta[lab] = _unpair(theta_doc[lab], f"theta[{lab!r}]")
    if tol is None:
        meta = doc.get("metadata")
        if isinstance(meta, dict) and "tol" in meta:
            tol = meta["tol"]
            # a JSON integer may exceed every float; NaN fails both comparisons
            if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol <= sys.float_info.max:
                raise FileFormatError(f"metadata.tol: expected a positive finite number, got {tol!r}")
        else:
            tol = DEFAULT_TOL
    data = ModularData(labels=labels, zero=doc["zero"], dual=dual, S=S, theta=theta, tol=tol)
    report = validate_modular_data(data)
    if not report.ok:
        raise ValidationFailure(report)
    return data


def load_modular_data(path, tol=None):
    """Read and validate a modular-data document from `path`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    return modular_data_from_dict(doc, tol=tol)


def save_modular_data(data, path, metadata=None):
    """Write the canonical document for `data` to `path`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_modular_data(data, metadata))
