"""JSON interchange for modular data.

A document (schema_version "1") stores the label list, unit label, dual
map, S-matrix and twists, with every complex number written as a
[re, im] pair of floats.  Serialization is canonical — sorted keys,
two-space indent — so equal data produce byte-identical documents and a
dump/load cycle is bit-stable.
"""

from __future__ import annotations

import json
import sys

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
    return complex(float(value[0]), float(value[1]))


def modular_data_to_dict(data, metadata=None):
    """Plain-dict form of `data`, ready for json.dump."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "labels": list(data.labels),
        "zero": data.zero,
        "dual": {lab: data.dual[lab] for lab in data.labels},
        "S": [[_pair(data.S[a, b]) for b in range(data.n)] for a in range(data.n)],
        "theta": {lab: _pair(data.theta[lab]) for lab in data.labels},
    }
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc


def dumps_modular_data(data, metadata=None):
    """Canonical JSON text (sorted keys, indent 2, trailing newline)."""
    return json.dumps(modular_data_to_dict(data, metadata), sort_keys=True, indent=2) + "\n"


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
