"""Named families of modular data and the textual family grammar.

A family is selected by whitespace tokens:

    su <N> <level>          special-unitary family
    lie <TYPE> <rank> <level>   simple type (A-D, F, G; rank <= 4) at a level
    file <path>             JSON document on disk

`parse_family` turns tokens into modular data plus metadata suitable for
export.  The `su` and `lie` builders run the structural checks of
:class:`~modfunctor.modular_data.ModularData` only; `file` input is also
put through :func:`~modfunctor.modular_data.validate_modular_data` and
then :func:`~modfunctor.modular_data.verlinde_fusion` when it is loaded,
so no command reads a document whose fusion rules are not integral.  The
BUILTIN_* tables drive the verification commands and the test suite.
"""

from __future__ import annotations

from .fileio import load_modular_data
from .lie import LieData, simple_lie_modular_data, su_modular_data
from .modular_data import DEFAULT_TOL, verlinde_fusion

__all__ = [
    "FamilyError",
    "BUILTIN_SU",
    "BUILTIN_LIE",
    "parse_family",
    "builtin_families",
]


class FamilyError(ValueError):
    """Unrecognized family tokens."""


BUILTIN_SU = tuple((N, k) for N in (2, 3, 4) for k in range(1, 6))

BUILTIN_LIE = tuple(
    (cartan_type, rank, level)
    for cartan_type, rank in (
        ("A", 1),
        ("A", 2),
        ("A", 3),
        ("B", 2),
        ("B", 3),
        ("C", 2),
        ("C", 3),
        ("D", 3),
        ("G", 2),
    )
    for level in (1, 2)
)


def parse_family(tokens, tol=None):
    """Resolve family tokens to (ModularData, metadata dict).

    With no `tol`, `su` and `lie` use DEFAULT_TOL and a document its
    `metadata.tol` (DEFAULT_TOL when it has none).  Raises FamilyError for
    malformed tokens; construction errors from the underlying builders, and
    a document's failed validation or fusion check, propagate unchanged.
    """
    tokens = [str(t) for t in tokens]
    if not tokens:
        raise FamilyError("empty family; expected 'su N k', 'lie TYPE RANK LEVEL' or 'file PATH'")
    kind = tokens[0].lower()
    if tol is None and kind != "file":  # a document reads its own
        tol = DEFAULT_TOL
    if kind == "su":
        if len(tokens) != 3:
            raise FamilyError("usage: su <N> <level>")
        try:
            N, k = int(tokens[1]), int(tokens[2])
        except ValueError as exc:
            raise FamilyError(f"su: N and level must be integers, got {tokens[1:]}") from exc
        data = su_modular_data(N, k, tol=tol)
        return data, {"family": f"su {N} {k}", "N": N, "k": k}
    if kind == "lie":
        if len(tokens) != 4:
            raise FamilyError("usage: lie <TYPE> <rank> <level>")
        cartan_type = tokens[1].upper()
        try:
            rank, level = int(tokens[2]), int(tokens[3])
        except ValueError as exc:
            raise FamilyError(f"lie: rank and level must be integers, got {tokens[2:]}") from exc
        ld = LieData(cartan_type, rank, level)
        data = simple_lie_modular_data(ld, tol=tol)
        return data, {"family": f"lie {cartan_type} {rank} {level}"}
    if kind == "file":
        if len(tokens) != 2:
            raise FamilyError("usage: file <path>")
        data = load_modular_data(tokens[1], tol=tol)
        verlinde_fusion(data)
        return data, {"family": f"file {tokens[1]}"}
    raise FamilyError(f"unknown family kind {tokens[0]!r}; expected su, lie or file")


def builtin_families(tol=None):
    """Yield (name, ModularData) over the built-in verification set."""
    for N, k in BUILTIN_SU:
        data, meta = parse_family(["su", N, k], tol=tol)
        yield meta["family"], data
    for cartan_type, rank, level in BUILTIN_LIE:
        data, meta = parse_family(["lie", cartan_type, rank, level], tol=tol)
        yield meta["family"], data
