"""Command-line interface.

Subcommands::

    info       <family>                     labels, dims, D, Gauss sum, indicators
    dims       <family> --surface LITERAL   state-space dimension by both oracles
    characters <family>                     dual group, generators, symplectic character
    scaling    <family> --mode MODE         canonical/strict scaling pair + residuals
    verify     <family> | --all             invariant suite; nonzero exit on failure
    export     <family>                     JSON document to stdout

A family is written as ``su N k``, ``lie TYPE RANK LEVEL`` or ``file PATH``.
A surface literal is ``g=<int>[label,...]`` per component, components joined
by ``+`` (e.g. ``"g=1[] + g=0[1,1]"``).  The environment variable MF_TOL
overrides the default tolerance.  ``--json`` switches output to the machine
section.  Exit codes: 0 ok, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from .characters import (
    InfeasibilityCertificate,
    dual_group,
    find_fundamental_symplectic_character,
    generator_characters,
)
from .families import FamilyError, builtin_families, parse_family
from .fileio import FileFormatError, _pair, dumps_modular_data, modular_data_to_dict
from .modular_data import (
    InvalidModularData,
    NonIntegralFusion,
    ScaleLimit,
    ValidationFailure,
    current_layer,
    fs_indicators,
    gauss_sum_delta,
    global_D,
    quantum_dims,
    validate_modular_data,
    verlinde_fusion,
)
from .scaling import (
    mu_scaled,
    s_factor,
    self_duality_scalar,
    solve_canonical,
    solve_strict,
    symplectic_multiplicity,
    z_of_label,
)
from .surfaces import (
    Component,
    MarkedPoint,
    Surface,
    check_gluing_dimension,
    sphere_with_labels,
    state_dim,
    state_dim_verlinde,
)

__all__ = ["Report", "UsageError", "parse_surface_literal", "run_command", "main"]


class UsageError(Exception):
    """Bad arguments; exit code 2."""


@dataclass
class Report:
    """Output of one command: machine-readable dict plus human text."""

    machine: dict
    human: str


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from calling sys.exit
        raise UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


# bytes of dense int64 fusion slices that verify may hold: 8 n^3, so n <= 645
_VERIFY_SLICE_BUDGET = 2 << 30

_COMPONENT_RE = re.compile(r"^\s*g\s*=\s*(\d+)\s*\[([^\[\]]*)\]\s*$")


def parse_surface_literal(text, data=None):
    """Surface from ``g=<int>[labels]`` components joined by '+'."""
    components = []
    for ci, piece in enumerate(str(text).split("+")):
        m = _COMPONENT_RE.match(piece)
        if m is None:
            raise UsageError(
                f"bad surface component {piece.strip()!r}; expected g=<int>[label,...]"
            )
        inner = m.group(2).strip()
        labels = [s.strip() for s in inner.split(",")] if inner else []
        if any(not s for s in labels):
            raise UsageError(f"empty label in surface component {piece.strip()!r}")
        if data is not None:
            for lab in labels:
                try:
                    data.index(lab)
                except KeyError:
                    raise UsageError(f"unknown label {lab!r} in surface literal") from None
        points = tuple(
            MarkedPoint(id=f"c{ci}p{pi}", label=lab) for pi, lab in enumerate(labels)
        )
        components.append(Component(genus=int(m.group(1)), points=points))
    return Surface(components=tuple(components))


def _fmt_complex(z):
    z = complex(z)
    return f"{z.real:+.9f}{z.imag:+.9f}j"


def _stride_labels(data, t, size):
    """Labels of the t-th test surface: its s-th point is label (1 + 3s + 5t) mod n."""
    return [data.labels[(1 + 3 * s + 5 * t) % data.n] for s in range(size)]


def _family_args(parser):
    parser.add_argument("family", nargs="+", help="su N k | lie TYPE RANK LEVEL | file PATH")


@functools.cache
def _build_parser():
    """The one parser of the process: parse_args keeps no state between calls."""
    parser = _Parser(prog="modfunctor", description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="print the machine section")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    p = sub.add_parser("info", help="labels, dims, D, Gauss sum, indicators")
    _family_args(p)
    p = sub.add_parser("dims", help="state-space dimension of a surface, both oracles")
    _family_args(p)
    p.add_argument("--surface", required=True, help='e.g. "g=1[]" or "g=0[1,1,2]"')
    p = sub.add_parser("characters", help="dual group and fundamental symplectic character")
    _family_args(p)
    p = sub.add_parser("scaling", help="canonical or strict scaling pair")
    _family_args(p)
    p.add_argument("--mode", choices=("canonical", "strict"), default="canonical")
    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("family", nargs="*", help="family tokens, or use --all")
    p.add_argument("--all", action="store_true", help="verify every built-in family")
    p = sub.add_parser("export", help="write the JSON document to stdout")
    _family_args(p)
    return parser


def _tolerance():
    raw = os.environ.get("MF_TOL")
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise UsageError(f"MF_TOL: not a number: {raw!r}") from None
    if not 0 < value < math.inf:
        raise UsageError(f"MF_TOL: must be a positive finite number, got {raw!r}")
    return value


def _cmd_info(args, tol):
    data, meta = parse_family(args.family, tol=tol)
    D = global_D(data)
    delta = gauss_sum_delta(data)
    rows = []
    machine_dims = {}
    machine_fs = fs_indicators(data)
    for lab, d in zip(data.labels, quantum_dims(data)):
        d = complex(d)
        machine_dims[lab] = _pair(d)
        rows.append(
            f"  {lab:>10}  dual={data.dual[lab]:>10}  dim={d.real:14.9f}  "
            f"theta={_fmt_complex(data.theta[lab])}  fs={machine_fs[lab]:+d}"
        )
    human = "\n".join(
        [
            f"family: {meta['family']}   labels: {data.n}",
            f"D = {D.real:.9f}    Delta = {_fmt_complex(delta)}",
            *rows,
        ]
    )
    machine = {
        "family": meta["family"],
        "labels": list(data.labels),
        "zero": data.zero,
        "dual": {lab: data.dual[lab] for lab in data.labels},
        "dims": machine_dims,
        "D": float(D.real),
        "delta": _pair(delta),
        "fs": machine_fs,
        "tol": data.tol,
    }
    return 0, Report(machine, human)


def _cmd_dims(args, tol):
    data, meta = parse_family(args.family, tol=tol)
    fusion = verlinde_fusion(data)
    surface = parse_surface_literal(args.surface, data)
    # the closed form first: a sum it cannot decide is refused before the
    # recursion, whose cost grows with the genus, runs at all
    by_verlinde = state_dim_verlinde(data, surface)
    by_recursion = state_dim(data, fusion, surface)
    ok = by_recursion == by_verlinde
    human = (
        f"family: {meta['family']}   surface: {args.surface.strip()}\n"
        f"state_dim (fusion recursion) = {by_recursion}\n"
        f"state_dim (S-matrix)         = {by_verlinde}\n"
        f"oracles {'agree' if ok else 'DISAGREE'}"
    )
    machine = {
        "family": meta["family"],
        "surface": args.surface.strip(),
        "state_dim": by_recursion,
        "state_dim_verlinde": by_verlinde,
        "match": ok,
    }
    return (0 if ok else 1), Report(machine, human)


def _char_values(data, chi):
    return {lab: str(chi(lab)) for lab in data.labels}


def _fundamental(data):
    """The grading group of `data` and its fundamental symplectic character, or a certificate.

    Reads only the simple-current layer, certified by (I): no Verlinde sum,
    no slice and no handle.  Fusion integrality is not checked here; a
    `file` document got that check when it was loaded.
    """
    pres = dual_group(data, current_layer(data))
    return pres, find_fundamental_symplectic_character(data, pres)


def _cmd_characters(args, tol):
    data, meta = parse_family(args.family, tol=tol)
    pres, found = _fundamental(data)
    gens = generator_characters(pres)
    machine = {
        "family": meta["family"],
        "invariant_factors": [int(x) for x in pres.invariant_factors],
        "free_rank": 0,  # modular data: the grading group is finite
        "torsion_order": pres.torsion_order,
        "generators": [_char_values(data, chi) for chi in gens],
        "fundamental_symplectic": None,
        "certificate": None,
    }
    lines = [
        f"family: {meta['family']}",
        f"dual group: invariant factors {list(pres.invariant_factors) or '[]'}",
    ]
    for gi, chi in enumerate(gens):
        vals = ", ".join(f"{lab}:{chi(lab)}" for lab in data.labels)
        lines.append(f"  generator {gi}: {vals}")
    code = 0
    if isinstance(found, InfeasibilityCertificate):
        machine["certificate"] = {
            "coefficients": {lab: int(c) for lab, c in found.coefficients.items()},
            "target_sum": str(found.target_sum),
        }
        lines.append("fundamental symplectic character: none (certificate below)")
        lines.append(f"  certificate coefficients: {machine['certificate']['coefficients']}")
        lines.append(f"  certificate target sum: {found.target_sum} (not an integer)")
        code = 1
    else:
        machine["fundamental_symplectic"] = _char_values(data, found)
        vals = ", ".join(f"{lab}:{found(lab)}" for lab in data.labels)
        lines.append(f"fundamental symplectic character: {vals}")
    return code, Report(machine, "\n".join(lines))


def _max_residual(data, sp):
    """Largest |u_i - s_i w_i| over the labels: the defining equation of a scaling pair."""
    return max(abs(sp.u[lab] - s_factor(data, sp, lab) * sp.w[lab]) for lab in data.labels)


def _cmd_scaling(args, tol):
    data, meta = parse_family(args.family, tol=tol)
    if args.mode == "strict":
        _, found = _fundamental(data)
        if isinstance(found, InfeasibilityCertificate):
            human = (
                f"family: {meta['family']}\n"
                "no fundamental symplectic character; strict scaling impossible"
            )
            machine = {"family": meta["family"], "mode": "strict", "solvable": False}
            return 1, Report(machine, human)
        sp = solve_strict(data, found)
    else:
        sp = solve_canonical(data)
    residual = _max_residual(data, sp)
    pair_res = 0.0
    for lab in data.labels:
        pair_res = max(
            pair_res,
            abs(mu_scaled(data, sp, lab) * mu_scaled(data, sp, data.dual[lab]) - 1),
        )
    sign_checks = []
    for t in range(8):
        a = sphere_with_labels(_stride_labels(data, t, 3))
        scalar = self_duality_scalar(data, sp, a)
        nu = symplectic_multiplicity(data, sp, a)
        sign_checks.append(abs(scalar - (-1.0) ** nu) if args.mode == "canonical" else abs(abs(scalar) - 1.0))
    sign_check = max(sign_checks)
    zvals = {lab: z_of_label(data, lab) for lab in data.labels}
    machine = {
        "family": meta["family"],
        "mode": args.mode,
        "u": {lab: _pair(sp.u[lab]) for lab in data.labels},
        "w": {lab: _pair(sp.w[lab]) for lab in data.labels},
        "z": {lab: _pair(z) for lab, z in zvals.items()},
        "max_residual": residual,
        "max_pair_residual": pair_res,
        "max_sign_check": sign_check,
    }
    lines = [
        f"family: {meta['family']}   mode: {args.mode}",
        f"defining-equation residual: {residual:.3e}",
        f"mu pairing residual:        {pair_res:.3e}",
        f"sign spot checks:           {sign_check:.3e}",
    ]
    for lab in data.labels:
        lines.append(
            f"  {lab:>10}  u={_fmt_complex(sp.u[lab])}  w={_fmt_complex(sp.w[lab])}"
            f"  Z={_fmt_complex(zvals[lab])}"
        )
    ok = residual < 1e-9 and pair_res < 1e-9 and sign_check < 1e-9
    return (0 if ok else 1), Report(machine, "\n".join(lines))


def _verify_family(data):
    """Invariant suite for one family; returns {check name: bool}.

    Raises :class:`ScaleLimit` before any check when the n dense slices it
    holds would pass `_VERIFY_SLICE_BUDGET`.
    """
    n = data.n
    if 8 * n**3 > _VERIFY_SLICE_BUDGET:
        raise ScaleLimit(
            f"verify would hold n = {n} dense fusion slices of n^2 int64, {8 * n**3} bytes, "
            f"over its budget of {_VERIFY_SLICE_BUDGET} bytes"
        )
    checks = {}
    checks["axioms"] = validate_modular_data(data).ok
    try:
        fusion = verlinde_fusion(data)
        checks["fusion-integral"] = True
    except InvalidModularData:
        return dict(checks, **{"fusion-integral": False})
    z = data.index(data.zero)
    dual = np.array([data.dual_index(i) for i in range(n)])
    # every identity reads the slices M[j] = N[:, j, :], never the n^3 stack
    M = [fusion.slice(j) for j in range(n)]
    eye = np.eye(n, dtype=np.int64)
    checks["fusion-unit"] = all(np.array_equal(M[j][z], eye[j]) for j in range(n))
    checks["fusion-duality"] = all(np.array_equal(M[j][:, z], dual == j) for j in range(n))
    # M_j[i] = M_i[j], compared once per unordered pair i < j
    checks["fusion-commutative"] = all(
        np.array_equal(M[j][:j], [m[j] for m in M[:j]]) for j in range(1, n)
    )
    # N_{ij}^k = N_{i* k}^j read on slices as N_{xj}^y = N_{y j*}^x, that is
    # M_j = M_{j*}^T; the two statements agree once commutativity holds, and
    # M_j = M_{j*}^T says the same as M_{j*} = M_j^T, so one j per dual pair
    checks["fusion-rigidity"] = all(
        np.array_equal(M[j], M[dual[j]].T) for j in range(n) if dual[j] >= j
    )
    # the unit-point axiom dim(0; i, 0) = dim(0; i) = [i = 0]: the recursion
    # reads the two-point sphere as N_{i0}^0, the unit slice's column 0, and
    # the one-point sphere as e_i[0]
    checks["once-punctured-sphere"] = np.array_equal(M[z][:, z], eye[z])
    # the recursion reads dim(0; a, b) as N_{ab}^0, so the twice-punctured
    # sphere compares exactly the integers that fusion-duality compares
    checks["twice-punctured-sphere"] = checks["fusion-duality"]
    # the recursion's only step for the empty torus is e_0 H e_0
    checks["torus-dim"] = int(fusion.handle[z, z]) == n
    D = global_D(data).real
    checks["gauss-modulus"] = abs(abs(gauss_sum_delta(data)) - D) < 1e-6 * max(1.0, D)
    sp = solve_canonical(data)
    checks["canonical-residual"] = _max_residual(data, sp) < 1e-12
    # x and y are slots, filled with every dual pair; the fixed labels a, b ride along
    slots = (MarkedPoint("x", data.zero), MarkedPoint("y", data.zero))
    glue_ok = True
    for t in range(4):
        points = slots + tuple(map(MarkedPoint, "ab", _stride_labels(data, t, 2)))
        a = Surface(components=(Component(genus=1, points=points),))
        glue_ok = check_gluing_dimension(data, fusion, a, "x", "y") and glue_ok
    checks["gluing-dimension"] = glue_ok
    oracle_ok = True
    for t, genus in enumerate((0, 1, 2), start=4):
        points = tuple(map(MarkedPoint, ("p0", "p1", "p2"), _stride_labels(data, t, 3)))
        a = Surface(components=(Component(genus=genus, points=points),))
        try:
            agree = state_dim(data, fusion, a) == state_dim_verlinde(data, a)
        except InvalidModularData:  # the float closed form could not decide an integer
            agree = False
        oracle_ok = oracle_ok and agree
    checks["oracle-equivalence"] = oracle_ok
    return checks


def _cmd_verify(args, tol):
    if args.all and args.family:
        raise UsageError("verify: give family tokens or --all, not both")
    if args.all:
        fams = [(name, _verify_family(data)) for name, data in builtin_families(tol=tol)]
    elif args.family:
        try:
            data, meta = parse_family(args.family, tol=tol)
        except ValidationFailure as exc:  # loading a file checks the axioms: report them
            failed = ["axioms", *exc.report.violations]
            fams = [(" ".join(args.family), dict.fromkeys(failed, False))]
        except NonIntegralFusion:  # and then the fusion rules, as _verify_family does
            fams = [(" ".join(args.family), {"axioms": True, "fusion-integral": False})]
        else:
            fams = [(meta["family"], _verify_family(data))]
    else:
        raise UsageError("verify: give family tokens or --all")
    results = {}
    all_ok = True
    lines = []
    for name, checks in fams:
        ok = all(checks.values())
        all_ok = all_ok and ok
        results[name] = {"checks": checks, "ok": ok}
        status = "ok" if ok else "FAIL"
        lines.append(f"{name:<16} {status}")
        for cname, cval in checks.items():
            if not cval:
                lines.append(f"    failed: {cname}")
    lines.append(f"verified {len(fams)} families: {'all ok' if all_ok else 'FAILURES'}")
    machine = {"families": results, "ok": all_ok}
    return (0 if all_ok else 1), Report(machine, "\n".join(lines))


def _cmd_export(args, tol):
    data, meta = parse_family(args.family, tol=tol)
    meta = dict(meta)
    meta["tol"] = data.tol
    text = dumps_modular_data(data, meta)
    return 0, Report(modular_data_to_dict(data, meta), text.rstrip("\n"))


def run_command(argv):
    """Execute CLI arguments; returns (exit_code, Report)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if args.command is None:
            raise UsageError(parser.format_usage())
    except UsageError as exc:  # argparse's message and usage, as argparse words them
        return 2, Report({"error": str(exc)}, str(exc))
    handler = {
        "info": _cmd_info,
        "dims": _cmd_dims,
        "characters": _cmd_characters,
        "scaling": _cmd_scaling,
        "verify": _cmd_verify,
        "export": _cmd_export,
    }[args.command]
    try:
        code, report = handler(args, _tolerance())
    except (
        UsageError, FamilyError, FileFormatError, ScaleLimit, OSError,
        InvalidModularData, ValidationFailure,
    ) as exc:
        return 2, Report({"error": str(exc)}, f"error: {exc}")
    # export's text already is its machine section in the canonical encoding
    if getattr(args, "json", False) and args.command != "export":
        report = Report(report.machine, json.dumps(report.machine, sort_keys=True, indent=2))
    return code, report


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        code, report = run_command(argv)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    stream = sys.stderr if code == 2 else sys.stdout
    if report.human:
        print(report.human, file=stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
