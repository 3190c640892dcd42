"""The benchmark's three workloads as fixed lists of operations.

An operation is one CLI command run in-process through
``modfunctor.cli.run_command`` or one library call, paired with a checker
built from :mod:`oracles`.  Everything a checker needs is computed when the
list is built, before any pass runs, so checking an output calls no
program code (and adds no spans to a traced pass).

The seed fixes the order of the operations in a pass and, in
``small-families``, the random marked surfaces.  Every pass runs the same
list, so each pass attempts the same operations.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import numpy as np

import oracles
from modfunctor import cli, families, fileio, modular_data


@dataclass
class Op:
    """One benchmark operation.

    `run` returns the program's result.  For a CLI operation that is the
    (exit code, Report) pair and `check` receives the Report's machine dict;
    exit 2 (the CLI's usage or invalid-input error) counts as a failed
    operation, and exit 1 (the program's own checks rejected its result) as a
    wrong output.  An operation that raises counts as failed; otherwise a
    library operation's `check` receives its return value.  `check` returns
    None for a correct output, else the reason.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    cli: bool


def cli_op(argv, check):
    argv = [str(a) for a in argv]
    # looked up at call time, so a traced pass sees the wrapped run_command
    return Op(" ".join(argv), lambda: cli.run_command(argv), check, True)


# ---------------------------------------------------------------------------
# Shared checkers


def su_expected_dim(N, k, genus, labels):
    """Dimension of one connected surface on su(N)_k, where a closed form exists."""
    if N == 2:
        return oracles.su2_exact_dim(k, genus, labels)
    if sum(sum(oracles.rows_of(lab)) for lab in labels) % N:
        return 0  # the centre grading forbids an invariant
    if genus == 0 and len(labels) <= 2:
        if not labels:
            return 1
        if len(labels) == 1:
            return int(labels[0] == "0")
        return int(labels[1] == oracles.su_dual(N, labels[0]))
    if genus == 1 and not labels:
        return oracles.su_label_count(N, k)
    return None


def check_dims(expected):
    def check(m):
        if m["state_dim"] != m["state_dim_verlinde"] or not m["match"]:
            return f"routes disagree: {m['state_dim']} vs {m['state_dim_verlinde']}"
        if expected is not None and m["state_dim"] != expected:
            return f"dimension {m['state_dim']}, expected {expected}"
        return None

    return check


def surface_literal(genus, labels):
    return f"g={genus}[{','.join(labels)}]"


# ---------------------------------------------------------------------------
# large-fusion: info and one genus-2 query over a ladder of su families

LARGE_FUSION = ((4, 6), (5, 4), (4, 7), (5, 5), (4, 8), (5, 6))
LARGE_SURFACE = (2, ("1", "1"))
# g=2[1,1] is zero by the centre grading whatever the fusion tensor holds, so
# the smaller families also answer g=2[1,1*], whose dimension is not zero
BALANCED_FAMILIES = ((4, 6), (5, 4), (4, 7), (5, 5))


def check_su_info(N, k):
    labels = oracles.su_labels(N, k)
    dual = {lab: oracles.su_dual(N, lab) for lab in labels}
    qdim = {lab: oracles.su_qdim(N, k, lab) for lab in labels}
    fs = {lab: oracles.su_indicator(N, lab) if dual[lab] == lab else 0 for lab in labels}
    D = math.sqrt(sum(d * d for d in qdim.values()))

    def check(m):
        if len(m["labels"]) != oracles.su_label_count(N, k) or set(m["labels"]) != set(labels):
            return f"{len(m['labels'])} labels, expected binom({N - 1 + k}, {k})"
        for lab in labels:
            if m["dual"][lab] != dual[lab]:
                return f"dual({lab}) = {m['dual'][lab]}, expected {dual[lab]}"
            re, im = m["dims"][lab]
            if abs(re - qdim[lab]) > 1e-8 * qdim[lab] or abs(im) > 1e-8:
                return f"dim({lab}) = {re}{im:+}j, expected {qdim[lab]}"
            if m["fs"][lab] != fs[lab]:
                return f"indicator({lab}) = {m['fs'][lab]}, expected {fs[lab]}"
        if abs(m["D"] - D) > 1e-8 * D:
            return f"D = {m['D']}, expected {D}"
        return None

    return check


def large_fusion(rng):
    genus, labels = LARGE_SURFACE
    ops = []
    for N, k in LARGE_FUSION:
        ops.append(cli_op(["info", "su", N, k], check_su_info(N, k)))
        ops.append(
            cli_op(
                ["dims", "su", N, k, "--surface", surface_literal(genus, labels)],
                check_dims(su_expected_dim(N, k, genus, labels)),
            )
        )
        if (N, k) in BALANCED_FAMILIES:
            balanced = surface_literal(genus, ("1", oracles.su_dual(N, "1")))
            ops.append(
                cli_op(
                    ["dims", "su", N, k, "--surface", balanced],
                    check_dims(oracles.su_fundamental_pair_dim(N, k, genus)),
                )
            )
    return ops


# ---------------------------------------------------------------------------
# grading: grading group, characters and strict scaling

GRADING = (
    ("su", "3", "6"),
    ("su", "4", "4"),
    ("su", "5", "3"),
    ("su", "4", "5"),
    ("su", "4", "6"),
    ("lie", "D", "4", "2"),
    ("lie", "C", "3", "2"),
)


def _fractions(values):
    return {lab: Fraction(v) for lab, v in values.items()}


def check_characters(family):
    data, _meta = families.parse_family(family)
    labels = list(data.labels)
    support = oracles.fusion_support(data.S, data.index(data.zero))
    dual = {lab: oracles.family_dual(family, lab) for lab in labels}
    factors = oracles.grading_factors(family)
    targets = {
        lab: Fraction(1, 2) if oracles.family_indicator(family, lab) == -1 else Fraction(0)
        for lab in labels
        if dual[lab] == lab
    }

    def check(m):
        if tuple(m["invariant_factors"]) != factors:
            return f"invariant factors {m['invariant_factors']}, expected {list(factors)}"
        if m["free_rank"] != 0 or m["torsion_order"] != math.prod(factors):
            return f"free rank {m['free_rank']}, torsion order {m['torsion_order']}"
        gens = [_fractions(g) for g in m["generators"]]
        if len(gens) != len(factors):
            return f"{len(gens)} generator characters for {len(factors)} factors"
        for g in gens:
            problem = oracles.character_error(g, labels, support, dual)
            if problem:
                return f"generator {problem}"
        tables = set()
        for coeffs in product(*(range(d) for d in factors)):
            tables.add(tuple(sum(c * g[lab] for c, g in zip(coeffs, gens)) % 1 for lab in labels))
        if len(tables) != math.prod(factors):
            return f"generators give {len(tables)} distinct characters, expected {math.prod(factors)}"
        if m["fundamental_symplectic"] is None:
            return "no fundamental symplectic character"
        chi = _fractions(m["fundamental_symplectic"])
        for lab, want in targets.items():
            if chi[lab] != want:
                return f"symplectic character {chi[lab]} on {lab}, expected {want}"
        problem = oracles.character_error(chi, labels, support, dual)
        return f"symplectic character {problem}" if problem else None

    return check


def check_strict_scaling(m):
    for key in ("max_residual", "max_pair_residual", "max_sign_check"):
        if not m[key] < 1e-9:
            return f"{key} = {m[key]} not below 1e-9"
    for table in ("u", "w"):
        for lab, (re, im) in m[table].items():
            if not (math.isfinite(re) and math.isfinite(im)) or re == im == 0:
                return f"{table}({lab}) = {re}{im:+}j"
    return None


def grading(rng):
    ops = []
    for family in GRADING:
        ops.append(cli_op(["characters", *family], check_characters(family)))
        ops.append(cli_op(["scaling", *family, "--mode", "strict"], check_strict_scaling))
    return ops


# ---------------------------------------------------------------------------
# small-families: many small calls over the built-in families

BUILTIN = tuple(("su", str(N), str(k)) for N in (2, 3, 4) for k in range(1, 6)) + tuple(
    ("lie", t, str(r), str(level))
    for t, r in (("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 3), ("G", 2))
    for level in (1, 2)
)
RANDOM_FAMILIES = ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2))
RANDOM_SURFACES = 24
MAX_GENUS = 3
MAX_POINTS = 5
# closed surfaces on su(2)_k whose dimensions need 56, 55, 65 and 66 bits
HIGH_GENUS = ((3, 20), (4, 16), (5, 16), (2, 33))


def check_verify_all(m):
    names = {" ".join(f) for f in BUILTIN}
    if set(m["families"]) != names:
        return f"verified {sorted(m['families'])}, expected the {len(names)} built-in families"
    for name, result in m["families"].items():
        bad = [c for c, ok in result["checks"].items() if not ok]
        if bad or not result["ok"]:
            return f"{name} failed {bad}"
    return None if m["ok"] else "verify reports failure"


def roundtrip_op(family):
    def run():
        data, meta = families.parse_family(family)
        text = fileio.dumps_modular_data(data, meta)
        back = fileio.modular_data_from_dict(json.loads(text))
        return data, back, text, fileio.dumps_modular_data(back, meta)

    def check(result):
        data, back, text, again = result
        if text != again:
            return "dump -> load -> dump is not byte-identical"
        if back.labels != data.labels or not np.array_equal(back.S, data.S) or back.theta != data.theta:
            return "loaded data differ from the dumped data"
        return None

    return Op("roundtrip " + " ".join(family), run, check, False)


def su2_fusion_op(k):
    expected = oracles.cg_tensor(k)

    def run():
        data, _meta = families.parse_family(["su", "2", str(k)])
        return modular_data.verlinde_fusion(data)

    def check(fusion):
        order = [int(lab) for lab in fusion.labels]
        if not np.array_equal(fusion.N, expected[np.ix_(order, order, order)]):
            return "fusion differs from the truncated Clebsch-Gordan rule"
        return None

    return Op(f"verlinde_fusion su 2 {k}", run, check, False)


def random_surface(rng, N, k):
    """Genus <= 3 and <= 5 points; the last label balances the centre grading."""
    labels = oracles.su_labels(N, k)
    genus = rng.randint(0, MAX_GENUS)
    points = [rng.choice(labels) for _ in range(rng.randint(0, MAX_POINTS))]
    if points:
        boxes = sum(sum(oracles.rows_of(lab)) for lab in points[:-1])
        fits = [lab for lab in labels if (boxes + sum(oracles.rows_of(lab))) % N == 0]
        points[-1] = rng.choice(fits)
    return genus, points


def small_families(rng):
    ops = [cli_op(["verify", "--all"], check_verify_all)]
    ops += [roundtrip_op(family) for family in BUILTIN]
    ops += [su2_fusion_op(k) for k in range(1, 6)]
    for _ in range(RANDOM_SURFACES):
        N, k = rng.choice(RANDOM_FAMILIES)
        genus, points = random_surface(rng, N, k)
        argv = ["dims", "su", N, k, "--surface", surface_literal(genus, points)]
        ops.append(cli_op(argv, check_dims(su_expected_dim(N, k, genus, points))))
    for k, genus in HIGH_GENUS:
        argv = ["dims", "su", 2, k, "--surface", surface_literal(genus, [])]
        ops.append(cli_op(argv, check_dims(oracles.su2_exact_dim(k, genus, []))))
    return ops


WORKLOADS = {"large-fusion": large_fusion, "grading": grading, "small-families": small_families}


def build(name, seed):
    """The operation list of one workload; the seed fixes order and random inputs."""
    rng = random.Random(seed)
    ops = WORKLOADS[name](rng)
    rng.shuffle(ops)
    return ops
