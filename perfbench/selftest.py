"""Quick self-test of the benchmark: one pass of every workload, every oracle on.

Run from the repository root (about 25 s):

    python3 perfbench/selftest.py

It passes when every output is correct, the only failed operations are the
four high-genus queries of ``small-families``, every kind of checker
rejects a deliberately corrupted copy of a real output, and the harness
counts a CLI exit 1 as a wrong output, exit 2 as a failed operation and a
failure seen in only some passes as wrong.
"""

from __future__ import annotations

import copy
import sys
import types

import run

def machine(ops, label):
    """The machine dict of one CLI operation, run afresh."""
    op = next(o for o in ops if o.label == label)
    code, report = op.run()
    if code != 0:
        raise RuntimeError(f"{label} exited {code}")
    return op, report.machine


def corrupted_outputs(ops_by_workload):
    """(operation, corrupted output) pairs; each checker must reject its output."""
    out = []
    lf, gr, sf = (ops_by_workload[w] for w in run.WORKLOADS)

    op, m = machine(lf, "info su 5 4")
    bad = copy.deepcopy(m)
    bad["dual"]["1"] = "1"
    out.append((op, bad))
    bad = copy.deepcopy(m)
    bad["dims"]["1"][0] *= 1.001
    out.append((op, bad))
    bad = copy.deepcopy(m)
    bad["labels"] = bad["labels"][:-1]
    out.append((op, bad))

    op, m = machine(lf, "dims su 5 4 --surface g=2[1,1]")
    out.append((op, dict(m, state_dim=1, state_dim_verlinde=1)))
    out.append((op, dict(m, state_dim_verlinde=1, match=False)))

    op, m = machine(lf, "dims su 5 4 --surface g=2[1,1.1.1.1]")
    out.append((op, dict(m, state_dim=m["state_dim"] + 1, state_dim_verlinde=m["state_dim"] + 1)))

    op, m = machine(gr, "characters lie C 3 2")
    bad = copy.deepcopy(m)
    lab = next(lab for lab, v in bad["fundamental_symplectic"].items() if v == "1/2")
    bad["fundamental_symplectic"][lab] = "0"
    out.append((op, bad))
    out.append((op, dict(m, generators=[{lab: "0" for lab in m["generators"][0]}])))
    op, m = machine(gr, "characters su 3 6")
    out.append((op, dict(m, invariant_factors=[9])))
    bad = copy.deepcopy(m)
    bad["generators"][0]["1"] = "2/3" if bad["generators"][0]["1"] != "2/3" else "1/3"
    out.append((op, bad))

    op, m = machine(gr, "scaling su 3 6 --mode strict")
    out.append((op, dict(m, max_residual=1e-6)))

    op, m = machine(sf, "verify --all")
    bad = copy.deepcopy(m)
    bad["families"]["su 3 2"]["checks"]["torus-dim"] = False
    out.append((op, bad))
    bad = copy.deepcopy(m)
    del bad["families"]["lie G 2 1"]
    out.append((op, bad))

    op = next(o for o in sf if o.label == "roundtrip su 2 3")
    data, back, text, again = op.run()
    out.append((op, (data, back, text, again.replace("1", "2", 1))))

    op = next(o for o in sf if o.label == "verlinde_fusion su 2 3")
    fusion = op.run()
    N = fusion.N.copy()
    N[1, 1, 2] += 1
    out.append((op, types.SimpleNamespace(labels=fusion.labels, N=N)))

    op = next(o for o in sf if o.label == "dims su 2 3 --surface g=20[]")
    exact = 2**55  # not the exact dimension, which needs 56 bits
    out.append((op, {"state_dim": exact, "state_dim_verlinde": exact, "match": True}))
    return out


def harness_problems():
    """How the harness counts exit codes, varying failures and missing functions."""
    import tracing
    import workloads

    problems = []
    report = types.SimpleNamespace(machine={}, human="oracles DISAGREE")

    def fake(label, code):
        return workloads.Op(label, lambda: (code, report), lambda m: None, True)

    record = run.run_pass([fake("exit 1", 1), fake("exit 2", 2)])
    if [w.split(":")[0] for w in record["wrong"]] != ["exit 1"]:
        problems.append(f"exit 1 not counted as a wrong output: {record['wrong']}")
    if set(record["failures"]) != {"exit 2"}:
        problems.append(f"exit 2 not counted as a failed operation: {record['failures']}")
    ops = [fake("a", 0)]
    passes = [{"failures": {"a": "x"}, "wrong": []}, {"failures": {}, "wrong": []}]
    attempted, failed, wrong = run.tally(ops, passes)
    if (attempted, failed) != (1, 1) or not wrong:
        problems.append("a failure seen in one pass only is not reported as wrong")
    tracer = tracing.Tracer()
    tracer.start_pass()
    missing = tracer.metrics(["characters.no_such_function.calls", "characters.no_such_function.self_s"])
    if missing != {"characters.no_such_function.calls": 0, "characters.no_such_function.self_s": 0}:
        problems.append(f"a listed function that is not there does not read 0: {missing}")
    return problems


def main():
    if not run.load_program():
        return 2
    import workloads

    known = {f"dims su 2 {k} --surface g={g}[]" for k, g in workloads.HIGH_GENUS}
    problems = []
    ops_by_workload = {}
    for name in run.WORKLOADS:
        ops = workloads.build(name, 1)
        ops_by_workload[name] = ops
        record = run.run_pass(ops)
        failed = set(record["failures"])
        expected = known if name == "small-families" else set()
        if failed != expected:
            problems.append(f"{name}: failed {sorted(failed)}, expected {sorted(expected)}")
        problems += [f"{name}: {w}" for w in record["wrong"]]
        print(f"{name}: {len(ops)} operations, {len(failed)} failed, {len(record['wrong'])} wrong, "
              f"{record['pass_s']:.2f} s", file=sys.stderr)
    problems += harness_problems()
    cases = corrupted_outputs(ops_by_workload)
    for op, output in cases:
        if op.check(output) is None:
            problems.append(f"checker of {op.label} accepted a corrupted output")
    print(f"{len(cases)} corrupted outputs offered to the checkers", file=sys.stderr)
    for line in problems:
        print(f"PROBLEM: {line}", file=sys.stderr)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
