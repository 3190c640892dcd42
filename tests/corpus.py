"""Exact CLI outputs, pinned as (exit code, sha256 of the `--json` text) in `corpus.json`.

The corpus runs `verify`, `characters` and `dims` on the 33 built-in
families and on su 3 6, su 4 8 and su 5 6.  `dims` takes four surfaces per
family: `g=1[]`, `g=2[]`, `g=0[l,l*]` with l the second label and
`g=1[m,m*]` with m the last, where x* is the dual of x.  Commands that
print floats (`info`, `scaling`, `export`) are left out, so every pinned
output is exact.  `tests/test_corpus.py` compares the program with the
file.  After an intended change of output, regenerate it from the
repository root:

    PYTHONPATH=src python tests/corpus.py
"""

import hashlib
import json
import shlex
from pathlib import Path

from modfunctor.cli import run_command
from modfunctor.families import BUILTIN_LIE, BUILTIN_SU, parse_family

CORPUS = Path(__file__).with_name("corpus.json")
EXTRA_SU = ((3, 6), (4, 8), (5, 6))


def family_tokens():
    """Token tuples of the corpus families: the built-ins, then EXTRA_SU."""
    tokens = [("su", N, k) for N, k in BUILTIN_SU]
    tokens += [("lie", *t) for t in BUILTIN_LIE]
    tokens += [("su", N, k) for N, k in EXTRA_SU]
    return [tuple(str(t) for t in family) for family in tokens]


def argvs():
    """Every argv of the corpus, in corpus order."""
    for tokens in family_tokens():
        data, _meta = parse_family(tokens)
        l, m = data.labels[1], data.labels[-1]
        yield ["--json", "verify", *tokens]
        yield ["--json", "characters", *tokens]
        for surface in ("g=1[]", "g=2[]", f"g=0[{l},{data.dual[l]}]", f"g=1[{m},{data.dual[m]}]"):
            yield ["--json", "dims", *tokens, "--surface", surface]


def outputs():
    """{shell-quoted argv: [exit code, sha256 of the printed text]}, in corpus order."""
    out = {}
    for argv in argvs():
        code, report = run_command(argv)
        out[shlex.join(argv)] = [code, hashlib.sha256(report.human.encode()).hexdigest()]
    return out


if __name__ == "__main__":
    lines = [f"  {json.dumps(argv)}: {json.dumps(result)}" for argv, result in outputs().items()]
    CORPUS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
