#!/usr/bin/env python3
"""Cross-check the recorded Table 1 verdicts against the enumeration oracle.

    python3 perfbench/crosscheck.py

For every input key and operator of classify-default, recomputes each Table 1
row (holds, exhaustive, checked and witness count) from the numpy
`EnumOracle` in tests/oracle.py, which evaluates every constraint on every
enumerated system, and compares it with perfbench/expected/classify-default.json.
Needs numpy; exits 1 on any disagreement.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import INPUT_KEYS, OPERATORS, ClassifyDefault, import_program  # noqa: E402

# The checker's documented sampling policy: exhaustive up to 20 models,
# else 10,000 seeded triples.
EXHAUSTIVE_TRIPLE_LIMIT = 20
TRIPLE_SAMPLES = 10_000
MAX_WITNESSES = 10


def oracle_table1(oracle, model_cls, op, models, seed: int) -> dict:
    sat: dict = {}

    def den(m):
        out = np.ones(oracle.u.system_count, dtype=bool)
        for c in m.constraints:
            if c not in sat:
                sat[c] = oracle.den(model_cls((c,)))
            out &= sat[c]
        return out

    def subset(a, b):
        return not (a & ~b).any()

    def eq(a, b):
        return bool((a == b).all())

    n = len(models)
    dens = [den(m) for m in models]
    fails = dict.fromkeys(("PP_l", "PP_r", "PP", "FPP", "CP", "Com", "Com_sm", "Ass", "Ass_sm"), 0)
    for i in range(n):
        for j in range(n):
            dc, d1, d2 = den(op(models[i], models[j])), dens[i], dens[j]
            both = d1 & d2
            fails["PP_l"] += not subset(dc, d1)
            fails["PP_r"] += not subset(dc, d2)
            fails["PP"] += not subset(dc, both)
            fails["FPP"] += not eq(dc, both)
            fails["CP"] += bool(both.any()) and not dc.any()
    for i in range(n):
        for j in range(i + 1, n):
            a, b = op(models[i], models[j]), op(models[j], models[i])
            fails["Com"] += a.constraints != b.constraints
            fails["Com_sm"] += not eq(den(a), den(b))
    if n <= EXHAUSTIVE_TRIPLE_LIMIT:
        triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]
    else:
        rng = random.Random(seed)
        triples = [(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(TRIPLE_SAMPLES)]
    for i, j, k in triples:
        left = op(op(models[i], models[j]), models[k])
        right = op(models[i], op(models[j], models[k]))
        fails["Ass"] += left.constraints != right.constraints
        fails["Ass_sm"] += not eq(den(left), den(right))
    checked = {"Com": n * (n - 1) // 2, "Com_sm": n * (n - 1) // 2,
               "Ass": len(triples), "Ass_sm": len(triples)}
    exhaustive = n <= EXHAUSTIVE_TRIPLE_LIMIT
    return {
        p: [f == 0, exhaustive if p.startswith("Ass") else True, checked.get(p, n * n), min(f, MAX_WITNESSES)]
        for p, f in fails.items()
    }


def main() -> int:
    prog = import_program(ROOT / "src")
    sys.path.insert(0, str(ROOT))
    from tests.oracle import EnumOracle

    expected = json.loads((HERE / "expected" / "classify-default.json").read_text())["keys"]
    bad = 0
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for key in range(INPUT_KEYS):
            workload = ClassifyDefault(prog, key, Path(tmp) / str(key))
            models = workload.corpus.models
            oracle = EnumOracle(prog.semantics.build_universe(models))
            for i, op in enumerate(OPERATORS):
                got = oracle_table1(oracle, prog.syntax.Model, prog.operators.OPERATORS[op], models, key)
                want = expected[str(key)]["ops"][i]["verdicts"]["table1"]
                diff = sorted(p for p in got if got[p] != want[p])
                bad += bool(diff)
                print(f"key {key:2d} {op:9s} {'ok' if not diff else 'DIFFERS: ' + ', '.join(diff)}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
