"""Guards on what no output may depend on: the process (hash seed, memory
layout and so the identity hashes of constraints), the names of classes,
attributes and types, and the order of the corpus.  Each draw is fixed."""

import contextlib
import dataclasses
import functools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import modelalg
from modelalg import Corpus, Model, Witness, build_universe, classify, default_corpus

ALL_OPS = ("union", "strict", "override", "intersect", "paranoid")
SRC = str(Path(modelalg.__file__).resolve().parent.parent)

# Allocates argv[1] objects and argv[2] constraints first, then prints the
# exit code and the digest of the output of each request.
REQUESTS = """
import hashlib, io, sys
from contextlib import redirect_stdout
from modelalg import AttrTyped, cli

held = [object() for _ in range(int(sys.argv[1]))], [AttrTyped(f"C{i}", "a", "T") for i in range(int(sys.argv[2]))]
for op in ("union", "strict", "override", "intersect", "paranoid"):
    for argv in (["classify", "--operator", op, "--format", "json"], ["stability", "--operator", op]):
        with redirect_stdout(io.StringIO()) as out:
            code = cli.main(argv)
        print(code, hashlib.sha256(out.getvalue().encode()).hexdigest(), *argv)
"""


@pytest.fixture(scope="module", autouse=True)
def request_runs():
    """Two processes running REQUESTS, with different hash seeds and different
    allocations first.  They start with the module's first test, so they run
    beside the in-process tests, and the last test reads them."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    runs = (("0", "0", "0"), ("1", "300000", "3000"))  # (PYTHONHASHSEED, objects, constraints)
    with contextlib.ExitStack() as stack:
        procs = [stack.enter_context(subprocess.Popen(
            [sys.executable, "-c", REQUESTS, objects, constraints], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed))) for seed, objects, constraints in runs]
        stack.callback(lambda: [proc.kill() for proc in procs if proc.poll() is None])  # runs first
        yield procs


@pytest.fixture(scope="module")
def base():
    corpus = default_corpus()
    u = build_universe(corpus.models)
    return corpus, u, {op: classify(op, corpus, u) for op in ALL_OPS}


NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
# names a rename may also map to; none is a word that witness texts use
FRESH = ("Vertex", "Edge", "label", "weight", "Text", "Real")


def _moving_bijection(rng: random.Random, kinds: list) -> dict:
    """A bijection of the names of each kind onto those names and FRESH that maps
    no name to itself and reverses the sorted order of each kind's names."""
    names = [n for kind in kinds for n in kind]
    while True:
        f = dict(zip(names, rng.sample([*names, *FRESH], len(names))))
        if all(f[n] != n for n in names) and all(sorted(k, key=f.get) == sorted(k, reverse=True) for k in kinds):
            return f


def _renamed(value, f: dict):
    """A constraint's fields, or a nesting of them, with every name mapped by f."""
    return f[value] if isinstance(value, str) else tuple(_renamed(v, f) for v in value)


@pytest.mark.parametrize("op", ALL_OPS)
def test_a_bijective_renaming_maps_every_verdict_and_witness(base, op):
    corpus, u, reports = base
    kinds = [[n for n in pool if not n.startswith("_")] for pool in (u.class_pool, u.attr_pool, u.type_pool)]
    f = _moving_bijection(random.Random(f"rename-{op}"), kinds)  # of the names the corpus uses, not fresh ones
    models = tuple(Model(tuple(type(c)(*_renamed(tuple(c), f)) for c in m.constraints)) for m in corpus.models)
    renamed = classify(op, Corpus(models, corpus.origin), build_universe(models))

    @functools.cache  # witnesses repeat their texts
    def mapped(text: str) -> str:
        return NAME.sub(lambda match: f.get(match[0], match[0]), text)

    def expected(v):
        return dataclasses.replace(v, witnesses=tuple(
            Witness(tuple(map(mapped, w.models)), w.relation, mapped(w.observed)) for w in v.witnesses))

    report = reports[op]
    assert renamed.table1 == {p: expected(v) for p, v in report.table1.items()}
    assert renamed.table2 == tuple((i, {p: expected(v) for p, v in props.items()}) for i, props in report.table2)
    assert renamed.theorems == report.theorems and renamed.implication_audit == report.implication_audit


@pytest.mark.parametrize("op", ALL_OPS)
def test_a_permuted_corpus_keeps_the_exhaustive_and_per_model_verdicts(base, op):
    corpus, _, reports = base
    order = list(range(len(corpus.models)))
    random.Random(f"permute-{op}").shuffle(order)
    models = tuple(corpus.models[k] for k in order)
    permuted = classify(op, Corpus(models, corpus.origin), build_universe(models))

    report = reports[op]
    exhaustive = {p for p, v in report.table1.items() if v.exhaustive}
    assert exhaustive == {p for p, v in permuted.table1.items() if v.exhaustive} == set(report.table1) - {"Ass", "Ass_sm"}
    assert {p: permuted.table1[p].holds for p in exhaustive} == {p: report.table1[p].holds for p in exhaustive}
    for (i, props), k in zip(permuted.table2, order):
        assert {p: (v.holds, v.checked) for p, v in props.items()} == \
            {p: (v.holds, v.checked) for p, v in report.table2[k][1].items()}


def test_reports_are_byte_identical_across_processes(request_runs):
    outputs = [proc.communicate(timeout=300) for proc in request_runs]
    assert [proc.returncode for proc in request_runs] == [0, 0]
    assert outputs[0] == outputs[1]
    lines = outputs[0][0].decode().splitlines()
    assert len(lines) == 2 * len(ALL_OPS) and all(line.startswith("0 ") for line in lines)
