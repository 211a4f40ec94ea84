"""The benchmark's workloads.

Each workload is built from an input key (the run's seed modulo
INPUT_KEYS, so that every input has a recorded expected output) into one
*cycle*: a fixed list of operations that the runner repeats.  Every
operation has a `run` callable, which is what gets timed, and the workload
checks each result against `expected/<workload>.json` outside the timed
region.

The program is reached only through the module objects of a `Program`,
looked up at call time, so that the traced run can rebind module-level
names to timed wrappers without editing the program, and so that the same
workload can be built over the frozen reference copy in reference/.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

INPUT_KEYS = 16
OPERATORS = ("union", "strict", "override", "intersect", "paranoid")
TABLE2_PROPS = (
    "Rn", "Ln", "N", "Ra", "La", "A", "Ri", "Li", "I",
    "Rn_comp", "Ln_comp", "N_comp", "Ra_comp", "La_comp", "A_comp",
    "Ri_comp", "Li_comp", "I_comp",
)
PROGRAM_MODULES = ("syntax", "semantics", "operators", "algebra", "report", "cli")


@dataclass
class Program:
    """The imported modelalg modules, one attribute per layer."""

    syntax: object
    semantics: object
    operators: object
    algebra: object
    report: object
    cli: object


def import_program(src: Path, package: str = "modelalg") -> Program:
    """Import the package afresh from `src`, dropping any earlier import, and
    refuse one found anywhere else."""
    for name in [n for n in sys.modules if n == package or n.startswith(package + ".")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    module = importlib.import_module(package)
    origin = Path(module.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"{package} was imported from {origin}, not from {src}")
    modules = {name: importlib.import_module(f"{package}.{name}") for name in PROGRAM_MODULES}
    return Program(**modules)


@dataclass
class Op:
    kind: str  # e.g. "union" or "compose.union" or "sm.list"
    operator: str | None  # the composition operator the op exercises, if any
    run: Callable[[], object]
    padded: bool = False  # a `--padding 2,2,2` request, left out of the latency metrics


@dataclass
class Outcome:
    status: str  # "ok", "refused" (exit 3 where the seed commit refused too) or "failed"
    witnesses_kept: int = 0
    digest_mismatch: bool = False
    detail: str = ""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _failed_on_error(result) -> Outcome | None:
    if isinstance(result, BaseException):
        return Outcome("failed", detail=f"{type(result).__name__}: {result}")
    return None


# --- verdict maps ------------------------------------------------------------


def verdict_entry(v) -> list:
    return [v.holds, v.exhaustive, v.checked, len(v.witnesses)]


def _verdict_code(v) -> str:
    """One character per Table 2 verdict: 'T' for a witness-free true, the
    witness count 1-9 or 'X' (10) for a false, '?' for any other state."""
    n = len(v.witnesses)
    if v.holds:
        return "T" if n == 0 else "?"
    return "?123456789X"[n] if 1 <= n <= 10 else "?"


def _table2_row(props: dict) -> str:
    shape = {(v.exhaustive, v.checked) for v in props.values()}
    if len(shape) != 1 or set(props) != set(TABLE2_PROPS):
        return "mixed"
    ((exhaustive, checked),) = shape
    codes = "".join(_verdict_code(props[p]) for p in TABLE2_PROPS)
    return f"{int(exhaustive)}/{checked}:{codes}"


def verdict_map(rep) -> dict:
    """Every holds, exhaustive, checked and witness count of a report, plus
    its implication audit and theorem flags, in a JSON-comparable form."""
    return {
        "table1": {p: verdict_entry(v) for p, v in rep.table1.items()},
        "table2": [[idx, _table2_row(props)] for idx, props in rep.table2],
        "implication_audit": list(rep.implication_audit),
        "theorems": rep.theorems,
    }


def witnesses_kept(rep) -> int:
    kept = sum(len(v.witnesses) for v in rep.table1.values())
    return kept + sum(len(v.witnesses) for _, props in rep.table2 for v in props.values())


# --- classify-default ----------------------------------------------------------


class ClassifyDefault:
    """`classify` then `report_to_json` for each operator on the default
    corpus, each with a freshly built universe, as one CLI invocation does.

    The key orders the corpus and seeds the associativity sample.  The
    corpus content stays the default corpus: the corpora of default_corpus
    seeds 0-7 differ by up to 10% in the text rendered and the constraints
    denoted per cycle, while reordering moves render calls by under 0.3%.
    """

    name = "classify-default"

    def __init__(self, prog: Program, key: int, workdir: Path):
        self.prog = prog
        self.key = key
        base = prog.algebra.default_corpus()
        models = list(base.models)
        random.Random(key).shuffle(models)
        self.corpus = prog.algebra.Corpus(tuple(models), base.origin)
        self.info = {
            "corpus_size": len(models),
            "system_count": prog.semantics.build_universe(models).system_count,
        }
        self.cycle = [Op(op, op, partial(self._request, op)) for op in OPERATORS]

    def _request(self, op: str):
        p = self.prog
        u = p.semantics.build_universe(self.corpus.models)
        rep = p.algebra.classify(op, self.corpus, u, seed=self.key)
        return rep, p.report.report_to_json(rep)

    def summarize(self, i: int, result) -> dict:
        rep, text = result
        return {"verdicts": verdict_map(rep), "json_sha": digest(text)}

    def check(self, i: int, result, expected: dict) -> Outcome:
        error = _failed_on_error(result)
        if error:
            return error
        rep, text = result
        got = verdict_map(rep)
        want = expected["ops"][i]
        status = "ok" if got == want["verdicts"] else "failed"
        return Outcome(status, witnesses_kept(rep), digest(text) != want["json_sha"],
                       "" if status == "ok" else f"{self.cycle[i].kind}: verdict map differs")


# --- cli-mixed ---------------------------------------------------------------------


def _cli_call(main, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


class CliMixed:
    """A closed loop with one client sending in-process `modelalg.cli.main`
    requests over the default corpus written as .mcd files at set-up.

    The mix gives every request kind the same share: one cycle is ROUNDS
    rounds, and each round sends one request of each kind in KINDS, with
    the corpus's models taken in a seeded order so that every model is the
    first (and the second) argument of every kind once per cycle.  `sm
    --list` goes through the models that list few systems instead.  On top
    of that, each `sm`/`check` kind sends one `--padding 2,2,2` request per
    PAD_EVERY rounds, on a model whose padded universe exceeds the
    enumeration cap; the seed commit refuses those with exit 3.  The key
    seeds the model orders and the order of the requests in the cycle."""

    name = "cli-mixed"
    KINDS = (
        *(f"compose.{op}" for op in OPERATORS),
        "check.refines", "check.eq", "check.consistent", "sm", "sm.list", "quotient",
    )
    PADDED_KINDS = ("check.refines", "check.eq", "check.consistent", "sm")
    PAD_EVERY = 12
    LIST_LIMIT = 1000  # `sm --list` only on models whose auto universe lists few systems

    def __init__(self, prog: Program, key: int, workdir: Path):
        self.prog = prog
        corpus = prog.algebra.default_corpus()
        model_dir = workdir / "models"
        model_dir.mkdir(parents=True)
        paths = []
        for i, m in enumerate(corpus.models):
            path = model_dir / f"model_{i:03d}.mcd"
            path.write_text(prog.syntax.render(m), encoding="utf-8")
            paths.append(str(path))
        sem = prog.semantics
        listable = [
            p for p, m in zip(paths, corpus.models)
            if sem.denotation(m, sem.build_universe([m])).size <= self.LIST_LIMIT
        ]
        big = [
            p for p, m in zip(paths, corpus.models)
            if sem.build_universe([m], 2, 2, 2, cap=None).system_count > sem.DEFAULT_CAP
        ]
        rng = random.Random(key)
        shuffled = lambda xs: rng.sample(xs, len(xs))  # noqa: E731
        firsts, seconds, listed, padded = shuffled(paths), shuffled(paths), shuffled(listable), shuffled(big)
        pad = ["--padding", "2,2,2"]

        def argv(kind: str, a: str, b: str) -> list[str]:
            command, _, variant = kind.partition(".")
            if command == "compose":
                return ["compose", "--operator", variant, a, b]
            if kind == "check.consistent":
                return ["check", "consistent", a]
            if command == "check":
                return ["check", variant, a, b]
            if kind == "sm":
                return ["sm", a]
            if kind == "sm.list":
                return ["sm", "--list", a]
            return ["quotient", "--corpus", str(model_dir)]

        ops = []
        for r in range(len(paths)):
            for kind in self.KINDS:
                a = listed[r % len(listed)] if kind == "sm.list" else firsts[r]
                ops.append((kind, argv(kind, a, seconds[r]), False))
            if r % self.PAD_EVERY == 0:
                a = padded[r // self.PAD_EVERY % len(padded)]
                ops.extend((kind, argv(kind, a, seconds[r]) + pad, True) for kind in self.PADDED_KINDS)
        rng.shuffle(ops)
        self.argvs = [args for _, args, _ in ops]
        self.info = {
            "corpus_size": len(paths),
            "system_count": sem.build_universe(corpus.models).system_count,
            "requests_per_cycle": len(ops),
            "padded_per_cycle": sum(p for _, _, p in ops),
        }
        self.cycle = [
            Op(kind, kind.removeprefix("compose.") if kind.startswith("compose.") else None,
               partial(self._request, args), is_padded)
            for kind, args, is_padded in ops
        ]

    def _request(self, argv: list[str]):
        return _cli_call(self.prog.cli.main, argv)

    def summarize(self, i: int, result) -> str:
        code, out = result
        return f"{code}:{digest(out)}"

    def served_run(self, i: int):
        """Request i as served when the enumeration cap is not applied to the
        auto universe, which no request here needs to enumerate."""
        cli = self.prog.cli
        capped = cli.build_universe
        cli.build_universe = partial(capped, cap=None)
        try:
            return self.cycle[i].run()
        finally:
            cli.build_universe = capped

    def check(self, i: int, result, expected: dict) -> Outcome:
        error = _failed_on_error(result)
        if error:
            return error
        code, out = result
        want_code, want_digest = expected["ops"][i].split(":")
        if code == 0 and digest(out) == want_digest:
            return Outcome("ok")
        if code == 3 and want_code == "3":
            return Outcome("refused")
        return Outcome("failed", detail=f"{self.cycle[i].kind}: exit {code}")


WORKLOADS = {cls.name: cls for cls in (ClassifyDefault, CliMixed)}
