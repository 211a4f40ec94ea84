#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload classify-default --seed 1 --seconds 55 --trace 0

With --trace 0 the run repeats the workload's cycle of operations for
--seconds and prints the end-to-end metrics.  Each operation is followed by
the same operation on the frozen reference copy of the program in
reference/, and each time is reported at the reference's recorded speed:
the machine's momentary slowness is the reference's time over its recorded
time, averaged over the reference runs just before and just after the
operation, and the program's time is divided by it.  With --trace 1 it runs whole
cycles untraced for a third of the time, then whole traced cycles for the
rest, and prints the per-layer metrics per cycle; the spans are written to
.perfbench_work/spans/.  Every operation's output is checked against
perfbench/expected/ outside the timed region.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records the run's settings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
PROGRAM = (ROOT / "src", "modelalg")
REFERENCE = (HERE / "reference", "modelalg_ref")  # modelalg as of commit 6bce06f, never edited
SETUP_INTERVAL = 5.0  # seconds between the set-ups timed for setup_s

sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402
from workloads import INPUT_KEYS, OPERATORS, WORKLOADS, import_program  # noqa: E402


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def set_up(workload_cls, key: int, workdir: Path, program=PROGRAM):
    """Import the program afresh, generate the inputs and write any files;
    returns the program, the workload and the seconds it took."""
    start = perf_counter()
    prog = import_program(*program)
    workload = workload_cls(prog, key, workdir)
    return prog, workload, perf_counter() - start


class Sample(NamedTuple):
    op: object
    seconds: float  # the program's time
    status: str
    ref_seconds: float | None = None  # the reference's time for the same operation, taken right after
    scaled: float | None = None  # seconds at the reference's recorded speed


class Tally:
    def __init__(self):
        self.samples: list[Sample] = []
        self.witnesses_kept = 0
        self.digest_mismatches = 0
        self.cycles = 0
        self.wall = 0.0


def timed(fn):
    """(result, seconds); an exception is the result, not a crash of the run."""
    t0 = perf_counter()
    try:
        result = fn()
    except Exception as exc:
        result = exc
    return result, perf_counter() - t0


def reference_seconds(op) -> float:
    result, dt = timed(op.run)
    if isinstance(result, Exception):
        raise RuntimeError(f"the reference failed on {op.kind}") from result
    return dt


def op_key(op) -> str:
    """The key of an operation's recorded reference time."""
    return op.kind + (".padded" if op.padded else "")


def run_cycles(workload, expected, seconds: float, whole_cycles: bool, errors: list[str],
               tracer=None, between=None, reference=None) -> Tally:
    """Repeat the cycle until `seconds` have passed, at least once; with
    whole_cycles only stop at the end of a cycle.  `between`, if given, is
    called between operations every SETUP_INTERVAL seconds.  With a
    `reference` workload each operation is followed by the reference's, and
    its time is scaled by the slowness the reference runs on either side of
    it show, each its time over its recorded time."""
    tally = Tally()
    cycle = workload.cycle
    recorded = expected.get("ref_seconds")
    slowness = None  # that of the last reference run
    start = perf_counter()
    next_between = start + SETUP_INTERVAL
    i = 0
    while True:
        j = i % len(cycle)
        op = cycle[j]
        result, dt = timed(partial(tracer.run_request, i, op.run) if tracer else op.run)
        outcome = workload.check(j, result, expected)
        del result
        ref_dt = scaled = None
        if reference:
            ref_dt = reference_seconds(reference.cycle[j])
            before, slowness = slowness, ref_dt / recorded[op_key(op)]
            scaled = dt / (slowness if before is None else (before + slowness) / 2)
        tally.samples.append(Sample(op, dt, outcome.status, ref_dt, scaled))
        tally.witnesses_kept += outcome.witnesses_kept
        tally.digest_mismatches += outcome.digest_mismatch
        if outcome.detail and len(errors) < 5:
            errors.append(outcome.detail)
        i += 1
        if between and perf_counter() >= next_between:
            between()
            next_between = perf_counter() + SETUP_INTERVAL
        if i % len(cycle) == 0:
            tally.cycles += 1
        if (i % len(cycle) == 0 or not whole_cycles) and i >= len(cycle) \
                and perf_counter() - start >= seconds:
            break
    tally.wall = perf_counter() - start
    return tally


def median_ms(samples: list[Sample]) -> float:
    """The median scaled latency in ms of the served samples, or of all of
    them when none was served, so that a run whose operations all fail
    still reports."""
    served = [s.scaled for s in samples if s.status == "ok"]
    return statistics.median(served or [s.scaled for s in samples]) * 1e3


def end_to_end(tally: Tally, setup_times: list[float], peak_rss_mb: float) -> dict:
    """Times are at the reference's recorded speed, which takes out most of
    the shared machine's speed changes, and are medians: a run of
    classify-default has only about three operations of each operator,
    too few for a higher percentile.  all_kinds_p50_ms adds up one median
    per operation kind, so every kind counts alike whatever its share of
    the mix.  Padded requests are left out of the latencies; they count in
    served_ratio."""
    samples = [s for s in tally.samples if not s.op.padded]
    by_kind: dict[str, list] = {}
    for s in samples:
        by_kind.setdefault(s.op.kind, []).append(s)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "served_ratio": (sum(s.status == "ok" for s in tally.samples) / len(tally.samples), "ratio"),
        **{f"op_p50_ms.{op}": (median_ms([s for s in samples if s.op.operator == op]), "ms")
           for op in OPERATORS},
        "all_kinds_p50_ms": (sum(median_ms(kind) for kind in by_kind.values()), "ms"),
    }


def per_layer(tracer, traced: Tally, untraced: Tally, attempted: int, not_ok: int) -> dict:
    n = traced.cycles
    s = lambda name: (tracer.self_seconds(name) / n, "s")  # noqa: E731
    c = lambda name: (tracer.call_count(name) / n, "count")  # noqa: E731
    hot, cold = tracer.call_count("semantics.denotation_hot"), tracer.call_count("semantics.denotation_cold")
    built = tracer.counts["witnesses_built"]
    metrics = {
        "syntax.render_calls": c("syntax.render"),
        "syntax.render_s": s("syntax.render"),
        "syntax.parse_calls": c("syntax.parse"),
        "syntax.parse_s": s("syntax.parse"),
        "semantics.denotation_calls": ((hot + cold) / n, "count"),
        "semantics.denotation_hit_ratio": (hot / (hot + cold) if hot + cold else 0.0, "ratio"),
        "semantics.denotation_hot_s": s("semantics.denotation_hot"),
        "semantics.denotation_cold_s": s("semantics.denotation_cold"),
        "semantics.denotation_keys": (tracer.max_keys, "count"),
        "semantics.build_universe_s": s("semantics.build_universe"),
        "semantics.systems_listed": (tracer.counts["systems_listed"] / n, "count"),
    }
    for op in OPERATORS:
        metrics[f"operators.compose_calls.{op}"] = c(f"operators.compose.{op}")
        metrics[f"operators.compose_s.{op}"] = s(f"operators.compose.{op}")
    for part in ("pp", "fpp", "cp", "commutativity", "associativity", "element",
                 "quotient", "congruence", "audit"):
        metrics[f"algebra.{part}_s"] = s(f"algebra.{part}")
    metrics.update({
        "algebra.witnesses_built": (built / n, "count"),
        "algebra.witnesses_kept": (traced.witnesses_kept / n, "count"),
        "algebra.witness_kept_ratio": (traced.witnesses_kept / built if built else 0.0, "ratio"),
        "report.to_json_s": s("report.to_json"),
        "report.json_bytes": (tracer.counts["json_bytes"] / n, "count"),
        "report.digest_mismatches": (traced.digest_mismatches / n, "count"),
        "cli.build_parser_calls": c("cli.build_parser"),
        "cli.build_parser_s": s("cli.build_parser"),
        "cli.refused": (sum(x.status == "refused" for x in traced.samples) / n, "count"),
        "failed_ratio": (not_ok / attempted, "ratio"),
        "trace_overhead_ratio": ((traced.wall / n) / (untraced.wall / untraced.cycles), "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "modelalg" / "__init__.py").is_file():
        print(f"perfbench: no modelalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    key = args.seed % INPUT_KEYS
    recorded = json.loads((HERE / "expected" / f"{args.workload}.json").read_text())
    expected = {**recorded["keys"][str(key)], "ref_seconds": recorded["ref_seconds"],
                "ref_setup_seconds": recorded["ref_setup_seconds"]}
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    errors: list[str] = []
    setup_times: list[float] = []

    def set_up_again() -> None:
        """Time one more set-up of the program, paired with one of the
        reference, spread over the run like the operations, and discard
        both.  The run's own set-ups, which may compile bytecode, are not
        among the timed ones."""
        n = len(setup_times)
        seconds = {}
        for program in (PROGRAM, REFERENCE) if n % 2 else (REFERENCE, PROGRAM):
            workdir = run_dir / f"setup{n}-{program[1]}"
            seconds[program] = set_up(workload_cls, key, workdir, program)[2]
            shutil.rmtree(workdir, ignore_errors=True)
        setup_times.append(seconds[PROGRAM] * expected["ref_setup_seconds"] / seconds[REFERENCE])

    try:
        prog, workload, _ = set_up(workload_cls, key, run_dir / "inputs")
        if workload.info != expected["info"]:
            print(f"perfbench: inputs differ from the recorded ones: {workload.info}", file=sys.stderr)
            return 2
        start = perf_counter()
        if args.trace == 0:
            # One cycle of the program alone gives its peak memory before the
            # reference is loaded into the same process.
            alone = run_cycles(workload, expected, 0, whole_cycles=True, errors=errors)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            reference = set_up(workload_cls, key, run_dir / "reference", REFERENCE)[1]
            set_up_again()
            paired = run_cycles(workload, expected, args.seconds - (perf_counter() - start), whole_cycles=False,
                                errors=errors, between=set_up_again, reference=reference)
            tallies = [alone, paired]
        else:
            untraced = run_cycles(workload, expected, args.seconds / 3, whole_cycles=True, errors=errors)
            tracer = Tracer()
            tracer.install(prog)
            try:
                traced = run_cycles(workload, expected, args.seconds - untraced.wall, whole_cycles=True,
                                    errors=errors, tracer=tracer)
            finally:
                tracer.uninstall()
            tallies = [untraced, traced]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    statuses = [s.status for t in tallies for s in t.samples]
    attempted, failed = len(statuses), statuses.count("failed")
    slowness = None  # how much slower than at recording the machine ran, for reading raw times
    if args.trace == 0:
        metrics = end_to_end(paired, setup_times, peak_rss_mb)
        slowness = statistics.median(s.seconds / s.scaled for s in paired.samples)
    else:
        metrics = per_layer(tracer, traced, untraced, attempted, attempted - statuses.count("ok"))
        tracer.dump(WORK / "spans" / f"{args.workload}-seed{args.seed}.spans",
                    {"workload": args.workload, "seed": args.seed, "cycles": traced.cycles})
    record = {
        "workload": args.workload, "seed": args.seed, "input_key": key, "trace": args.trace,
        "seconds": args.seconds, "git_sha": git_sha(ROOT), "python": platform.python_version(),
        "nproc": os.cpu_count(), **workload.info,
        "cycles": sum(t.cycles for t in tallies), "refused": statuses.count("refused"),
        "digest_mismatches": sum(t.digest_mismatches for t in tallies), "errors": errors,
        "recorded_at": recorded["commit"], "slowness": slowness,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    samples = [[s.op.kind, *s[1:]] for t in tallies for s in t.samples]
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, **out, "samples": samples}) + "\n")
    for line in errors:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
