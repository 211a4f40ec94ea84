"""Tests of the benchmark itself.

    python3 -m pytest perfbench

A wrong verdict or an unexpected exit code must be counted as failed, a
changed report byte only as a digest mismatch, and a run must emit exactly
the metrics BENCHMARK.json names, with their units.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import hashlib
import subprocess
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from tracing import load_spans  # noqa: E402
from run import REFERENCE, Sample, Tally, end_to_end, run_cycles  # noqa: E402
from workloads import OPERATORS, WORKLOADS, ClassifyDefault, CliMixed, Op, Outcome, import_program  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE_SHA256 = "3ea12cb43cf275b008341d7a612ac939bac4e2addb870c4192812982a5dac774"


def expected(workload: str, key: int) -> dict:
    return json.loads((HERE / "expected" / f"{workload}.json").read_text())["keys"][str(key)]


@pytest.fixture(scope="module")
def prog():
    return import_program(ROOT / "src")


@pytest.fixture(scope="module")
def intersect_run(prog, tmp_path_factory):
    workload = ClassifyDefault(prog, 0, tmp_path_factory.mktemp("classify"))
    i = OPERATORS.index("intersect")
    return workload, i, workload.cycle[i].run()


def _replace_verdict(rep, table: str, prop: str, **changes):
    if table == "table1":
        v = rep.table1[prop]
        return dataclasses.replace(rep, table1={**rep.table1, prop: dataclasses.replace(v, **changes)})
    idx, props = rep.table2[0]
    row = (idx, {**props, prop: dataclasses.replace(props[prop], **changes)})
    return dataclasses.replace(rep, table2=(row, *rep.table2[1:]))


def test_recorded_classify_passes(intersect_run):
    workload, i, result = intersect_run
    outcome = workload.check(i, result, expected("classify-default", 0))
    assert (outcome.status, outcome.digest_mismatch) == ("ok", False)
    assert outcome.witnesses_kept > 0


@pytest.mark.parametrize("table, prop", [("table1", "CP"), ("table1", "Ass_sm"), ("table2", "Rn_comp")])
def test_flipped_verdict_fails(intersect_run, table, prop):
    workload, i, (rep, text) = intersect_run
    v = rep.table1[prop] if table == "table1" else rep.table2[0][1][prop]
    flipped = _replace_verdict(rep, table, prop, holds=not v.holds)
    assert workload.check(i, (flipped, text), expected("classify-default", 0)).status == "failed"


def test_changed_witness_count_or_coverage_fails(intersect_run):
    workload, i, (rep, text) = intersect_run
    want = expected("classify-default", 0)
    pp = rep.table1["PP"]
    assert not pp.holds
    fewer = _replace_verdict(rep, "table1", "PP", witnesses=pp.witnesses[:1])
    assert workload.check(i, (fewer, text), want).status == "failed"
    sampled = _replace_verdict(rep, "table1", "PP", checked=pp.checked - 1)
    assert workload.check(i, (sampled, text), want).status == "failed"
    audited = dataclasses.replace(rep, implication_audit=("FPP => PP",))
    assert workload.check(i, (audited, text), want).status == "failed"


def test_changed_report_bytes_are_a_mismatch_not_a_failure(intersect_run):
    workload, i, (rep, text) = intersect_run
    outcome = workload.check(i, (rep, text + "\n"), expected("classify-default", 0))
    assert (outcome.status, outcome.digest_mismatch) == ("ok", True)


def test_raised_error_fails(intersect_run):
    workload, i, _ = intersect_run
    assert workload.check(i, RuntimeError("boom"), expected("classify-default", 0)).status == "failed"


def test_cli_unexpected_exit_code_fails(prog, tmp_path):
    workload = CliMixed(prog, 2, tmp_path)
    want = expected("cli-mixed", 2)
    i = next(i for i, op in enumerate(workload.cycle) if op.kind == "check.refines")
    code, out = workload.cycle[i].run()
    assert workload.check(i, (code, out), want).status == "ok"
    for wrong in ((2, out), (3, out), (0, out + "x")):
        assert workload.check(i, wrong, want).status == "failed"


def test_cli_padded_request_is_refused_or_served(prog, tmp_path):
    workload = CliMixed(prog, 2, tmp_path)
    want = expected("cli-mixed", 2)
    padded = [i for i, op in enumerate(workload.cycle) if op.padded]
    assert len(padded) == workload.info["padded_per_cycle"] == 12
    assert all(want["ops"][i].startswith("3:") == op.padded for i, op in enumerate(workload.cycle))
    i = padded[0]
    code, out = workload.cycle[i].run()
    assert code == 3
    assert workload.check(i, (code, out), want).status == "refused"
    served = workload.served_run(i)
    assert served[0] == 0
    assert workload.check(i, served, want).status == "ok"
    assert workload.check(i, (0, served[1] + "x"), want).status == "failed"
    assert workload.check(i, (2, ""), want).status == "failed"


def test_cli_mix_gives_every_kind_an_equal_share(prog, tmp_path):
    workload = CliMixed(prog, 3, tmp_path)
    kinds = Counter(op.kind for op in workload.cycle if not op.padded)
    assert kinds == {kind: workload.info["corpus_size"] for kind in CliMixed.KINDS}
    sm_inputs = [argv[-1] for argv in workload.argvs if argv[0] == "sm" and "--padding" not in argv
                 and "--list" not in argv]
    assert len(set(sm_inputs)) == workload.info["corpus_size"]


def _samples(latencies: dict[str, tuple[list[float], str]]) -> Tally:
    tally = Tally()
    for kind, (values, status) in latencies.items():
        op = Op(kind, kind.removeprefix("compose."), run=None)
        # the program and the reference both ran at half the recorded speed
        tally.samples.extend(Sample(op, 2 * dt, status, 2 * dt, dt) for dt in values)
    return tally


def test_latency_metrics_cover_every_kind():
    ok = {f"compose.{op}": ([0.001] * 10, "ok") for op in OPERATORS}
    base = end_to_end(_samples({**ok, "sm": ([0.001] * 10, "ok")}), [0.1], 20.0)
    slow = end_to_end(_samples({**ok, "sm": ([0.003] * 10, "ok")}), [0.1], 20.0)
    assert slow["all_kinds_p50_ms"][0] == pytest.approx(base["all_kinds_p50_ms"][0] + 2)


def test_an_operator_failing_every_time_still_reports():
    latencies = {f"compose.{op}": ([0.001] * 10, "ok") for op in OPERATORS}
    latencies["compose.strict"] = ([0.002] * 10, "failed")
    metrics = end_to_end(_samples(latencies), [0.1], 20.0)
    assert metrics["op_p50_ms.strict"][0] == pytest.approx(2)
    assert metrics["served_ratio"][0] == pytest.approx(0.8)
    assert all(value > 0 for value, _ in metrics.values())


class _Busy:
    """A one-operation workload whose operation takes `seconds`."""

    def __init__(self, seconds: float):
        self.cycle = [Op("busy", None, partial(time.sleep, seconds))]

    def check(self, i, result, expected):
        return Outcome("ok")


def test_times_are_scaled_by_the_reference_runs_around_them():
    tally = run_cycles(_Busy(0.004), {"ref_seconds": {"busy": 0.001}}, 0.05, whole_cycles=False, errors=[],
                       reference=_Busy(0.002))
    samples = tally.samples
    assert len(samples) >= 2
    assert samples[0].scaled == pytest.approx(samples[0].seconds * 0.001 / samples[0].ref_seconds)
    for before, s in zip(samples, samples[1:]):
        slowness = (before.ref_seconds + s.ref_seconds) / 2 / 0.001
        assert s.scaled == pytest.approx(s.seconds / slowness)
    assert all(s.scaled == pytest.approx(0.002, rel=0.5) for s in samples)


def test_reference_copy_is_unchanged():
    """The reference must stay the program as of the recorded commit: the
    recorded reference times and every past result are scaled to it."""
    src = REFERENCE[0] / REFERENCE[1]
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == REFERENCE_SHA256


def test_same_seed_gives_same_inputs(prog, tmp_path):
    def requests(key, name):
        workload = CliMixed(prog, key, tmp_path / name)
        return [[Path(a).name for a in argv] for argv in workload.argvs]

    first = requests(5, "a")
    assert first == requests(5, "b")
    assert first != requests(6, "c")
    corpora = [ClassifyDefault(prog, k, tmp_path).corpus.models for k in (5, 5, 6)]
    assert corpora[0] == corpora[1] != corpora[2]
    assert set(corpora[0]) == set(corpora[2])


def _run(cwd: Path, workload: str, trace: int, seconds: float = 0.5) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_run_emits_every_named_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace and workload == "cli-mixed":
        assert result["metrics"]["failed_ratio"]["value"] == pytest.approx(12 / 408)
        assert result["metrics"]["cli.refused"]["value"] == 12
    if trace:
        header, spans = load_spans(ROOT / ".perfbench_work" / "spans" / f"{workload}-seed7.spans")
        assert header["workload"] == workload and header["spans"] == len(spans["name"]) > 0
        assert all(p < i for i, p in enumerate(spans["parent"]))
        assert all(s <= e for s, e in zip(spans["start"], spans["end"]))
        roots = [i for i, p in enumerate(spans["parent"]) if p == -1]
        assert {header["names"][spans["name"][i]] for i in roots} == {"bench.request"}


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "cli-mixed", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
