#!/usr/bin/env python3
"""Record the expected outputs the benchmark checks against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs one cycle of each workload for every input key and writes
perfbench/expected/<workload>.json: each operation's outputs, and the
reference copy's time for each kind of operation and for the set-up, which
run.py scales its times to.  A recorded time is the median over all keys of
the least of TIMINGS runs.  Run it only at a commit
whose outputs are trusted; re-recording after a behaviour change hides that
change.  After recording classify-default, run perfbench/crosscheck.py.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import REFERENCE, ROOT, git_sha, op_key, reference_seconds, set_up  # noqa: E402
from workloads import INPUT_KEYS, WORKLOADS  # noqa: E402

TIMINGS = 3


def record(name: str) -> dict:
    keys = {}
    ref_seconds: dict[str, list[float]] = {}
    ref_setup_seconds = []
    for key in range(INPUT_KEYS):
        workdir = Path(tempfile.mkdtemp(prefix="perfbench-record-", dir=ROOT))
        try:
            _, workload, _ = set_up(WORKLOADS[name], key, workdir / "w")
            ops = []
            for i, op in enumerate(workload.cycle):
                entry = workload.summarize(i, op.run())
                if isinstance(entry, str) and entry.startswith("3:"):
                    entry = "3:" + workload.summarize(i, workload.served_run(i)).split(":")[1]
                ops.append(entry)
            setups = [set_up(WORKLOADS[name], key, workdir / f"r{n}", REFERENCE) for n in range(TIMINGS + 1)]
            ref_setup_seconds.append(min(seconds for _, _, seconds in setups[1:]))
            for op in setups[0][1].cycle:
                ref_seconds.setdefault(op_key(op), []).append(min(reference_seconds(op) for _ in range(TIMINGS)))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        keys[str(key)] = {"info": workload.info, "ops": ops}
        print(f"{name} key {key}: {len(ops)} operations", file=sys.stderr)
    return {"commit": git_sha(ROOT), "keys": keys,
            "ref_seconds": {kind: statistics.median(times) for kind, times in sorted(ref_seconds.items())},
            "ref_setup_seconds": statistics.median(ref_setup_seconds)}


def main(argv: list[str]) -> int:
    out = HERE / "expected"
    out.mkdir(exist_ok=True)
    for name in argv or sorted(WORKLOADS):
        doc = record(name)
        (out / f"{name}.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
