"""Spans around the calls into each modelalg layer, recorded from outside.

`Tracer.install` rebinds module-level names of the program (for example
`modelalg.algebra.render` or `modelalg.algebra._check_pp`) to timed
wrappers and `uninstall` puts the originals back; no program file changes.
Each span has a name, start, end, parent span and request id.  Spans are
kept in memory in compact arrays and written out by `dump`.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import weakref
from array import array
from pathlib import Path
from time import perf_counter

from workloads import OPERATORS

# (module attribute, name, span) for every plain timed call.  A name that
# several modules imported from one place is rebound in each of them.
TIMED = (
    ("algebra", "render", "syntax.render"),
    ("report", "render", "syntax.render"),
    ("cli", "render", "syntax.render"),
    ("cli", "parse_strict", "syntax.parse"),
    ("semantics", "build_universe", "semantics.build_universe"),
    ("algebra", "build_universe", "semantics.build_universe"),
    ("cli", "build_universe", "semantics.build_universe"),
    ("algebra", "classify", "algebra.classify"),
    ("algebra", "_check_pp", "algebra.pp"),
    ("algebra", "_check_fpp", "algebra.fpp"),
    ("algebra", "_check_cp", "algebra.cp"),
    ("algebra", "_check_commutativity", "algebra.commutativity"),
    ("algebra", "_check_associativity", "algebra.associativity"),
    ("algebra", "_check_element", "algebra.element"),
    ("algebra", "quotient", "algebra.quotient"),
    ("algebra", "_congruence", "algebra.congruence"),
    ("algebra", "_implication_audit", "algebra.audit"),
    ("report", "report_to_json", "report.to_json"),
    ("report", "partition_to_text", "report.to_text"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "main", "cli.main"),
)
DENOTATION_SITES = ("algebra", "cli", "semantics")
HOT, COLD = "semantics.denotation_hot", "semantics.denotation_cold"
REQUEST = "bench.request"
COLUMNS = (("name", "H"), ("start", "d"), ("end", "d"), ("parent", "i"), ("request", "i"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.columns = {col: array(code) for col, code in COLUMNS}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts = {"witnesses_built": 0, "systems_listed": 0, "json_bytes": 0}
        self.request = -1
        self._seen: dict[int, set] = {}  # id(universe) -> denotation keys seen
        self.max_keys = 0
        self._undo: list = []
        self._enter, self._leave = self._span_functions()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    # --- spans -----------------------------------------------------------

    def _span_functions(self):
        """enter(name id) -> span index and leave(span index), closed over
        local names because they run once per traced call."""
        cols = self.columns
        name_col, start_col, end_col = cols["name"], cols["start"], cols["end"]
        parent_col, request_col = cols["parent"], cols["request"]
        calls, self_s = self.calls, self.self_s
        open_spans: list[int] = []
        child_s: list[float] = []  # seconds covered by each open span's children

        def enter(nid: int) -> int:
            idx = len(name_col)
            name_col.append(nid)
            parent_col.append(open_spans[-1] if open_spans else -1)
            request_col.append(self.request)
            end_col.append(0.0)
            open_spans.append(idx)
            child_s.append(0.0)
            start_col.append(perf_counter())
            return idx

        def leave(idx: int) -> None:
            end = perf_counter()
            end_col[idx] = end
            duration = end - start_col[idx]
            nid = name_col[idx]
            calls[nid] += 1
            self_s[nid] += duration - child_s.pop()
            open_spans.pop()
            if child_s:
                child_s[-1] += duration

        return enter, leave

    def timed(self, name: str, fn):
        nid = self.name_id(name)
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(idx)

        return wrapper

    def run_request(self, request_id: int, fn):
        self.request = request_id
        idx = self._enter(self.name_id(REQUEST))
        try:
            return fn()
        finally:
            self._leave(idx)

    def _denotation(self, fn):
        """Split denotation calls into hot and cold by whether this wrapper
        has seen the (universe, frozenset(constraints)) key before."""
        hot, cold = self.name_id(HOT), self.name_id(COLD)
        enter, leave = self._enter, self._leave
        seen_by_universe = self._seen

        def wrapper(m, u):
            key = frozenset(m.constraints)
            seen = seen_by_universe.get(id(u))
            if seen is None:
                seen = seen_by_universe[id(u)] = set()
                weakref.finalize(u, seen_by_universe.pop, id(u), None)
            if key in seen:
                idx = enter(hot)
            else:
                seen.add(key)
                self.max_keys = max(self.max_keys, len(seen))
                idx = enter(cold)
            try:
                return fn(m, u)
            finally:
                leave(idx)

        return wrapper

    # --- install ---------------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, prog) -> None:
        for module, attr, span in TIMED:
            owner = getattr(prog, module)
            self._rebind(owner, attr, self.timed(span, getattr(owner, attr)))
        for module in DENOTATION_SITES:
            owner = getattr(prog, module)
            self._rebind(owner, "denotation", self._denotation(owner.denotation))

        counts = self.counts
        witness = prog.algebra.Witness

        def counted_witness(*args, **kwargs):
            counts["witnesses_built"] += 1
            return witness(*args, **kwargs)

        self._rebind(prog.algebra, "Witness", counted_witness)

        systems = prog.semantics.Denotation.systems

        def counted_systems(d):
            for s in systems(d):
                counts["systems_listed"] += 1
                yield s

        self._rebind(prog.semantics.Denotation, "systems", counted_systems)

        to_json = prog.report.report_to_json  # already the timed wrapper

        def measured_to_json(rep):
            text = to_json(rep)
            counts["json_bytes"] += len(text.encode("utf-8"))
            return text

        self._rebind(prog.report, "report_to_json", measured_to_json)

        table = prog.operators.OPERATORS
        for op in OPERATORS:
            self._undo.append((table, op, table[op]))
            table[op] = self.timed(f"operators.compose.{op}", table[op])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # --- results ---------------------------------------------------------

    def span_count(self) -> int:
        return len(self.columns["name"])

    def self_seconds(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_s[nid]

    def call_count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def dump(self, path: Path, meta: dict) -> None:
        """One JSON header line, then each column's raw machine values."""
        header = dict(meta, names=self.names, spans=self.span_count(),
                      columns=[list(c) for c in COLUMNS], byteorder=sys.byteorder)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for col, _ in COLUMNS:
                self.columns[col].tofile(fh)


def load_spans(path: Path) -> tuple[dict, dict]:
    """Read a file written by `Tracer.dump`: (header, {column: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for col, code in header["columns"]:
            values = array(code)
            values.fromfile(fh, header["spans"])
            if header["byteorder"] != sys.byteorder:
                values.byteswap()
            columns[col] = values
    return header, columns
