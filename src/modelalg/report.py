"""Text and JSON rendering of operator reports."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

from .algebra import OperatorReport, Partition, StabilityReport, Verdict, _failures
from .semantics import count_text
from .syntax import render


def report_to_dict(r: OperatorReport) -> dict:
    """The report as JSON-ready data, with each Verdict left as a leaf for
    _write_json.  Each corpus model is rendered once."""
    models = [render(m) for m in r.corpus.models]
    return {
        "operator": r.operator,
        "universe": {
            "classes": list(r.universe.class_pool),
            "attrs": list(r.universe.attr_pool),
            "types": list(r.universe.type_pool),
            "system_count": int(text) if (text := count_text(r.universe.system_count)).isdigit() else text,
        },
        "corpus": {
            "origin": r.corpus.origin,
            "size": len(r.corpus.models),
            "models": models,
        },
        "table1": r.table1,
        "table2": [{"model": models[idx], "props": props} for idx, props in r.table2],
        "implication_audit": list(r.implication_audit),
        "theorems": r.theorems,
    }


def _write_verdict(v: Verdict, out: list, newline: str, memo: dict) -> None:
    """Append the json.dumps(..., indent=2) text of v at newline's depth in
    pieces: a head, one per witness, and a tail.  An unread verdict is written
    from the failures it keeps, building no Witness (see algebra._failures).
    memo maps each models tuple written at this depth to its array's text."""
    i1, i2, i3, i4 = (newline + "  " * k for k in range(1, 5))
    out.append(f'{{{i1}"holds": {"true" if v.holds else "false"},{i1}"witnesses": ')
    sep = "[" + i2
    failures = _failures(v)
    for texts, relation, observed in failures:
        if (models := memo.get(texts)) is None:
            models = memo[texts] = f"[{i4}{f',{i4}'.join(map(encode_basestring_ascii, texts))}{i3}]" if texts else "[]"
        relation, observed = encode_basestring_ascii(relation), encode_basestring_ascii(observed)
        out.append(f'{sep}{{{i3}"models": {models},{i3}"relation": {relation},{i3}"observed": {observed}{i2}}}')
        sep = "," + i2
    close = i1 + "]" if failures else "[]"
    exhaustive = "true" if v.exhaustive else "false"
    checked = int.__repr__(v.checked)
    out.append(f'{close},{i1}"sampling": {{{i2}"exhaustive": {exhaustive},{i2}"checked": {checked}{i1}}}{newline}}}')


def _write_json(value, out: list, newline: str, memo: dict) -> None:
    """Append to out the pieces of json.dumps(value, indent=2), for values made
    of dicts with str keys, lists, str, int, bool, None and Verdicts; newline
    is a line break plus the indentation of value's level.  memo, one dict per
    depth, holds the witness models arrays written so far, for one top call."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or isinstance(value, bool):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write_json(item, out, inner, memo)
            sep = comma
        out.append(newline + "}" if value else "{}")
    elif isinstance(value, list):
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            out.append(sep)
            _write_json(item, out, inner, memo)
            sep = comma
        out.append(newline + "]" if value else "[]")
    elif isinstance(value, Verdict):
        _write_verdict(value, out, newline, memo.setdefault(newline, {}))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def report_to_json(r: OperatorReport) -> str:
    out: list[str] = []
    _write_json(report_to_dict(r), out, "\n", {})
    out.append("\n")
    return "".join(out)


def report_to_text(r: OperatorReport) -> str:
    lines = [
        f"operator: {r.operator}",
        f"universe: {r.universe.describe()}",
        f"corpus: {r.corpus.origin} ({len(r.corpus.models)} models)",
        "",
        "Table 1 (composition properties)",
    ]
    for p, v in r.table1.items():
        sampling = "exhaustive" if v.exhaustive else "sampled"
        lines.append(f"  {p:<8} {'true ' if v.holds else 'false'}  {sampling} over {v.checked} tuples")
        for w in v.witnesses[:1]:
            lines.append(f"           witness: {' | '.join(w.models)}")
            lines.append(f"           expected: {w.relation}; observed: {w.observed}")
    lines += ["", "Table 2 (special elements; + holds, - fails)"]
    for idx, props in r.table2:
        flags = " ".join(f"{p}{'+' if v.holds else '-'}" for p, v in props.items())
        lines.append(f"  model {idx:02d} `{r.corpus.models[idx].line}`")
        lines.append(f"    {flags}")
    lines.append("")
    if r.implication_audit:
        lines.append("implication audit: VIOLATIONS")
        lines.extend(f"  {item}" for item in r.implication_audit)
    else:
        lines.append("implication audit: ok (no violated dependencies)")
    for n, claim in ((1, "FPP gives semantic com/ass/idempotence"), (2, "FPP gives congruence of the quotient")):
        t = r.theorems[f"t{n}"]
        lines.append(
            f"theorem {n} ({claim}): {'holds' if t['holds'] else 'VIOLATED'}"
            f"{' (not applicable: operator is not FPP here)' if not t['applicable'] else ''}"
        )
    return "\n".join(lines) + "\n"


def partition_to_text(p: Partition) -> str:
    lines = [f"{len(p.classes)} semantic classes over {len(p.corpus.models)} models"]
    for k, cls in enumerate(p.classes):
        members = " ".join(f"#{i}" for i in cls)
        rep = p.corpus.models[cls[0]].line
        lines.append(f"  class {k}: {members}")
        lines.append(f"    representative: {rep}")
    return "\n".join(lines) + "\n"


def stability_to_text(s: StabilityReport) -> str:
    if s.stable:
        return f"{s.operator}: stable\n"
    return f"{s.operator}: unstable\n" + "".join(f"  {d}\n" for d in s.differing)
