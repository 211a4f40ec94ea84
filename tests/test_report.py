import json
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from modelalg import (
    OPERATORS, Corpus, Verdict, Witness, build_universe, classify, default_corpus, parse_strict, quotient, syntax,
)
from modelalg.report import _write_json, partition_to_text, report_to_dict, report_to_json, report_to_text
from modelalg.semantics import count_text

# every code point, lone surrogates included
strings = st.text(st.characters(exclude_categories=()))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**100), 2**100) | strings,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(strings, children, max_size=4),
    max_leaves=30,
)
witnesses = st.builds(Witness, st.lists(strings, max_size=4).map(tuple), strings, strings)
verdicts = st.builds(
    Verdict, strings, st.booleans(), st.lists(witnesses, max_size=3).map(tuple), st.booleans(), st.integers(0, 2**70)
)
AWKWARD = ("\"quoted\" and \\ back", "\x00\x1f\t\n\x7f", "caf\xe9 ≠ \U0001f600", "\ud800 \udfff")


def verdict_dict(v: Verdict) -> dict:
    """The plain data a Verdict is written as."""
    return {
        "holds": v.holds,
        "witnesses": [
            {"models": list(w.models), "relation": w.relation, "observed": w.observed}
            for w in v.witnesses
        ],
        "sampling": {"exhaustive": v.exhaustive, "checked": v.checked},
    }


# a verdict on its own, and where Table 1 and Table 2 put one in a report
AT_REPORT_DEPTHS = (
    lambda v: v,
    lambda v: {"operator": "op", "table1": {"PP_l": v, "FPP": v}},
    lambda v: {"table2": [{"model": "", "props": {"id_l": v}}, {"model": "m", "props": {"id_l": v, "ann": v}}]},
)


def write(value) -> str:
    out: list[str] = []
    _write_json(value, out, "\n")
    return "".join(out)


@given(json_values)
@example({"caf\xe9": ["\x00\x1f\t\"\\", "\ud800", "\U0001f600"], "e": {}, "l": [], "n": [-(2**70), 0, True, None]})
@example([])
@example({})
def test_writer_matches_json_dumps(value):
    assert write(value) == json.dumps(value, indent=2)


@given(verdicts)
@example(Verdict("P", True, (), True, 0))
@example(Verdict("P", False, (Witness((), "", ""),), False, 10000))
@example(Verdict("P", False, (Witness(AWKWARD, AWKWARD[0], AWKWARD[3]), Witness(AWKWARD[1:2], *AWKWARD[1:3])), True, 1))
def test_verdict_written_as_its_plain_dict(v):
    for wrap in AT_REPORT_DEPTHS:
        assert write(wrap(v)) == json.dumps(wrap(verdict_dict(v)), indent=2)


def test_report_written_as_its_plain_dict():
    models = [parse_strict(src) for src in ("", "class A { x: T }", "class A {}\nclass A { x: T }", "class B {}")]
    corpus = Corpus(models, "test")
    rep = classify("override", corpus, build_universe(models))
    assert report_to_json(rep) == json.dumps(report_to_dict(rep), default=verdict_dict, indent=2) + "\n"


@pytest.mark.parametrize("value", [1.5, {"a": [1.5]}, {1, 2}, (1, 2), {1: "a"}, [{None: 0}], b"x"])
def test_writer_rejects_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        write(value)


def test_reports_on_a_universe_whose_counts_pass_the_digit_limit():
    corpus = default_corpus()
    u = build_universe(corpus.models, 100, 100, 100, cap=None)
    start = time.perf_counter()
    rep = classify("union", corpus, u)
    text, json_text = report_to_text(rep), report_to_json(rep)
    assert time.perf_counter() - start < 2
    total = count_text(u.system_count)
    assert total.startswith("about 10^") and json.loads(json_text)["universe"]["system_count"] == total
    assert f"({total} systems)" in text
    assert "|=about 10^" in json_text  # the sizes of Table 2's semantic witnesses


def test_each_model_is_written_on_one_line_once(monkeypatch):
    # the checker's witnesses and both text reports share each model's one-line view
    written = []  # holds every model written, so no two of them share an id
    lines = syntax._lines
    monkeypatch.setattr(syntax, "_lines", lambda m: written.append(m) or lines(m))
    corpus = default_corpus()
    u = build_universe(corpus.models)
    for op in OPERATORS:
        report_to_text(classify(op, corpus, u))
    partition_to_text(quotient(corpus, u))
    assert written and len({id(m) for m in written}) == len(written)
