import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from modelalg.report import _write_json

# every code point, lone surrogates included
strings = st.text(st.characters(exclude_categories=()))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**100), 2**100) | strings,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(strings, children, max_size=4),
    max_leaves=30,
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


@pytest.mark.parametrize("value", [1.5, {"a": [1.5]}, {1, 2}, (1, 2), {1: "a"}, [{None: 0}], b"x"])
def test_writer_rejects_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        write(value)
