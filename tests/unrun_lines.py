"""List every line of a function or method body in src/modelalg that no Tier-1 test runs.

Runs the Tier-1 suite in this process under a line tracer restricted to src/modelalg
(sys.settrace, and threading.settrace for threads the tests start) and prints each
unrun line as path:line.  Module-level code, which runs on import, is not counted.
Exits 1 if some line is unrun, else with pytest's exit status.  Arguments go to pytest:

    python tests/unrun_lines.py -q --hypothesis-seed=0
"""

import ast
import sys
import threading
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "modelalg"


def body_lines(path: Path) -> set[int]:
    """The lines of path's code objects that lie inside some function body."""
    source = path.read_text(encoding="utf-8")
    spans = [(node.body[0].lineno, node.end_lineno) for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        lines.update(n for *_, n in code.co_lines() if n and any(a <= n <= b for a, b in spans))
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    ran = set()

    @lru_cache(maxsize=None)
    def traced(filename: str) -> Path | None:
        path = Path(filename).resolve()
        return path if path.parent == SRC else None

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if traced(frame.f_code.co_filename) else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran = {(traced(filename), n) for filename, n in ran}
    unrun = [(path, n) for path in sorted(SRC.glob("*.py")) for n in sorted(body_lines(path))
             if (path, n) not in ran]
    for path, n in unrun:
        text = path.read_text(encoding="utf-8").splitlines()[n - 1].strip()
        print(f"{path.relative_to(ROOT)}:{n}: {text}")
    print(f"{len(unrun)} unrun lines in function bodies of {SRC.relative_to(ROOT)}")
    return 1 if unrun else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
