"""The package's exported names, the program names the benchmark's tracer rebinds, and no assert in the program."""

import ast
import importlib
import inspect
import types
from pathlib import Path

import modelalg

# every public name `modelalg.__all__` exports
EXPORTS = {
    "AttrComplete", "AttrTyped", "ClassExists", "Constraint", "Corpus", "CorpusBounds", "DEFAULT_BOUNDS",
    "DEFAULT_CAP", "Denotation", "Diagnostic", "Model", "OPERATORS", "OperatorReport", "ParseError",
    "Partition", "StabilityReport", "System", "Universe", "UniverseCapError", "UniverseError", "Verdict",
    "Witness", "build_universe", "check_associativity", "check_element", "check_pairs",
    "classify", "congruence_check", "default_corpus", "denotation",
    "generate_corpus", "get_operator", "intersect_merge", "is_consistent", "is_uninformative",
    "load_universe", "normalize", "override_merge", "paranoid_merge", "parse",
    "parse_strict", "quotient", "refines", "render", "semantically_eq", "stability_check", "strict_merge",
    "syntactic_eq", "union_merge", "universe_from_spec",
}


def test_all_exports_classes_functions_and_constants():
    assert EXPORTS <= set(modelalg.__all__)
    for name in modelalg.__all__:
        value = getattr(modelalg, name)
        is_type = inspect.isclass(value) or isinstance(value, types.UnionType)  # Constraint is a union alias
        assert is_type or inspect.isfunction(value) or name.isupper(), name


def test_star_import_binds_no_module():
    namespace: dict = {}
    exec("from modelalg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(modelalg.__all__)
    assert not [name for name, value in namespace.items() if inspect.ismodule(value)]


def _tracer_constants() -> dict:
    """TIMED and DENOTATION_SITES, read from perfbench/tracing.py's source without importing it."""
    tree = ast.parse((Path(__file__).parent.parent / "perfbench" / "tracing.py").read_text())
    return {target.id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
            and target.id in ("TIMED", "DENOTATION_SITES")}


def test_every_name_the_tracer_rebinds_exists():
    constants = _tracer_constants()
    names = [(module, attr) for module, attr, _ in constants["TIMED"]]
    names += [(module, "denotation") for module in constants["DENOTATION_SITES"]]
    names += [("algebra", "Witness"), ("operators", "OPERATORS")]
    for module, attr in names:
        assert hasattr(importlib.import_module(f"modelalg.{module}"), attr), (module, attr)
    assert hasattr(importlib.import_module("modelalg.semantics").Denotation, "systems")


def test_the_program_has_no_assert_statement():
    # python -O strips asserts, so the program checks its invariants with raises
    found = [f"{path.name}:{node.lineno}" for path in sorted(Path(modelalg.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Assert)]
    assert found == []
