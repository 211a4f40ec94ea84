"""The package's exported names."""

import inspect
import types

import modelalg

# every public name `modelalg.__all__` exported before it left the submodules out
EXPORTS = {
    "AttrComplete", "AttrTyped", "ClassExists", "Constraint", "Corpus", "CorpusBounds", "DEFAULT_BOUNDS",
    "DEFAULT_CAP", "Denotation", "Diagnostic", "Model", "OPERATORS", "OperatorReport", "ParseError",
    "Partition", "StabilityReport", "System", "Universe", "UniverseCapError", "UniverseError", "Verdict",
    "Witness", "build_universe", "check_associativity", "check_commutativity", "check_cp", "check_element",
    "check_fpp", "check_pp", "classify", "congruence_check", "default_corpus", "denotation",
    "generate_corpus", "get_operator", "intersect_merge", "is_consistent", "is_uninformative",
    "load_universe", "mentioned_classes", "normalize", "override_merge", "paranoid_merge", "parse",
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
