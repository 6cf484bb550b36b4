"""Guards on the package source itself."""

from __future__ import annotations

import ast
import importlib
import inspect
import pickle
import sys
import types
from functools import reduce
from pathlib import Path

import matchbounds

from matchbounds.graphs import MalformedGraph6Error

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "matchbounds"
BENCH = PACKAGE.parent.parent / "bench"


def test_package_has_no_assert_statements():
    # ``python -O`` strips assert statements, so no check may rest on one.
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no modules under {PACKAGE}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_has_no_unused_imports():
    # Every name a module imports is used in it; ``__init__`` only
    # re-exports, so it is skipped.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in (alias.asname or alias.name.partition(".")[0] for alias in node.names)
                if name not in used
            ]
    assert found == []


def test_cli_reads_json_flag_in_one_place():
    # ``_show`` prints every result but verify's per-bound reports, so no
    # other function decides between text and JSON.
    path = PACKAGE / "cli.py"
    readers = {
        function.name
        for function in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "json"
        and isinstance(node.value, ast.Name) and node.value.id == "args"
    }
    assert readers == {"_show", "cmd_verify"}


def test_package_imports_only_the_standard_library():
    # The runtime depends on nothing outside the standard library.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names | {"matchbounds"}
            ]
    assert found == []


def test_public_exports_are_pinned():
    # The package exports what checks the paper's result; a name added to
    # or dropped from the surface must be added to or dropped from here.
    exported = sorted(
        name for name, value in vars(matchbounds).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == [
        "BoundReport", "BoundSpec", "CoefficientTriple", "DecompositionMismatchError",
        "DegreeProfile", "EnumerationConfig", "FamilySpec", "GEDecomposition",
        "GEPropertyReport", "Graph", "HalfSpace", "InvalidParameterError",
        "LimitExceededError", "MalformedGraph6Error", "Matching", "Membership",
        "NegativeLambdaError", "NotConnectedError", "NotInPError", "NotSubcubicError",
        "Polyhedron", "TooLargeError", "TripleInPError", "UnboundedInputError",
        "brute_force_nu", "canonical_form", "canonical_key", "closed_nu", "closed_profile",
        "contains", "counterexample", "degree_profile", "emit_graph6", "enumerate_subcubic",
        "evaluate_bound", "evaluate_bounds", "gallai_edmonds", "generate",
        "has_perfect_matching", "is_connected", "is_hypomatchable", "is_subcubic",
        "max_matching", "nu", "parse_fraction", "parse_graph6", "polyhedron_P",
        "polyhedron_P_plus", "project_to_Pplus", "random_subcubic", "sharp_bounds",
        "shift_transform", "triple", "valid_constant", "verify_ge_properties", "vertices",
    ]


# Arguments for the exception classes with their own ``__init__``.
_SAMPLE_ARGS = {MalformedGraph6Error: ("invalid graph6 byte 30", 1)}


def test_package_exceptions_survive_pickling():
    # ``verify --jobs`` ships exceptions between processes; one that cannot
    # be rebuilt from its pickle kills the worker that receives it.
    classes = {
        cls
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
        for _, cls in inspect.getmembers(importlib.import_module(f"matchbounds.{path.stem}"),
                                         inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__.startswith("matchbounds.")
    }
    assert MalformedGraph6Error in classes
    for cls in classes:
        if "__init__" in vars(cls):
            assert cls in _SAMPLE_ARGS, f"no sample arguments for {cls.__name__}"
        exc = cls(*_SAMPLE_ARGS.get(cls, ("sample message",)))
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert getattr(back, "offset", None) == getattr(exc, "offset", None)


def test_every_name_the_bench_binds_resolves():
    # ``bench/tracer.py`` wraps the functions ``TRACED`` names, with
    # ``_connected_levels`` and ``Graph.__init__``, and the bench's worker
    # and self-test call the package by attribute; a renamed one would
    # only show as a failed benchmark run.  Each must be bound where the
    # bench looks for it.
    tracer = ast.parse((BENCH / "tracer.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tracer.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(target, "id", None) == "TRACED" for target in node.targets))
    names = {f"{module}.{name}" for module, names in traced.items() for name in names}
    names |= {"enumeration._connected_levels", "graphs.Graph.__init__"}
    for path in (BENCH / "worker.py", BENCH / "test_bench.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.insert(0, node.attr)
                node = node.value
            if parts and isinstance(node, ast.Name) and node.id == "matchbounds":
                names.add(".".join(parts))
    assert "cli.main" in names and "nu" in names
    for path in PACKAGE.glob("*.py"):
        if path.stem != "__init__":
            importlib.import_module(f"matchbounds.{path.stem}")
    missing = []
    for name in sorted(names):
        try:
            reduce(lambda value, part: vars(value)[part], name.split("."), matchbounds)
        except KeyError:
            missing.append(name)
    assert missing == []
