"""Guards on the package source itself."""

from __future__ import annotations

import ast
import importlib
import inspect
import pickle
import re
import sys
import types
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

import matchbounds
from matchbounds.bounds import scale_bounds
from matchbounds.cli import main as cli_main
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
        "LimitExceededError", "MalformedGraph6Error", "Membership",
        "NegativeLambdaError", "NotConnectedError", "NotInPError", "NotSubcubicError",
        "Polyhedron", "TooLargeError", "TripleInPError", "UnboundedInputError",
        "brute_force_nu", "canonical_form", "canonical_key", "closed_nu", "closed_profile",
        "contains", "counterexample", "degree_profile", "emit_graph6", "enumerate_subcubic",
        "evaluate_bound", "evaluate_bounds", "gallai_edmonds", "generate",
        "has_perfect_matching", "is_hypomatchable", "nu", "parse_fraction", "parse_graph6",
        "polyhedron_P", "polyhedron_P_plus", "project_to_Pplus", "random_subcubic",
        "sharp_bounds", "shift_transform", "triple", "valid_constant", "verify_ge_properties",
        "vertices",
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


_G3 = matchbounds.generate(matchbounds.FamilySpec("G3", 2))
_G3_PARTITION = matchbounds.gallai_edmonds(_G3)

# A sample of every exported record, and of ``ScaledBounds``, which
# crosses the ``verify --jobs`` pipe inside a ``functools.partial``; with a
# field value that the record's ``__new__`` refuses, if it checks one.
_RECORDS = [
    (matchbounds.evaluate_bound(_G3, matchbounds.sharp_bounds()[0]), None),
    (matchbounds.sharp_bounds()[0], None),
    (matchbounds.triple("1/3", "4/9", "1/3"), None),
    (matchbounds.degree_profile(_G3), None),
    (matchbounds.EnumerationConfig(4), {"max_n": 13}),
    (matchbounds.FamilySpec("G3", 2), {"t": 1}),
    (_G3_PARTITION, None),
    (matchbounds.verify_ge_properties(_G3, _G3_PARTITION), None),
    (matchbounds.HalfSpace(1, 0, 0, "4/9", "x3<=4/9"), {"a3": 0}),
    (matchbounds.contains(matchbounds.polyhedron_P(), matchbounds.triple(1, 0, 0)), None),
    (matchbounds.polyhedron_P(), None),
    (scale_bounds(matchbounds.sharp_bounds()), None),
]
_WAYS = ("positional", "keyword", "_make", "_replace", "pickle")


def _built(record, way: str, **fields):
    """``record`` with ``fields`` changed, built the way ``way`` names; under
    ``pickle``, a tuple forged past ``__new__`` is checked as it loads."""
    cls = type(record)
    values = {**record._asdict(), **fields}
    if way == "positional":
        return cls(*values.values())
    if way == "keyword":
        return cls(**values)
    if way == "_make":
        return cls._make(values.values())
    if way == "_replace":
        return record._replace(**fields)
    return pickle.loads(pickle.dumps(tuple.__new__(cls, values.values())))


@pytest.mark.parametrize("record, bad", _RECORDS, ids=[type(r).__name__ for r, _ in _RECORDS])
def test_records_keep_the_guarantees_of_frozen_dataclasses(record, bad):
    # The records are named tuples.  Each is immutable, hashable and
    # picklable, and one whose __new__ checks its fields is checked
    # however it is built.
    cls = type(record)
    exported = {value for value in vars(matchbounds).values()
                if isinstance(value, type) and issubclass(value, tuple)}
    assert exported <= {type(r) for r, _ in _RECORDS}
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert hash(record) == hash(tuple(record))
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls and back == record
    if bad is None:
        return
    for way in _WAYS:
        with pytest.raises(ValueError):
            _built(record, way, **bad)
    if cls is matchbounds.HalfSpace:  # its data is stored as Fractions
        for way in _WAYS:
            h = _built(record, way, a3=2, a2=0, a1=1, b=3)
            assert [type(c) for c in h[:4]] == [Fraction] * 4, way


README_LIBRARY_OUTPUT = """\
b1 BoundReport(lhs=1, rhs=Fraction(1, 1), slack=Fraction(0, 1), tight=True)
b2 BoundReport(lhs=1, rhs=Fraction(1, 1), slack=Fraction(0, 1), tight=True)
b3 BoundReport(lhs=1, rhs=Fraction(1, 2), slack=Fraction(1, 2), tight=False)
b4 BoundReport(lhs=1, rhs=Fraction(7, 8), slack=Fraction(1, 8), tight=False)
b5 BoundReport(lhs=1, rhs=Fraction(1, 1), slack=Fraction(0, 1), tight=True)
Membership(inside=False, violated=(4,))
FamilySpec(family_id='G3', t=2) -2/9
"""


def test_readme_library_example_prints_what_it_says(capsys):
    # The README's "Library use" block runs as written, and its output
    # comments quote what it prints.
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == README_LIBRARY_OUTPUT
    for line in README_LIBRARY_OUTPUT.splitlines()[5:]:
        assert f"# {line}" in block


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


# Functions that no CLI run enters, by reason; every other function of the
# package must be entered by ``test_every_function_is_reached_from_the_cli``.
UNREACHED = {
    "oracle": {"matching.brute_force_nu", "structure._gallai_edmonds_by_definition",
               "graphs.Graph.edges"},
    "bound by bench/": {"bounds.evaluate_bound", "enumeration.canonical_key",
                        "enumeration.canonical_form", "enumeration._subcubic_invariants",
                        "enumeration._unpack", "matching.is_hypomatchable",
                        "structure.verify_ge_properties"},
    "README library API": {"bounds.counterexample", "bounds.evaluate_bounds", "polytope.triple"},
    "value semantics": {"graphs.Graph.__eq__", "graphs.Graph.__hash__",
                        "graphs.Graph.__repr__"},
    "pool pickling": {"graphs.Graph.__reduce__"},
    "console script": {"cli.entry"},
    "checked _make, which only _replace calls": {
        "enumeration.EnumerationConfig._make", "families.FamilySpec._make",
        "polytope.HalfSpace._make"},
}

# One invocation of each command, text and JSON, with usage and parse
# errors.  ``mixed.g6`` holds a disconnected and a non-subcubic line,
# which a flat --triple skips; ``bad.g6`` ends with a malformed line.
CLI_RUNS = [
    ["polytope", "vertices"], ["polytope", "vertices", "--json"],
    ["polytope", "contains", "1/3", "4/9", "1/3"],
    ["polytope", "contains", "0", "1/2", "1/2", "--json"],
    ["polytope", "project", "-1", "0", "5/3"], ["polytope", "shift", "0", "0", "2/3",
                                                "--lambda", "1", "--json"],
    ["polytope", "contains", "0.5", "0", "0"],
    ["verify", "--enumerate", "5"],
    ["verify", "--enumerate", "4", "--bounds", "b1,b4", "--tight-only", "--json"],
    ["verify", "--random", "3", "--size", "12", "--seed", "2", "--json"],
    ["verify", "--file", "{mixed}", "--triple", "1/3", "1/3", "1/3", "--k", "1"],
    ["verify", "--file", "{bad}", "--json"],
    ["verify", "--enumerate", "3", "--bounds", "b9"],
    ["verify", "--size", "5", "--enumerate", "3"],
    ["verify", "--enumerate", "13"],
    ["family", "G2", "1", "--stats"], ["family", "G5", "6", "--stats"],
    ["family", "G6", "5", "--json"],
    ["family", "G3", "6667"],
    ["counterexample", "--triple", "1/3", "4/9", "1/3"],
    ["counterexample", "--triple", "0", "0", "0", "--json"],
    ["counterexample", "--triple", "0", "1/2", "1/2"],
    ["ge", "--enumerate", "6"], ["ge", "--file", "{mixed}", "--json"],
    ["--help"],
]


def _defined_functions() -> dict[tuple[str, int], str]:
    """Every function the package defines, by (file, first line) as its
    code object has them, to its qualified name ``module.Class.name``.
    A decorated function's code starts at its first decorator."""
    found = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), first] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.resolve(), f"{path.stem}.")
    return found


def test_every_function_is_reached_from_the_cli(tmp_path, capsys):
    # A helper that no command reaches, and that no reason below keeps, is
    # dead code.  Code objects are matched by (file, first line), which
    # holds on Python 3.10, where code has no ``co_qualname``.
    (tmp_path / "mixed.g6").write_bytes(b">>graph6<<\nBw\nC`\n\nD~{\n")
    (tmp_path / "bad.g6").write_bytes(b"Bw\nBo!\n")
    files = {"mixed": str(tmp_path / "mixed.g6"), "bad": str(tmp_path / "bad.g6")}
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            calls.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in CLI_RUNS:
            argv = [arg.format(**files) for arg in argv]
            if argv[0] in ("verify", "ge"):
                argv += ["--manifest", str(tmp_path / "manifest.json")]
            cli_main(argv)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    entered = {(str(Path(path).resolve()), line) for path, line in calls}
    exempt = set().union(*UNREACHED.values())
    defined = _defined_functions()
    assert exempt <= set(defined.values())

    def kept(name: str) -> bool:  # an exempt function, or one nested in it
        return any(name == e or name.startswith(e + ".<locals>.") for e in exempt)

    unreached = sorted(name for key, name in defined.items()
                       if key not in entered and not kept(name))
    assert unreached == []
    # An exempt function that a run enters needs no exemption.
    assert sorted(exempt & {defined[key] for key in entered if key in defined}) == []
