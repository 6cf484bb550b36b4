"""Harness contract: output formats, exit codes, manifests, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchbounds.bounds
import matchbounds.cli
import matchbounds.structure
from matchbounds.cli import main
from matchbounds.families import FamilySpec, generate
from matchbounds.graphs import Graph, emit_graph6

TRIANGLE_G6 = "Bw"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_polytope_vertices(capsys):
    code, out, _ = run(capsys, "polytope", "vertices")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 13
    assert lines == sorted(lines, key=_fraction_sort_key)
    assert "4/9,1/3,2/9" in lines


def _fraction_sort_key(line):
    from fractions import Fraction
    return tuple(Fraction(p) for p in line.split(","))


def test_polytope_contains(capsys):
    code, out, _ = run(capsys, "polytope", "contains", "1/3", "4/9", "1/3")
    assert code == 1
    assert out.strip() == "violated: x3+x2+x1<=1"
    code, out, _ = run(capsys, "polytope", "contains", "4/9", "1/3", "2/9")
    assert code == 0
    assert out.strip() == "inside (valid constant K=1)"


def test_polytope_shift_and_project(capsys):
    code, out, _ = run(capsys, "polytope", "shift", "0/1", "0/1", "2/3",
                       "--lambda", "1/1")
    assert code == 0
    assert out.strip() == "-1,0,5/3 in P: yes"
    code, out, _ = run(capsys, "polytope", "project", "-1", "0", "5/3")
    assert code == 0
    assert out.strip() == "0,0,2/3"


def test_rejects_decimal_fractions(capsys):
    code, _, err = run(capsys, "polytope", "contains", "0.5", "0", "0")
    assert code == 2


def test_verify_enumerate_all_bounds(capsys):
    code, out, err = run(capsys, "verify", "--enumerate", "6", "--bounds", "all")
    assert code == 0
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["counts"]["violations"] == 0
    assert manifest["counts"]["graphs"] == 49
    assert manifest["partial"] is False


def test_verify_tight_only_includes_triangle(capsys):
    code, out, _ = run(capsys, "verify", "--enumerate", "6",
                       "--bounds", "b4", "--tight-only")
    assert code == 0
    assert any(line.startswith(f"graph={TRIANGLE_G6} ") for line in out.splitlines())


def test_verify_custom_triple_finds_violation(capsys, tmp_path):
    path = tmp_path / "g3_9.g6"
    path.write_bytes(emit_graph6(generate(FamilySpec("G3", 9))) + b"\n")
    code, out, err = run(capsys, "verify", "--file", str(path),
                         "--triple", "1/3", "4/9", "1/3", "--k", "0/1")
    assert code == 1
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["counts"]["violations"] == 1
    assert "slack=-1" in out


def test_verify_json_reports(capsys):
    code, out, _ = run(capsys, "verify", "--enumerate", "4",
                       "--bounds", "b5", "--json")
    assert code == 0
    for line in out.strip().splitlines():
        rep = json.loads(line)
        assert set(rep) == {"graph", "bound", "nu", "rhs", "slack", "tight"}


def test_verify_skip_invalid(capsys, tmp_path):
    k5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    path = tmp_path / "mixed.g6"
    path.write_bytes(emit_graph6(k5) + b"\n" + TRIANGLE_G6.encode() + b"\n")
    code, _, err = run(capsys, "verify", "--file", str(path), "--bounds", "b1")
    assert code == 1
    assert "skipped" in err
    code, _, _ = run(capsys, "verify", "--file", str(path), "--bounds", "b1",
                     "--skip-invalid")
    assert code == 0


def test_verify_random_corpus(capsys):
    code, _, err = run(capsys, "verify", "--random", "25", "--size", "14",
                       "--seed", "3", "--bounds", "all")
    assert code == 0
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["counts"]["graphs"] == 25


def test_verify_jobs_deterministic(capsys, tmp_path):
    code1, out1, _ = run(capsys, "verify", "--enumerate", "5", "--bounds", "all")
    code2, out2, _ = run(capsys, "verify", "--enumerate", "5", "--bounds", "all",
                         "--jobs", "2")
    assert (code1, out1) == (code2, out2)
    k5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    g6 = [emit_graph6(generate(FamilySpec("G3", t))) for t in range(2, 7)]
    path = tmp_path / "corpus.g6"
    path.write_bytes(b"\n".join([b">>graph6<<", *g6[:2], b"", emit_graph6(k5), *g6[2:]]) + b"\n")
    runs = []
    for jobs in ("1", "2"):
        code, out, err = run(capsys, "verify", "--file", str(path), "--bounds", "all",
                             "--skip-invalid", "--jobs", jobs)
        runs.append((code, out, json.loads(err.strip().splitlines()[-1])["counts"]))
    assert runs[0] == runs[1]
    assert runs[0][2]["graphs"] == 5 and runs[0][2]["invalid"] == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_skips_disconnected_under_flat_constant(capsys, tmp_path, jobs):
    # (0, 0, 2/3) is in P with valid constant 1, but only for connected
    # graphs: three disjoint claws would read slack -2.
    claws = emit_graph6(Graph(12, [(c, c + i) for c in (0, 4, 8) for i in (1, 2, 3)]))
    path = tmp_path / "claws.g6"
    path.write_bytes(claws + b"\n" + TRIANGLE_G6.encode() + b"\n")
    flat = ["verify", "--file", str(path), "--triple", "0", "0", "2/3", "--k", "1",
            "--jobs", jobs]
    code, out, err = run(capsys, *flat)
    assert code == 1
    assert f"skipped {claws.decode()}: " in err
    assert out == f"graph={TRIANGLE_G6} bound=custom nu=1 rhs=-1 slack=2 (~2.000000) tight=no\n"
    counts = json.loads(err.strip().splitlines()[-1])["counts"]
    assert counts == {"graphs": 1, "violations": 0, "tight": 0, "invalid": 1}
    code, skipped_out, _ = run(capsys, *flat, "--skip-invalid")
    assert code == 0 and skipped_out == out
    # The per-component bounds still cover disconnected graphs.
    code, out, _ = run(capsys, "verify", "--file", str(path), "--bounds", "all",
                       "--jobs", jobs)
    assert code == 0 and out.count(f"graph={claws.decode()} ") == 5


@pytest.mark.parametrize("jobs", ["0", "-1", str((os.cpu_count() or 1) + 1)])
def test_verify_rejects_jobs_out_of_range(capsys, monkeypatch, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(matchbounds.cli, "Pool", no_pool)
    code, out, err = run(capsys, "verify", "--enumerate", "3", "--jobs", jobs)
    assert code == 2
    assert out == "" and "--jobs" in err


def _count_calls(monkeypatch, fn, *modules):
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for module in modules:
        monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def test_verify_computes_nu_once_per_graph(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, matchbounds.bounds.nu, matchbounds.bounds)
    code, _, err = run(capsys, "verify", "--enumerate", "5", "--bounds", "all")
    assert code == 0
    assert json.loads(err.strip().splitlines()[-1])["counts"]["graphs"] == 20
    assert len(calls) == 20


def test_ge_decomposes_once_per_graph(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, matchbounds.structure.gallai_edmonds,
                         matchbounds.cli, matchbounds.structure)
    code, out, _ = run(capsys, "ge", "--random", "10", "--size", "9", "--seed", "5")
    assert code == 0
    assert len(out.strip().splitlines()) == 10
    assert len(calls) == 10


def test_cli_module_runs_as_script():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "matchbounds.cli", "polytope", "vertices"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 13


def test_verify_enumerate_cap(capsys):
    code, _, _ = run(capsys, "verify", "--enumerate", "13")
    assert code == 2


def test_manifest_file(capsys, tmp_path):
    path = tmp_path / "manifest.json"
    code, _, err = run(capsys, "verify", "--enumerate", "4", "--bounds", "b1",
                       "--manifest", str(path))
    assert code == 0
    assert err == ""
    manifest = json.loads(path.read_text())
    assert manifest["command"] == "verify"
    assert manifest["corpus"] == "enumerate<=4"


def test_family_stats(capsys):
    code, out, _ = run(capsys, "family", "G2", "1", "--stats")
    assert code == 0
    assert "n3=34" in out and "nu_closed=15" in out and "nu_certified=15" in out


def test_family_emit_graph6(capsys):
    code, out, _ = run(capsys, "family", "G6", "5")
    assert code == 0
    assert out.strip() == emit_graph6(generate(FamilySpec("G6", 5))).decode()


def test_family_invalid_parameter(capsys):
    code, _, err = run(capsys, "family", "G5", "3")
    assert code == 2
    assert "even" in err


def test_family_stats_extrapolated(capsys):
    code, out, _ = run(capsys, "family", "G3", "33", "--stats")
    assert code == 0
    assert "nu_certified=- (extrapolated)" in out


def test_counterexample_command(capsys):
    code, out, _ = run(capsys, "counterexample", "--triple", "1/3", "4/9", "1/3",
                       "--k", "0/1")
    assert code == 1
    assert "family=G3 t=2" in out
    assert "slack=-2/9" in out and "(~-0.222222)" in out
    code, out, _ = run(capsys, "counterexample", "--triple", "4/9", "1/3", "2/9")
    assert code == 0
    assert "no counterexample" in out


def test_ge_reports(capsys):
    code, out, _ = run(capsys, "ge", "--enumerate", "6")
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("graph=@ A=1 B=0 C=0")
    code, out, _ = run(capsys, "ge", "--enumerate", "5", "--json")
    assert code == 0
    rep = json.loads(out.splitlines()[0])
    assert set(rep) == {"graph", "A", "B", "C", "hypomatchable", "perfect", "surplus"}


def test_usage_error_without_corpus(capsys):
    code, _, err = run(capsys, "verify", "--bounds", "all")
    assert code == 2


def test_bound_list_selection(capsys):
    code, out, _ = run(capsys, "verify", "--enumerate", "3", "--bounds", "b2,b4")
    assert code == 0
    names = {line.split("bound=")[1].split()[0] for line in out.splitlines()}
    assert names == {"b2", "b4"}
    code, _, _ = run(capsys, "verify", "--enumerate", "3", "--bounds", "b9")
    assert code == 2


def test_help_exits_cleanly(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "verify", "--help")[0] == 0


def test_ge_random_corpus(capsys):
    code, out, err = run(capsys, "ge", "--random", "10", "--size", "9", "--seed", "5")
    assert code == 0
    assert len(out.strip().splitlines()) == 10
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["counts"] == {"graphs": 10, "violations": 0}


def test_polytope_vertices_json(capsys):
    code, out, _ = run(capsys, "polytope", "vertices", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 13
    assert "4/9,1/3,2/9" in payload["vertices"]
