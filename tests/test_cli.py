"""Harness contract: output formats, exit codes, manifests, determinism."""

from __future__ import annotations

import hashlib
import io
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matchbounds.bounds
import matchbounds.cli
import matchbounds.graphs
import matchbounds.structure
from matchbounds.bounds import valid_constant
from matchbounds.cli import main
from matchbounds.enumeration import random_subcubic
from matchbounds.families import FAMILY_IDS, FamilySpec, generate
from matchbounds.graphs import MAX_GRAPH6_ORDER, Graph, emit_graph6
from matchbounds.polytope import CoefficientTriple, contains, polyhedron_P

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


# sha256 of stdout, with the exit code and line count, for runs whose output
# must not change byte for byte: every bound in text and JSON, the tight
# lines, a violated flat-K triple (negative slacks, exit 1), and `ge`.
_OUTPUT_PINS = [
    (["verify", "--enumerate", "9", "--bounds", "all"], 0, 4190,
     "0136b87aaddca8c21392f67700d34c167e68cb1b66f3263a6449e91670a9fa36"),
    (["verify", "--enumerate", "9", "--bounds", "all", "--json"], 0, 4190,
     "410e186778abe95d93349bed3de5f1ec39cff662ca1a1e178dc4db694be77ba6"),
    (["verify", "--enumerate", "9", "--tight-only"], 0, 27,
     "890c9f4795f8dc2cd8cf186b3e0052006ba1e0fde41c72038a361f473eadbe6c"),
    (["verify", "--enumerate", "8", "--triple", "-1", "1", "1", "--k", "1"], 1, 307,
     "0caedac78d472a053df2b1c8c7a0f31a81c8a23d6a5f56d730c3e2d90ee1964e"),
    (["ge", "--enumerate", "9"], 0, 838,
     "9410f2903ba490071fa7b9da2a45fbef244ffb22fafba1841c5aa974a612db49"),
    (["ge", "--random", "4", "--size", "300", "--seed", "4", "--json"], 0, 4,
     "00a9c437467ceb791f7e89c4fae3ca6506b02ae472048409adc339895a1ace4c"),
]


@pytest.mark.parametrize("argv, exit_code, lines, digest", _OUTPUT_PINS,
                         ids=[" ".join(argv) for argv, *_ in _OUTPUT_PINS])
def test_output_is_pinned(capsys, argv, exit_code, lines, digest):
    code, out, _ = run(capsys, *argv)
    assert (code, len(out.splitlines())) == (exit_code, lines)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if exit_code:
        assert " slack=-" in out


# sha256 of stdout, with the exit code, of each one-result command in text
# and under --json: the four polytope queries (contains inside and
# outside), family with and without --stats, and a violated counterexample.
_COMMAND_PINS = [
    (["polytope", "vertices"], 0,
     "bd755e032578fa8d5f3b3b4c09a73b4b5347b95b997c3c250cc18c55d0240943",
     "fc22517a7d477a5738ba7b250dd4d6c253392828ea77f0cd736d5713058a5160"),
    (["polytope", "contains", "4/9", "1/3", "2/9"], 0,
     "899c7dfd31bcdd93a7e85882089c9e1278d94a26a9ef8250fd30bfc17b6445a0",
     "74642b3ff2c7757b5d7c211c1203b6ec96b7e7b157e7cecd9bc56446450cfcd5"),
    (["polytope", "contains", "1/3", "4/9", "1/3"], 1,
     "8f4ffb56087a20347c1db413e215e2e14a0e53f5459d3a2381cc429eecfb5823",
     "265e3768f39aac44687e29cee96643fa9404a505efafd625cfd8f07571628c7c"),
    (["polytope", "project", "-1/3", "0", "1/2"], 0,
     "86d907fe580a5c7fe03b6081514844266a8fc2e4bde69ec42501697467279225",
     "57f4267c6d98a736517722cbed1c5a7a9c605e23aab68bbfd477095ac0339bdb"),
    (["polytope", "shift", "-1/3", "0", "1/2", "--lambda", "1/3"], 0,
     "731a80153e49de65d35eb424a35952b124a7c035cff5922b34bed2855f8f50be",
     "74b79a7b32310801b4caa429c8163f789958d657f16529df8532b618d99261f9"),
    (["family", "G2", "3", "--stats"], 0,
     "a53d30e3a6a6b7b42f55ea6fe0eb1bcd1180d29780ee3b0ae06494074427178b",
     "0800b60b92ca37164ec15ea9616cb66f041fdc4bb63995fd1251d03f95b94864"),
    (["family", "G5", "8"], 0,
     "3f124513d605125235362b2e7b553d7aeade4fe6f8bed1e28e761e395ed7a6cb",
     "9737c54c3a35c89db640521a2d49c2595c67927aef312953ca719babe4a8c275"),
    (["counterexample", "--triple", "1/2", "0", "0", "--k", "1"], 1,
     "a66162b8af4cfe207b42d5bdb3ff5f7652de38759b1cffa9fa2d0491350c99f2",
     "00e081fc309ecdd4b3da556b87d72c1c956029e3d790e1dccc9229041c6b065c"),
]
_COMMAND_RUNS = [(argv + flag, code, digest) for argv, code, *digests in _COMMAND_PINS
                 for flag, digest in zip(([], ["--json"]), digests)]


@pytest.mark.parametrize("argv, exit_code, digest", _COMMAND_RUNS,
                         ids=[" ".join(argv) for argv, *_ in _COMMAND_RUNS])
def test_command_output_is_pinned(capsys, argv, exit_code, digest):
    code, out, _ = run(capsys, *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    k5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    g6 = [emit_graph6(generate(FamilySpec("G3", t))) for t in range(2, 7)]
    path = tmp_path / "corpus.g6"
    path.write_bytes(b"\n".join([b">>graph6<<", *g6[:2], b"", emit_graph6(k5), *g6[2:],
                                 TRIANGLE_G6.encode()]) + b"\n")
    for flags in ((), ("--json",), ("--tight-only",)):
        code1, out1, _ = run(capsys, "verify", "--enumerate", "5", "--bounds", "all", *flags)
        code2, out2, _ = run(capsys, "verify", "--enumerate", "5", "--bounds", "all",
                             "--jobs", "2", *flags)
        assert (code1, out1) == (code2, out2)
        runs = []
        for jobs in ("1", "2"):
            code, out, err = run(capsys, "verify", "--file", str(path), "--bounds", "all",
                                 "--skip-invalid", "--jobs", jobs, *flags)
            runs.append((code, out, json.loads(err.strip().splitlines()[-1])["counts"]))
        assert runs[0] == runs[1]
        code, out, counts = runs[0]
        assert counts["graphs"] == 6 and counts["invalid"] == 1
        shown = counts["tight"] if "--tight-only" in flags else 6 * 5
        assert len(out.splitlines()) == shown > 0


def _repeated_rows_file(path: Path) -> None:
    """A file of three graphs with distinct rows, each repeated, with
    repeats not next to each other, a skipped K5 and a tight triangle."""
    k5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    a, b, c = (emit_graph6(generate(FamilySpec("G3", t))) for t in (2, 3, 4))
    tri = TRIANGLE_G6.encode()
    path.write_bytes(b"\n".join([a, b, a, tri, c, b, emit_graph6(k5), a, tri, c, b]) + b"\n")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_writes_reports_once_per_row(capsys, monkeypatch, tmp_path, jobs):
    # A report's text after its graph field depends on the graph's row
    # (n1, n2, n3, c, nu) alone, so it is made once per distinct row: two
    # fraction_text calls per bound, five bounds, three rows.
    lines = [emit_graph6(generate(FamilySpec("G3", t))) for t in (2, 3)] + [b"Bw"]
    path = tmp_path / "repeats.g6"
    path.write_bytes(b"\n".join([lines[0]] * 25 + [lines[1]] + [lines[0]] * 25 + [lines[2]])
                     + b"\n")
    calls = _count_calls(monkeypatch, matchbounds.cli.fraction_text, matchbounds.cli)
    code, out, _ = run(capsys, "verify", "--file", str(path), "--bounds", "all", "--jobs", jobs)
    assert code == 0 and len(out.splitlines()) == 5 * 52
    assert 0 < len(calls) <= 2 * 5 * 3


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("flags", [(), ("--json",), ("--tight-only",),
                                   ("--json", "--tight-only")])
def test_verify_row_table_bound_is_exact(capsys, monkeypatch, tmp_path, jobs, flags):
    # A table of one row is emptied at each new row, and the run's output
    # and counts stay those of the default table; only the report text is
    # made again.
    path = tmp_path / "repeats.g6"
    _repeated_rows_file(path)
    argv = ("verify", "--file", str(path), "--bounds", "all", "--skip-invalid",
            "--jobs", jobs, *flags)
    calls = _count_calls(monkeypatch, matchbounds.cli.fraction_text, matchbounds.cli)
    runs = []
    for size in (matchbounds.cli.ROW_TABLE_SIZE, 1):
        monkeypatch.setattr(matchbounds.cli, "ROW_TABLE_SIZE", size)
        calls.clear()
        code, out, err = run(capsys, *argv)
        runs.append((code, out, json.loads(err.strip().splitlines()[-1])["counts"], len(calls)))
    (code, out, counts, made), (*small, made_small) = runs
    assert small == [code, out, counts]
    assert out and counts["graphs"] == 10 and counts["invalid"] == 1
    assert made < made_small


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_file_prints_each_graph_in_canonical_form(capsys, tmp_path, jobs):
    # A triangle with a glued header, with each long size prefix and as
    # read; K5 with a long prefix.  Each is printed as emit_graph6 writes it.
    path = tmp_path / "forms.g6"
    path.write_bytes(b">>graph6<<\n>>graph6<<Bw\n~??Bw\n\n~~?????Bw\nBw\n~??D~{\n")
    code, out, err = run(capsys, "verify", "--file", str(path), "--bounds", "b1",
                         "--skip-invalid", "--jobs", jobs)
    assert code == 0
    assert out == "graph=Bw bound=b1 nu=1 rhs=1 slack=0 (~0.000000) tight=yes\n" * 4
    skipped, manifest = err.splitlines()
    assert skipped == "skipped D~{: vertex 0 has degree 4 > 3"
    counts = json.loads(manifest)["counts"]
    assert counts == {"graphs": 4, "violations": 0, "tight": 4, "invalid": 1}


_SCRIPT_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")])))


def _start_script(*argv: str, **kwargs) -> subprocess.Popen:
    """Start the CLI in a fresh interpreter, in its own process group."""
    return subprocess.Popen([sys.executable, "-m", "matchbounds.cli", *argv], env=_SCRIPT_ENV,
                            start_new_session=True, **kwargs)


def _wait(proc: subprocess.Popen, timeout: float = 60) -> int:
    """Exit code of ``proc``; fails the test, rather than hanging it, if the
    run outlives ``timeout``, or if a process of its group, such as a pool
    worker, is still there 5 s after it ended.  Either way it kills the
    group."""
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        pytest.fail(f"still running after {timeout} s: {proc.args}")
    deadline = time.monotonic() + 5
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return code
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            pytest.fail(f"left a process running 5 s after it exited: {proc.args}")
        time.sleep(0.02)


def _run_script(tmp_path, *argv: str) -> tuple[int, str, str]:
    with open(tmp_path / "stdout", "w+") as out, open(tmp_path / "stderr", "w+") as err:
        code = _wait(_start_script(*argv, stdout=out, stderr=err))
        out.seek(0)
        err.seek(0)
        return code, out.read(), err.read()


def test_verify_jobs_stops_at_malformed_line(tmp_path):
    # Under --jobs a worker decodes each line, and the parse error comes
    # back from it to the parent as that line's result, so the error must
    # survive pickling or the run never ends.  The parent raises it in
    # input order, after printing every report before it, though all
    # 200 good lines share the malformed line's pool task.
    path = tmp_path / "corpus.g6"
    good = [emit_graph6(generate(FamilySpec("G3", t % 5 + 2))) for t in range(200)]
    path.write_bytes(b"\n".join([*good, b"Bo!"]) + b"\n")
    runs = []
    for jobs in ("1", "2"):
        manifest = tmp_path / f"manifest{jobs}.json"
        code, out, err = _run_script(tmp_path, "verify", "--file", str(path), "--jobs", jobs,
                                     "--manifest", str(manifest))
        assert code == 2
        written = json.loads(manifest.read_text())
        assert written["partial"] is True
        runs.append((out, err, written["counts"]))
    error = "error: trailing bytes after adjacency data (byte offset 2)\n"
    assert runs[0] == runs[1]
    out, err, counts = runs[0]
    assert err == error
    assert (counts["graphs"], counts["invalid"]) == (200, 0)
    assert out.count("\n") == 5 * 200


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_closed_stdout_exits_quietly(tmp_path, jobs):
    manifest = tmp_path / "manifest.json"
    with open(tmp_path / "stderr", "wb+") as err:
        proc = _start_script("verify", "--enumerate", "8", "--jobs", jobs,
                             "--manifest", str(manifest), stdout=subprocess.PIPE, stderr=err)
        first = proc.stdout.readline()
        proc.stdout.close()
        code = _wait(proc)
        err.seek(0)
        stderr = err.read()
    assert first.startswith(b"graph=") and code == 141
    assert b"error:" not in stderr and b"Exception ignored" not in stderr
    assert json.loads(manifest.read_text())["partial"] is True


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


def _no_pool(*args, **kwargs):
    raise AssertionError("a pool was started")


def test_serial_runs_never_import_multiprocessing():
    # cmd_verify imports the pool module only when --jobs asks for a pool.
    # The records are named tuples, so nothing loads ``dataclasses``, nor
    # the ``inspect`` it would bring in.
    probe = ("import sys\n"
             "import matchbounds.cli\n"
             "unwanted = {'multiprocessing', 'dataclasses', 'inspect'}\n"
             "loaded = [sorted(unwanted & sys.modules.keys())]\n"
             "code = matchbounds.cli.main(['verify', '--enumerate', '4', '--jobs', '1'])\n"
             "loaded.append(sorted(unwanted & sys.modules.keys()))\n"
             "print(code, *loaded)\n")
    done = subprocess.run([sys.executable, "-c", probe], env=_SCRIPT_ENV, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 [] []"


@pytest.mark.parametrize("jobs", ["0", "-1", str((os.cpu_count() or 1) + 1)])
def test_verify_rejects_jobs_out_of_range(capsys, monkeypatch, jobs):
    monkeypatch.setattr(multiprocessing, "Pool", _no_pool)
    code, out, err = run(capsys, "verify", "--enumerate", "3", "--jobs", jobs)
    assert code == 2
    assert out == "" and "--jobs" in err


def test_verify_sends_the_pool_tasks_of_pool_chunk_items(capsys, monkeypatch):
    calls = []

    class Recorder:
        """A serial stand-in for ``Pool`` that records how it is used."""

        def __init__(self, processes):
            calls.append(("Pool", processes))

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return None

        def imap(self, fn, items, chunksize=1):
            calls.append(("imap", chunksize))
            return map(fn, items)

    serial = run(capsys, "verify", "--enumerate", "5", "--bounds", "all")[:2]
    monkeypatch.setattr(multiprocessing, "Pool", Recorder)
    assert run(capsys, "verify", "--enumerate", "5", "--bounds", "all", "--jobs", "2")[:2] == serial
    assert calls == [("Pool", 2), ("imap", matchbounds.cli.POOL_CHUNK)]
    assert matchbounds.cli.POOL_CHUNK == 256


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


def test_verify_builds_no_fraction_per_graph(capsys, monkeypatch):
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    counts = []
    for max_n in ("6", "8"):
        built.clear()
        code, out, _ = run(capsys, "verify", "--enumerate", max_n, "--bounds", "all")
        assert code == 0 and " slack=1/2 " in out
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_verify_validates_no_graph(capsys, monkeypatch, tmp_path):
    # graph6 lines and enumerated classes become Graphs through the trusted
    # constructor; the validating Graph.__init__ is for other input.
    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(b"".join(
        emit_graph6(random_subcubic(13 + seed % 28, seed)) + b"\n" for seed in range(40)
    ))
    built = []
    init = Graph.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Graph, "__init__", counted)
    for argv in (("--enumerate", "8", "--bounds", "all", "--json"),
                 ("--file", str(corpus), "--bounds", "all")):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0 and out
    assert built == []


def test_ge_validates_only_incidence_graphs(capsys, monkeypatch, tmp_path):
    # The Gallai-Edmonds checks take their component subgraphs through the
    # trusted constructor; the one validated Graph per graph is the
    # incidence graph of B and the A-components, built when B is nonempty.
    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(b"".join(
        emit_graph6(random_subcubic(13 + seed % 28, seed)) + b"\n" for seed in range(40)
    ))
    built = []
    init = Graph.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Graph, "__init__", counted)
    code, out, _ = run(capsys, "ge", "--file", str(corpus), "--json")
    assert code == 0
    with_b = sum(json.loads(line)["B"] > 0 for line in out.splitlines())
    assert 0 < with_b < 40
    assert len(built) == with_b


def test_ge_decomposes_once_per_graph(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, matchbounds.structure.gallai_edmonds,
                         matchbounds.cli, matchbounds.structure)
    code, out, _ = run(capsys, "ge", "--random", "10", "--size", "9", "--seed", "5")
    assert code == 0
    assert len(out.strip().splitlines()) == 10
    assert len(calls) == 10


def test_verify_encodes_only_printed_graphs(capsys, monkeypatch, tmp_path):
    calls = _count_calls(monkeypatch, emit_graph6, matchbounds.cli)
    code, out, _ = run(capsys, "verify", "--enumerate", "8", "--bounds", "b4", "--tight-only")
    assert code == 0
    assert len(out.splitlines()) == 2
    assert len(calls) == 2
    # A --file line already in canonical form is printed as read.
    lines = [emit_graph6(random_subcubic(n, n)) for n in (1, 2, 13, 62, 63, 100)]
    path = tmp_path / "canonical.g6"
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    calls.clear()
    code, out, _ = run(capsys, "verify", "--file", str(path), "--bounds", "b4")
    assert code == 0
    assert [report.split()[0] for report in out.splitlines()] == [
        f"graph={line.decode()}" for line in lines]
    assert calls == []


def test_verify_file_encodes_no_graph(capsys, monkeypatch, tmp_path):
    # A line with a long size prefix or a glued header, a skipped K5 among
    # them, is printed in emitted form without encoding its graph.
    k5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    graphs = [*(random_subcubic(n, n) for n in (1, 2, 13, 62, 63, 100)), k5]
    emitted = [emit_graph6(g) for g in graphs]
    path = tmp_path / "forms.g6"
    with open(path, "wb") as fh:
        for g, line in zip(graphs, emitted):
            body = line[len(line) - (g.n * (g.n - 1) // 2 + 5) // 6:]
            long_prefix = b"~~" + bytes(63 + (g.n >> s & 63) for s in range(30, -1, -6))
            fh.write(long_prefix + body + b"\n" + b">>graph6<<" + line + b"\n")
    calls = _count_calls(monkeypatch, emit_graph6, matchbounds.cli)
    code, out, err = run(capsys, "verify", "--file", str(path), "--bounds", "b4",
                         "--skip-invalid")
    assert code == 0
    assert [report.split()[0] for report in out.splitlines()] == [
        f"graph={line.decode()}" for line in emitted[:-1] for _ in range(2)]
    skipped = f"skipped {emitted[-1].decode()}: vertex 0 has degree 4 > 3"
    assert err.splitlines()[:2] == [skipped] * 2
    assert calls == []


class _UnscannedBody:
    def finditer(self, *args):
        raise AssertionError("the body of a graph6 line above the cap was scanned")


def test_file_graph_above_the_graph6_cap_is_refused_where_read(capsys, monkeypatch, tmp_path):
    # The empty graph on MAX_GRAPH6_ORDER + 1 vertices has no emitted text,
    # so its line is refused at its size prefix, before its body is
    # scanned or the graph is checked or counted, even where no report
    # line would print it.
    monkeypatch.setattr(matchbounds.graphs, "_G6_NONZERO", _UnscannedBody())
    n = MAX_GRAPH6_ORDER + 1
    path = tmp_path / "huge.g6"
    prefix = b"~" + bytes(63 + (n >> s & 63) for s in (12, 6, 0))
    path.write_bytes(prefix + b"?" * ((n * (n - 1) // 2 + 5) // 6) + b"\n")
    manifest = tmp_path / "manifest.json"
    for argv in (["verify", "--tight-only", "--jobs", "1"],
                 ["verify", "--tight-only", "--jobs", "2"], ["ge"]):
        code, out, err = run(capsys, *argv, "--file", str(path), "--manifest", str(manifest))
        assert code == 2 and out == ""
        assert err == f"error: graph too large for graph6: n={n} (at most {MAX_GRAPH6_ORDER})\n"
        assert json.loads(manifest.read_text())["counts"]["graphs"] == 0


def test_cli_module_runs_as_script(tmp_path):
    code, out, _ = _run_script(tmp_path, "polytope", "vertices")
    assert code == 0
    assert len(out.strip().splitlines()) == 13


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


# The manifest each sweep writes to stderr, after any skipped line, with
# its wall time masked as T: the random corpus with the --size and --seed
# defaults and with both given, a --file line skipped as invalid, and ge.
_MANIFEST_PINS = [
    (["verify", "--random", "2"],
     '{"command": "verify", "config": {"bounds": ["b1", "b2", "b3", "b4", "b5"], '
     '"tight_only": false, "skip_invalid": false, "jobs": 1}, '
     '"corpus": "random x2 n=16 seed=0", '
     '"counts": {"graphs": 2, "violations": 0, "tight": 0, "invalid": 0}, '
     '"wall_time_s": T, "partial": false}\n'),
    (["verify", "--random", "2", "--size", "9", "--seed", "4", "--bounds", "b1,b4",
      "--tight-only"],
     '{"command": "verify", "config": {"bounds": ["b1", "b4"], '
     '"tight_only": true, "skip_invalid": false, "jobs": 1}, '
     '"corpus": "random x2 n=9 seed=4", '
     '"counts": {"graphs": 2, "violations": 0, "tight": 0, "invalid": 0}, '
     '"wall_time_s": T, "partial": false}\n'),
    (["verify", "--file", "PATH", "--skip-invalid"],
     'skipped D~{: vertex 0 has degree 4 > 3\n'
     '{"command": "verify", "config": {"bounds": ["b1", "b2", "b3", "b4", "b5"], '
     '"tight_only": false, "skip_invalid": true, "jobs": 1}, '
     '"corpus": "PATH", '
     '"counts": {"graphs": 1, "violations": 0, "tight": 3, "invalid": 1}, '
     '"wall_time_s": T, "partial": false}\n'),
    (["ge", "--enumerate", "4"],
     '{"command": "ge", "config": {}, "corpus": "enumerate<=4", '
     '"counts": {"graphs": 10, "violations": 0}, "wall_time_s": T, "partial": false}\n'),
]


@pytest.mark.parametrize("argv, expected", _MANIFEST_PINS,
                         ids=[" ".join(argv) for argv, _ in _MANIFEST_PINS])
def test_manifest_is_pinned(capsys, tmp_path, argv, expected):
    path = tmp_path / "mixed.g6"
    path.write_bytes(TRIANGLE_G6.encode() + b"\nD~{\n")
    code, _, err = run(capsys, *(str(path) if arg == "PATH" else arg for arg in argv))
    assert code == 0
    masked = re.sub(r'"wall_time_s": \d+\.\d+', '"wall_time_s": T', err)
    assert masked == expected.replace('"PATH"', json.dumps(str(path)))


def test_manifest_wall_time_ignores_wall_clock_steps(capsys, monkeypatch, tmp_path):
    # The wall clock can step backwards during a run (an NTP correction);
    # the run's duration must not.
    steps = iter(range(10**9, 0, -3600))
    monkeypatch.setattr(matchbounds.cli.time, "time", lambda: float(next(steps)))
    path = tmp_path / "manifest.json"
    code, _, _ = run(capsys, "verify", "--enumerate", "3", "--manifest", str(path))
    monkeypatch.undo()
    assert code == 0
    assert json.loads(path.read_text())["wall_time_s"] >= 0


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


# The orders of the members these runs ask for, all above the graph6 cap.
_UNPRINTABLE = {"family G3 6667": 20_001,
                "counterexample --triple 0 1/2 51/100 --k 1000": 300_003,  # G3(100001)
                "family G1 17": 786_430}


@pytest.mark.parametrize("argv", [command.split() for command in _UNPRINTABLE])
def test_graph6_output_is_capped(capsys, monkeypatch, argv):
    # A member above the cap is refused by its closed-form order, before
    # it is built.
    def refused(spec):
        raise AssertionError(f"{spec} was built")

    monkeypatch.setattr(matchbounds.cli, "generate", refused)
    monkeypatch.setattr(matchbounds.bounds, "generate", refused)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    n = _UNPRINTABLE[" ".join(argv)]
    assert err == f"error: graph too large for graph6: n={n} (at most {MAX_GRAPH6_ORDER})\n"


@pytest.mark.parametrize("family, t", [("G1", "25"), ("G1", "1000000001"), ("G3", "1000000")])
def test_family_refuses_members_too_large_to_build(capsys, family, t):
    code, out, err = run(capsys, "family", family, t)
    assert code == 2
    assert out == "" and "too large to build" in err


_BIG = 10 ** 4299  # G3's least violating t at margin 1/_BIG and K = _BIG has 8 599 digits


@pytest.mark.parametrize("triple, k, member", [
    (("0", "1/2", "51/100"), "100000000000", "G3(t=10000000000001)"),
    (("1/3", "0", "35/100"), "10000000000000", "G1(t=49)"),
    pytest.param(("0", "1/2", f"{_BIG + 2}/{2 * _BIG}"), str(_BIG), "G3(t >= 10**4300)",
                 id="t-too-long-for-str"),
])
def test_counterexample_refuses_members_too_large_to_build(capsys, triple, k, member):
    # The refusal names the least violating member; no smaller one serves.
    code, out, err = run(capsys, "counterexample", "--triple", *triple, "--k", k)
    assert code == 2
    assert out == "" and err.startswith(f"error: {member} has more than")
    assert "too large to build" in err


def test_family_stats_certifies_large_members(capsys):
    # G3(33) has 99 vertices: the matcher computes nu at every size.
    code, out, _ = run(capsys, "family", "G3", "33", "--stats")
    assert code == 0
    assert out.endswith(" nu_closed=33 nu_certified=33 (certified)\n")
    code, out, _ = run(capsys, "family", "G3", "33", "--stats", "--json")
    assert code == 0
    stats = json.loads(out)
    assert (stats["n"], stats["nu_certified"], stats["nu_status"]) == (99, 33, "certified")


@pytest.mark.parametrize("row", [
    pytest.param({"nu": lambda t: t + 1}, id="nu"),
    pytest.param({"counts": lambda t: (t + 1, t - 1, t)}, id="counts"),
    pytest.param({"nu": lambda t: t + 1, "counts": lambda t: (t + 1, t - 1, t)}, id="both"),
])
def test_family_stats_checks_the_closed_forms(capsys, monkeypatch, row):
    # "(certified)" means that the member built has the closed-form degree
    # profile and nu; a wrong closed form raises, as for a counterexample.
    import matchbounds.families as families

    monkeypatch.setitem(families._FAMILIES, "G3", families._FAMILIES["G3"]._replace(**row))
    message = "disagrees with matcher's 5" if "nu" in row else re.escape(
        "closed-form profile DegreeProfile(n0=0, n1=6, n2=4, n3=5, c=1) disagrees with "
        "DegreeProfile(n0=0, n1=5, n2=5, n3=5, c=1) on FamilySpec(family_id='G3', t=5)")
    for flags in ((), ("--json",)):
        with pytest.raises(RuntimeError, match=message):
            main(["family", "G3", "5", "--stats", *flags])
        assert capsys.readouterr().out == ""


_NINES = 10 ** 4300 - 1  # the most digits an int read from text may have


def _text(n: int) -> str:
    """``str(n)`` for a natural n of any length, 4 000 digits at a time."""
    head, tail = divmod(n, 10 ** 4000)
    return f"{_text(head)}{tail:04000d}" if head else str(tail)


def test_numbers_past_the_str_limit_print_in_full(capsys, tmp_path):
    # Every number is read under Python's 4 300-digit limit on int
    # conversion, and a number derived from them prints in full, however
    # long; the limit is the default again after each run.
    k, limit = _NINES, sys.get_int_max_str_digits()
    manifest = tmp_path / "manifest.json"
    code, out, _ = run(capsys, "verify", "--enumerate", "2", "--triple", "0", "0", "0",
                       "--k", f"{k}/7", "--manifest", str(manifest))
    first, second = out.splitlines()
    assert code == 0 and not json.loads(manifest.read_text())["partial"]
    assert first.startswith(f"graph=@ bound=custom nu=0 rhs=-{k}/7 slack={k}/7 (~{k // 7}.")
    assert second.startswith(f"graph=A_ bound=custom nu=1 rhs=-{k}/7 slack={_text(k + 7)}/7 (~")
    code, out, _ = run(capsys, "polytope", "contains", f"-{k}", "0", "0")
    assert (code, out) == (0, f"inside (valid constant K={_text(2 * k + 1)})\n")
    code, out, _ = run(capsys, "polytope", "shift", f"-{k}", "0", "0", "--lambda", str(k))
    assert (code, out) == (0, f"-{_text(2 * k)},0,{k} in P: yes\n")
    code, out, _ = run(capsys, "counterexample", "--triple", "1", "0", "0", f"--k=-{k}/7")
    assert code == 1 and out.startswith("family=G2 t=1 n=34 graph6=")
    assert (f" nu=15 rhs={_text(k + 238)}/7 slack=-{_text(k + 133)}/7 "
            f"(~-{(k + 133) // 7}.") in out
    assert sys.get_int_max_str_digits() == limit
    # One digit more is refused where it is read: in a triple or a flag.
    code, out, err = run(capsys, "polytope", "contains", _text(10 * k + 9), "0", "0")
    assert (code, out) == (2, "") and err.startswith("error: Exceeds the limit (4300 digits)")
    code, out, err = run(capsys, "counterexample", "--triple", "1", "0", "0",
                         f"--k={_text(10 * k)}")
    assert (code, out) == (2, "") and "argument --k: invalid parse_fraction value" in err
    assert sys.get_int_max_str_digits() == limit


def test_counterexample_command(capsys):
    code, out, _ = run(capsys, "counterexample", "--triple", "1/3", "4/9", "1/3",
                       "--k", "0/1")
    assert code == 1
    assert "family=G3 t=2" in out
    assert "slack=-2/9" in out and "(~-0.222222)" in out
    # Inside P, no counterexample exists only from the valid constant on.
    code, out, err = run(capsys, "counterexample", "--triple", "4/9", "1/3", "2/9")
    assert (code, out) == (2, "")
    assert err == ("error: 4/9,1/3,2/9 is inside the polyhedron; no counterexample exists "
                   "for K >= 1, its valid constant, got K=0\n")
    code, out, _ = run(capsys, "counterexample", "--triple", "4/9", "1/3", "2/9", "--k", "1")
    assert code == 0
    assert out == "triple is inside the polyhedron; no counterexample exists\n"


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


@pytest.mark.parametrize("command", ["verify", "ge"])
def test_usage_error_with_two_corpora(capsys, command):
    code, out, err = run(capsys, command, "--enumerate", "3", "--random", "2", "--size", "5")
    assert code == 2
    assert out == "" and "not allowed with" in err


@pytest.mark.parametrize("command", ["verify", "ge"])
@pytest.mark.parametrize("flags", [["--random", "-5"], ["--random", "0"],
                                   ["--random", "2", "--size", "0"],
                                   ["--random", "2", "--size", "-3"]])
def test_rejects_counts_below_one(capsys, tmp_path, command, flags):
    manifest = tmp_path / "manifest.json"
    code, out, err = run(capsys, command, *flags, "--manifest", str(manifest))
    assert code == 2
    assert out == "" and flags[-2] in err
    assert not manifest.exists()


_PARSE_TIME_REJECTIONS = [
    (["verify", "--enumerate", "0"], "argument --enumerate: must be at least 1"),
    (["ge", "--enumerate", "0"], "argument --enumerate: must be at least 1"),
    (["verify", "--enumerate", "13"], "argument --enumerate: must be at most 12, got 13; use --file"),
    (["ge", "--enumerate", "13"], "argument --enumerate: must be at most 12, got 13; use --file"),
    (["verify", "--enumerate", "3", "--size", "5"], "argument --size: requires --random"),
    (["ge", "--enumerate", "3", "--size", "5"], "argument --size: requires --random"),
    (["verify", "--file", "X", "--seed", "1"], "argument --seed: requires --random"),
    (["ge", "--file", "X", "--seed", "1"], "argument --seed: requires --random"),
    (["verify", "--enumerate", "3", "--k", "1"], "argument --k: requires --triple"),
    (["verify", "--random", "1", "--size", "20001"], "argument --size: must be at most 20000"),
]


@pytest.mark.parametrize("argv, message", _PARSE_TIME_REJECTIONS,
                         ids=[" ".join(argv) for argv, _ in _PARSE_TIME_REJECTIONS])
def test_rejects_flags_at_parse_time(capsys, tmp_path, argv, message):
    manifest = tmp_path / "manifest.json"
    code, out, err = run(capsys, *argv, "--manifest", str(manifest))
    assert code == 2
    assert out == "" and message in err
    assert not manifest.exists()


def test_bound_list_selection(capsys):
    code, out, _ = run(capsys, "verify", "--enumerate", "3", "--bounds", "b2,b4")
    assert code == 0
    names = {line.split("bound=")[1].split()[0] for line in out.splitlines()}
    assert names == {"b2", "b4"}
    code, _, _ = run(capsys, "verify", "--enumerate", "3", "--bounds", "b9")
    assert code == 2
    # An empty entry is an unknown bound, an empty list included, with or
    # without --triple.
    for bounds in ("", "b1,,b2"):
        for triple in ([], ["--triple", "1/2", "0", "0"]):
            code, out, err = run(capsys, "verify", "--enumerate", "3", "--bounds", bounds, *triple)
            assert (code, out) == (2, "")
            assert err == "error: unknown bound '' (expected b1..b5)\n"


def test_help_exits_cleanly(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "verify", "--help")[0] == 0
    for name in ("contains", "project", "shift"):
        code, out, _ = run(capsys, "polytope", name, "--help")
        assert code == 0 and " X X X" in out


@pytest.mark.parametrize("argv", [
    ["polytope", "contains"],
    ["polytope", "contains", "--json"],
    ["polytope", "project", "1/3"],
    ["polytope", "shift", "--lambda", "1"],
], ids=" ".join)
def test_missing_triple_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "error: the following arguments are required: X" in err
    assert "Traceback" not in err


# Negative p/q tokens are values wherever a fraction is read.
_NEGATIVE_FRACTIONS = [
    (["polytope", "contains", "-1/3", "0", "1/2"], 0, "inside (valid constant K=5/3)"),
    (["polytope", "project", "-1/3", "0", "1/2"], 0, "0,0,1/6"),
    (["polytope", "shift", "-1/3", "0", "1/2", "--lambda", "1/3"], 0, "-2/3,0,5/6 in P: yes"),
    (["counterexample", "--triple", "-1/3", "0", "1"], 2, ""),  # K = 0 is below 5/3
    (["counterexample", "--triple", "1/2", "1/2", "1", "--k", "-1/3"], 1,
     "family=G3 t=2 n=6 graph6=El__ nu=2 rhs=13/3 slack=-7/3 (~-2.333333)"),
    (["verify", "--enumerate", "2", "--triple", "-1/3", "0", "1", "--k", "-2/3"], 1,
     "graph=@ bound=custom nu=0 rhs=2/3 slack=-2/3 (~-0.666667) tight=no\n"
     "graph=A_ bound=custom nu=1 rhs=8/3 slack=-5/3 (~-1.666667) tight=no"),
]


@pytest.mark.parametrize("argv, exit_code, expected", _NEGATIVE_FRACTIONS,
                         ids=[" ".join(argv) for argv, *_ in _NEGATIVE_FRACTIONS])
def test_negative_fractions_are_values(capsys, argv, exit_code, expected):
    code, out, _ = run(capsys, *argv)
    assert (code, out.strip()) == (exit_code, expected)


def test_negative_lambda_is_refused_as_a_value(capsys):
    code, out, err = run(capsys, "polytope", "shift", "0", "0", "1/2", "--lambda", "-1/3")
    assert (code, out) == (2, "")
    assert "lambda must be >= 0, got -1/3" in err


# A grammar of argv for ``main``.  A part of a command line is drawn as
# its tokens and whether they are well formed.  A well-formed command line
# may exit only with its command's codes, one with a malformed part only
# with 2, and one edited after drawing with any of 0, 1 and 2; none may
# raise.  Under --json every line a result prints is one JSON object.  Every run is cheap: --enumerate at most 6, --random at most 3
# graphs of at most 30 vertices, family t at most 9, and --jobs 1.
_MALFORMED_FRACTIONS = ["0.5", "-0.5", "1/0", "-1/0", "1//2", "1/-2", "+1", "1e3", "/3", "3/",
                        "-x/3", "x", "-", ""]
_STRAY_TOKENS = ["--bogus", "extra", "1", "-1/3", "--json", "--", "-h"]


@st.composite
def _token(draw, good, bad):
    """A token from the strategy ``good``, or now and then one of ``bad``."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(bad)), False
    return draw(good), True


_SMALL = st.tuples(st.integers(-4, 4), st.integers(1, 4)).flatmap(
    lambda pq: st.sampled_from([str(pq[0]), f"{pq[0]}/{pq[1]}"]))
# Now and then a number whose slacks lie beyond the float range.
_HUGE = 10 ** 400 - 1
_EXACT = st.integers(0, 4).flatmap(
    lambda i: st.sampled_from([str(_HUGE), str(-_HUGE)]) if i == 0 else _SMALL)
_FRACTION = _token(_EXACT, _MALFORMED_FRACTIONS)


@st.composite
def _triple(draw):
    """Three fractions, or too few or too many tokens."""
    drawn = [draw(_FRACTION) for _ in range(3)]
    count = draw(st.sampled_from([3, 3, 3, 0, 2, 4]))
    tokens = ([token for token, _ in drawn] + ["1"])[:count]
    return tokens, count == 3 and all(ok for _, ok in drawn)


@st.composite
def _command(draw, files):
    """A command line from the grammar, with the exit codes it may give."""
    command = draw(st.sampled_from(["polytope", "verify", "family", "counterexample", "ge"]))
    head, groups, oks, codes = [command], [], [], {0, 1}

    def part(flag, strategy):
        token, ok = draw(strategy)
        groups.append([flag, token] if flag else [token])
        oks.append(ok)
        return token, ok

    def maybe(*flags):
        for flag in flags:
            if draw(st.booleans()):
                groups.append([flag])

    if command == "polytope":
        query = draw(st.sampled_from(["vertices", "contains", "project", "shift"]))
        head.append(query)
        codes = {"vertices": {0}, "contains": {0, 1}, "project": {0, 2}, "shift": {0}}[query]
        if query != "vertices":
            tokens, ok = draw(_triple())
            groups.append(tokens)
            oks.append(ok)
        if query == "shift":
            if draw(st.integers(0, 5)):
                lam, ok = part("--lambda", _FRACTION)
                oks.append(not ok or Fraction(lam) >= 0)  # a negative lambda is refused
            else:
                oks.append(False)  # --lambda is required
    elif command in ("verify", "ge"):
        source = draw(st.sampled_from(["--enumerate", "--random", "--file"]))
        if source == "--enumerate":
            part(source, _token(st.integers(1, 6).map(str), ["0", "-1", "13", "x"]))
        elif source == "--file":
            part(source, _token(st.sampled_from([files["good"], files["invalid"]]),
                                [files["malformed"], files["missing"]]))
        else:
            part(source, _token(st.integers(1, 3).map(str), ["0", "-2", "x"]))
        for flag, values, bad in (("--size", st.integers(1, 30), ["0", "20001", "x"]),
                                  ("--seed", st.integers(-5, 5), ["x", "1.5"])):
            if draw(st.integers(0, 2 if source == "--random" else 9)) == 0:
                part(flag, _token(values.map(str), bad))
                oks.append(source == "--random")
        if draw(st.booleans()):
            groups.append(["--manifest", files["manifest"]])
    if command == "verify":
        if draw(st.booleans()):
            part("--bounds", _token(st.sampled_from(["all", "b1", "b2,b4", "b5,b1,b3"]),
                                    ["b9", "b1,x"]))
        if draw(st.booleans()):
            part("--jobs", _token(st.just("1"), ["0", "-1", "x"]))
        maybe("--tight-only", "--skip-invalid")
    if command in ("verify", "counterexample"):
        triple = command == "counterexample" or draw(st.booleans())
        if triple:
            tokens, ok = draw(_triple())
            groups.append(["--triple", *tokens])
            oks.append(ok)
        elif command == "counterexample":
            oks.append(False)
        k = "0"
        if draw(st.booleans()):
            k, _ = part("--k", _FRACTION)
            oks.append(triple)
        if command == "counterexample" and all(oks):
            x = CoefficientTriple(*map(Fraction, tokens))
            if contains(polyhedron_P(), x).inside:
                if Fraction(k) < valid_constant(x):
                    codes = {2}  # below the valid constant no counterexample is ruled out
            elif Fraction(k) == _HUGE:
                # The least violating member is too large to build, unless a
                # huge coefficient violates its constraint by as much.
                codes = {2} if max(map(abs, x)) < _HUGE else {1, 2}
    if command == "family":
        codes = {0, 2}  # 2 for a t the family does not admit
        family, ok = draw(_token(st.sampled_from(FAMILY_IDS), ["G9", "g1"]))
        groups.append([family, str(draw(st.integers(-1, 9)))])
        oks.append(ok)
        maybe("--stats")
    maybe("--json")
    argv = head + [token for group in draw(st.permutations(groups)) for token in group]
    return argv, codes if all(oks) else {2}


@st.composite
def _argv(draw, files):
    """A command line from the grammar, perhaps with one token dropped,
    inserted or swapped with the next."""
    argv, codes = draw(_command(files))
    if draw(st.integers(0, 3)):
        return argv, codes
    edit = draw(st.sampled_from(["drop", "insert", "swap"]))
    i = draw(st.integers(0, len(argv) - 1))
    if edit == "drop":
        del argv[i]
    elif edit == "insert":
        argv.insert(i, draw(st.sampled_from(_STRAY_TOKENS)))
    else:
        argv[i:i + 2] = reversed(argv[i:i + 2])
    return argv, {0, 1, 2}


@pytest.fixture(scope="module")
def grammar_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("grammar")
    k5 = emit_graph6(Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]))
    contents = {"good": TRIANGLE_G6.encode() + b"\n" + emit_graph6(generate(FamilySpec("G3", 2))),
                "invalid": TRIANGLE_G6.encode() + b"\n" + k5, "malformed": b"Bw\nBo!"}
    files = {"missing": str(root / "missing.g6"), "manifest": str(root / "manifest.json")}
    for name, text in contents.items():
        files[name] = str(root / f"{name}.g6")
        Path(files[name]).write_bytes(text + b"\n")
    return files


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_argv_gets_a_defined_exit_code(grammar_files, data):
    argv, codes = data.draw(_argv(grammar_files))
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(out), redirect_stderr(err):
        patch.setattr(multiprocessing, "Pool", _no_pool)
        code = main(argv)
    assert code in codes, err.getvalue()
    assert "Traceback" not in err.getvalue()
    if "--json" in argv and "-h" not in argv and code in (0, 1):  # -h prints help
        for line in out.getvalue().splitlines():
            assert isinstance(json.loads(line), dict), line


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
