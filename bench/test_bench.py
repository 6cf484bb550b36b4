"""Self-test of the benchmark: its inputs, its checks, its speed scaling
and its tracer.

    python3 -m pytest bench -q

Shows that a wrong pinned value or a corrupted report is counted as a
failed operation instead of passing silently.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

import matchbounds  # noqa: E402
import matchbounds.cli  # noqa: E402


def cli_json(args: list[str]) -> str:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        assert matchbounds.cli.main(args + ["--json"]) == 0
    return sink.getvalue()


@pytest.fixture
def pins(monkeypatch):
    """A private copy of the pins, so a test can corrupt it."""
    copied = copy.deepcopy(worker.PINS)
    monkeypatch.setattr(worker, "PINS", copied)
    return copied


@pytest.fixture(scope="module")
def corpus_run(tmp_path_factory):
    """Six pool graphs verified at --jobs 1: (out, lines, picks)."""
    picks = inputs.pick("corpus", 7, inputs.CORPUS_POOL, 6)
    path = tmp_path_factory.mktemp("corpus") / "c.g6"
    lines = [line.decode() for line in inputs.write_graph6(path, map(inputs.corpus_graph, picks))]
    out = {"jobs1": cli_json(["verify", "--file", str(path), "--bounds", "all"])}
    return out, lines, picks


def failures(check, *args) -> list[str]:
    checks = worker.Checks()
    check(checks, *args)
    assert checks.results
    return checks.failed


def test_inputs_depend_only_on_the_seed():
    assert inputs.pick("corpus", 3, inputs.CORPUS_POOL, 50) == inputs.pick(
        "corpus", 3, inputs.CORPUS_POOL, 50)
    assert inputs.pick("corpus", 3, inputs.CORPUS_POOL, 50) != inputs.pick(
        "corpus", 4, inputs.CORPUS_POOL, 50)
    assert inputs.corpus_graph(11) == inputs.corpus_graph(11)


@pytest.mark.parametrize("index", range(40))
def test_own_graph6_agrees_with_the_program(index):
    n, edges = inputs.corpus_graph(index)
    g = matchbounds.Graph(n, edges)
    assert inputs.graph6(n, edges) == matchbounds.emit_graph6(g)
    prof = matchbounds.degree_profile(g)
    assert inputs.decode_degrees(inputs.graph6(n, edges)) == (n, prof.n1, prof.n2, prof.n3)
    assert prof.c == 1


def test_corpus_checks_pass_on_true_output(pins, corpus_run):
    out, lines, picks = corpus_run
    assert failures(worker.check_corpus, out, lines, picks) == []


def test_wrong_pinned_nu_fails(pins, corpus_run):
    out, lines, picks = corpus_run
    i = picks[0]
    pins["corpus_nu"] = pins["corpus_nu"][:i] + chr(ord(pins["corpus_nu"][i]) + 1) + \
        pins["corpus_nu"][i + 1:]
    failed = failures(worker.check_corpus, out, lines, picks)
    assert any("nu differs from pinned" in f for f in failed)


@pytest.mark.parametrize("field, value", [("nu", 0), ("nu", "3"), ("slack", "-1"),
                                          ("slack", "x"), ("rhs", "1/7"), ("tight", True),
                                          ("bound", "b9"), ("graph", "")])
def test_corrupted_report_fails(pins, corpus_run, field, value):
    out, lines, picks = corpus_run
    reports = out["jobs1"].splitlines()
    rep = json.loads(reports[3])
    assert rep[field] != value
    rep[field] = value
    reports[3] = json.dumps(rep)
    bad = {"jobs1": "\n".join(reports) + "\n"}
    assert failures(worker.check_corpus, bad, lines, picks)


def test_garbled_line_and_jobs2_mismatch_fail(pins, corpus_run):
    out, lines, picks = corpus_run
    garbled = {"jobs1": out["jobs1"].replace('"slack"', '"slak"', 1)}
    assert any("reports parse" in f for f in failures(worker.check_corpus, garbled, lines, picks))
    dropped = {"jobs1": out["jobs1"], "jobs2": "".join(out["jobs1"].splitlines(True)[:-1])}
    failed = failures(worker.check_corpus, dropped, lines, picks)
    assert any("same multiset" in f for f in failed)


def test_exhaustive_pins_catch_a_wrong_count(pins):
    out = {"verify": cli_json(["verify", "--enumerate", "6", "--bounds", "all"])}
    classes = [1, 1, 2, 6, 10, 29]
    tight = {b: 0 for b in worker.BOUNDS}
    for line in out["verify"].splitlines():
        rep = json.loads(line)
        tight[rep["bound"]] += rep["tight"]
    pins["exhaustive"] = {"max_n": 6, "classes_per_order": classes, "tight": dict(tight)}
    assert failures(worker.check_exhaustive, out) == []
    pins["exhaustive"]["tight"]["b1"] += 1
    assert failures(worker.check_exhaustive, out) == [
        f"tight b1: got {tight['b1']}, want {tight['b1'] + 1}"]
    pins["exhaustive"]["tight"] = tight
    pins["exhaustive"]["classes_per_order"] = classes[:-1] + [30]
    assert len(failures(worker.check_exhaustive, out)) == 2  # class count and graph total


def test_ge_pin_mismatch_fails(pins, tmp_path):
    picks = [9]
    lines = [line.decode() for line in inputs.write_graph6(tmp_path / "ge.g6",
                                                           map(inputs.ge_graph, picks))]
    out = {"ge": cli_json(["ge", "--file", str(tmp_path / "ge.g6")]),
           "nu": [(v, v) for v in (1, 2, 3)],
           "sample": cli_json(["verify", "--random", str(worker.SAMPLE_GRAPHS), "--size", "20",
                               "--bounds", "all"])}
    assert failures(worker.check_large, out, lines, picks) == []
    pins["ge_pool"]["9"][0] += 1
    failed = failures(worker.check_large, out, lines, picks)
    assert len(failed) == 1 and failed[0].startswith("ge pool 9: |A|,|B|,|C|")
    out["nu"][1] = (2, 3)
    assert any("nu G4(800)" in f for f in failures(worker.check_large, out, lines, picks))


def test_scaled_time_weights_each_stretch_by_its_calibration():
    ref = speed.REF_S
    # One second at the reference speed, then two seconds at half of it.
    samples = [(0.0, ref), (1.0 + ref, 1.0 + 2 * ref), (3.0 + 2 * ref, 3.0 + 4 * ref)]
    assert speed.scaled_seconds(samples) == pytest.approx(1.0 + 2.0 / 2)


def test_meter_samples_the_region_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Meter() as meter:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 0.1 / speed.INTERVAL_S / 2
    assert meter.elapsed_s >= 0.1 and meter.scaled_s > 0


def test_tracer_records_nested_spans_and_restores_bindings():
    original = matchbounds.bounds.nu
    g = matchbounds.Graph(4, [(0, 1), (1, 2), (2, 3)])
    with Tracer() as tracer:
        for spec in matchbounds.sharp_bounds():
            matchbounds.evaluate_bound(g, spec)
        list(matchbounds.enumerate_subcubic(matchbounds.EnumerationConfig(max_n=5)))
    assert matchbounds.bounds.nu is original and matchbounds.nu is original
    summary = tracer.summary()
    spans = summary["spans"]
    assert spans["evaluate_bound"]["calls"] == 5
    assert spans["evaluate_bound"]["children"] == {"degree_profile": 5, "nu": 5}
    assert spans["level.n5"]["children"]["canonical_key"] == 45
    assert summary["graph_inits"] > 0
    assert all(s["self_s"] >= -1e-9 for s in spans.values())


def test_runs_fail_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
