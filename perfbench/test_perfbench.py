"""Tests of the benchmark itself: corpus determinism, output checks, tracer
arithmetic and the metric names.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("name", sorted(corpus.CORPORA))
def test_corpus_is_a_function_of_the_seed(name):
    make = corpus.CORPORA[name]
    first, again, other = make(7, "tree"), make(7, "tree"), make(8, "tree")
    assert first.files == again.files
    assert first.oracle == again.oracle
    assert first.diagnostics == again.diagnostics
    assert first.files != other.files
    assert first.units <= set(first.files)
    assert not first.units & set(first.diagnostics)


def _small_plan() -> corpus.Plan:
    """A few files of each dense and sparse kind, one planned diagnostic."""
    rng = random.Random(5)
    plan = corpus.Plan("small", 5, "tree")
    kernel, emitted = corpus._kernel_class(rng, "p", "Kernel0")
    straight, straight_emitted = corpus._sparse_straight(rng, "Straight0")
    files = {
        "p/Kernel0.java": kernel,
        "p/Svc0.java": corpus._service_class(rng, "p", "Svc0"),
        "p/Gen0.java": corpus._generated_accessors(rng, "p", "Gen0", 30),
        "p/Point0.java": corpus._record_file(rng, "p", "Point0")[0],
        "p/Op0.java": corpus._enum_file(rng, "p", "Op0")[0],
        "q/Straight0.java": corpus._header(rng, "q") + straight,
        "q/Dto0.java": corpus._header(rng, "q") + corpus._sparse_dto(rng, "Dto0")[0],
    }
    for path, src in files.items():
        plan.files[path] = src.encode("utf-8")
        plan.units.add(path)
    plan.oracle = {"p/Kernel0.java": emitted, "q/Straight0.java": straight_emitted}
    plan.files["q/Latin0.java"] = b"class Latin0 { } // caf\xe9\n"
    plan.diagnostics["q/Latin0.java"] = "not valid UTF-8"
    return plan


def _analyze(tmp_path, plan, *flags) -> bytes:
    from mutdense import cli

    corpus.write_tree(plan, str(tmp_path))
    out = tmp_path / "out"
    assert cli.main(["analyze", str(tmp_path / plan.root), "--out", str(out), *flags]) == 0
    return (out / "project.json").read_bytes()


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    plan = _small_plan()
    return plan, _analyze(tmp_path_factory.mktemp("small"), plan)


def test_checks_accept_the_real_output(small):
    plan, data = small
    problems, doc = checks.check_project(data, plan)
    assert problems == []
    assert checks.fingerprint(data, doc, plan)["units"] == len(plan.units)


def _corrupt(data: bytes, edit) -> bytes:
    doc = json.loads(data)
    edit(doc)
    return json.dumps(doc).encode("utf-8")


def _bump_avg(doc):
    unit = next(u for u in doc["units"] if u["relevantLineCount"])
    unit["avg"]["combined"] += 0.01


def _drop_oracle_mutant(doc):
    unit = next(u for u in doc["units"] if u["path"] == "p/Kernel0.java")
    unit["mutants"].pop()
    unit["avg"]["traditional"] = unit["avg"]["combined"] = 0.0


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["units"].pop(), "unit set differs"),
    (lambda doc: doc["diagnostics"].clear(), "diagnostic set differs"),
    (lambda doc: doc["diagnostics"][0].update(error="boom"), "lacks 'not valid UTF-8'"),
    (_bump_avg, "avg.combined"),
    (_drop_oracle_mutant, "oracle expects"),
])
def test_checks_reject_a_corrupted_project_json(small, edit, message):
    plan, data = small
    problems, _ = checks.check_project(_corrupt(data, edit), plan)
    assert any(message in p for p in problems), problems


def test_checks_reject_truncated_json(small):
    plan, data = small
    problems, doc = checks.check_project(data[: len(data) // 2], plan)
    assert doc is None and "does not parse" in problems[0]


def test_dense_workloads_write_the_same_project_json(tmp_path):
    plan = _small_plan()
    first = _analyze(tmp_path / "j1", plan, *run.WORKLOADS["dense_j1"].args)
    second = _analyze(tmp_path / "j2", plan, *run.WORKLOADS["dense_j2_html"].args)
    assert first == second


def test_self_time_subtracts_same_process_children_only():
    def span(sid, name, parent, pid, start, end):
        return {"id": sid, "name": name, "parent": parent, "unit": None, "pid": pid,
                "start": start, "done": end, "end": end, "counts": {}}

    spans = [
        span("1.1", "cli.run", None, 1, 0.0, 10.0),
        span("1.2", "cli.discover", "1.1", 1, 0.0, 1.0),
        span("2.3", "cli.analyze_path", "1.1", 2, 1.0, 9.0),  # pool worker
        span("1.4", "reporting.emit_json", "1.1", 1, 9.0, 9.5),
        span("2.5", "source_model.tokenize", "2.3", 2, 1.0, 4.0),
        span("2.6", "scanner.scan", "2.5", 2, 1.0, 2.0),
    ]
    spans[-1]["counts"] = {"tokens": 10, "chars": 2_000_000}
    got = tracer.summarize(spans)
    assert got["cli.run.self_s"] == pytest.approx(8.5)
    assert got["source_model.tokenize.self_s"] == pytest.approx(2.0)
    assert got["scanner.mchars_per_s"] == pytest.approx(2.0)
    assert got["reporting.render.s"] == pytest.approx(0.5)
    assert got["reporting.render_heatmap.s"] == 0.0


def test_metric_names_and_benchmark_json_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for group, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[group]}
        assert listed == names
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    layer_metrics = set(tracer.summarize([])) | {"trace.overhead_s"}
    assert layer_metrics == set(run.PER_LAYER) | set(run.PER_LAYER_PRINTED)
    for name in [*run.END_TO_END, *run.PER_LAYER, *run.PER_LAYER_PRINTED, *run.WORKLOADS]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
