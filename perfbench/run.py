#!/usr/bin/env python3
"""Benchmark ``mutdense analyze`` end to end, or per layer with ``--trace 1``.

Usage, from the repository root:

    python3 perfbench/run.py --workload dense_j1 --seed 1 --seconds 45 --trace 0

Each run writes the workload's seeded corpus under
``.perfbench_work/run-<pid>/``, then, as a closed loop with one client,
starts one fresh ``mutdense analyze`` process at a time on it until
``--seconds`` have passed, checks every run's outputs against the corpus
plan, and removes the directory.  The program is run from ``src/`` of this
checkout, never from an installed copy.

``--trace 0`` reports the end-to-end metrics (medians over the runs).
``--trace 1`` alternates untraced runs with runs under ``tracer.py`` and
reports the per-layer metrics (medians over the traced runs) and the
tracing overhead.  The last line of standard output is one JSON object;
the lines before it are the same figures for people, plus the corpus
fingerprint.  The exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import corpus  # noqa: E402
import tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    corpus: str
    args: tuple[str, ...]


WORKLOADS = {
    "dense_j1": Workload("dense", ("--format", "json,text", "--jobs", "1")),
    "dense_j2_html": Workload("dense", ("--format", "json,html,svg,text", "--jobs", "2")),
    "sparse_j2": Workload("sparse", ("--format", "json,text", "--jobs", "2",
                                     "--exclude", "**/generated/**")),
}

END_TO_END = {
    "wall_s": "s",
    "src_kloc_per_s": "kloc/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "scanner.scan.s": "s",
    "scanner.tokens": "count",
    "scanner.mchars_per_s": "Mchar/s",
    "source_model.tokenize.self_s": "s",
    "source_model.match_braces.s": "s",
    "source_model.mark_generic_angles.s": "s",
    "source_model.locate_bodies.s": "s",
    "source_model.spans": "count",
    "source_model.relevant_lines.s": "s",
    "source_model.relevant_line_count": "count",
    "fault_model.find_mutation_sites.s": "s",
    "fault_model.mutants": "count",
    "metrics.build_unit_report.s": "s",
    "cli.analyze_path.s": "s",
    "cli.analyze_path.result_bytes": "bytes",
    "cli.discover.s": "s",
    "cli.discover.files": "count",
    "cli.run.self_s": "s",
    "metrics.aggregate_project.s": "s",
    "reporting.emit_json.s": "s",
    "reporting.json_bytes": "bytes",
    "reporting.render_text.s": "s",
    "reporting.render.s": "s",
    "trace.overhead_s": "s",
}

# Printed with the per-layer metrics but kept out of the JSON result: the
# HTML and SVG renderers run only in dense_j2_html, so on the other
# workloads these read 0 on every run.  reporting.render.s covers them.
PER_LAYER_PRINTED = {
    "reporting.render_heatmap.s": "s",
    "reporting.html_bytes": "bytes",
    "reporting.render_barchart.s": "s",
}

SETUP_SAMPLES = 5  # `mutdense version` runs before the loop; one more per round follows


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ok: bool


class Bench:
    """One workload on one seeded corpus: runs the CLI and checks its output."""

    def __init__(self, name: str, seed: int, run_dir: str) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.plan = corpus.CORPORA[self.workload.corpus](seed, "tree")
        self.run_dir = run_dir
        self.tree = os.path.join(run_dir, "tree")
        self.out = os.path.join(run_dir, "out")
        self.log = os.path.join(run_dir, "run.log")
        self.env = dict(os.environ)
        self.env.pop("MUTDENSE_JOBS", None)
        self.env["PYTHONPATH"] = SRC + os.pathsep + self.env.get("PYTHONPATH", "")
        self.reference: tuple[str, dict[str, int]] | None = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.kloc = 0.0
        self.fingerprint: dict = {}
        corpus.write_tree(self.plan, run_dir)

    def _invoke(self, argv: list[str]) -> tuple[Sample, int, str]:
        self.attempted += 1
        with open(self.log, "wb") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(self.log, encoding="utf-8", errors="replace") as fh:
            output = fh.read()
        sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, True)
        return sample, proc.returncode, output

    def _fail(self, sample: Sample, problem: str) -> Sample:
        if sample.ok:
            self.failed += 1
        sample.ok = False
        self.problems.append(problem)
        return sample

    def version(self) -> Sample:
        sample, code, output = self._invoke([sys.executable, "-m", "mutdense", "version"])
        if code != 0 or not output.startswith("mutdense "):
            self._fail(sample, f"`mutdense version` exited {code}: {output.strip()[:200]}")
        return sample

    def analyze(self, spans_prefix: str | None = None) -> Sample:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = [sys.executable, "-m", "mutdense"]
        if spans_prefix is not None:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans_prefix]
        argv += ["analyze", self.tree, *self.workload.args, "--out", self.out]
        sample, code, output = self._invoke(argv)
        summary = (f"analyzed {len(self.plan.units)} unit(s), "
                   f"{len(self.plan.diagnostics)} diagnostic(s)")
        if code != 0 or summary not in output:
            return self._fail(sample, f"analyze exited {code}: {output.strip()[-300:]}")
        digest = checks.artifact_digest(self.out)
        if self.reference is None:
            self._check_reference(sample, digest)
        elif digest != self.reference:
            self._fail(sample, "artifacts differ from the first run's")
        return sample

    def _check_reference(self, sample: Sample, digest: tuple[str, dict[str, int]]) -> None:
        """Full checks on the first run; later runs must repeat its bytes."""
        self.reference = digest
        with open(os.path.join(self.out, "project.json"), "rb") as fh:
            data = fh.read()
        problems, doc = checks.check_project(data, self.plan)
        formats = self.workload.args[self.workload.args.index("--format") + 1].split(",")
        expected = {".json": 1}
        if "text" in formats:
            expected[".txt"] = 1
        if "svg" in formats:
            expected[".svg"] = 1
        if "html" in formats:
            expected[".html"] = len(self.plan.units)
        if digest[1] != expected:
            problems.append(f"artifacts per suffix {digest[1]}, expected {expected}")
        if doc is not None:
            self.fingerprint = checks.fingerprint(data, doc, self.plan)
            self.kloc = self.fingerprint["physical_lines"] / 1000
            problems.extend(self._check_across_workloads())
        for problem in problems:
            self._fail(sample, problem)

    def _check_across_workloads(self) -> list[str]:
        """project.json must be the same bytes for every workload that runs
        this corpus and seed (dense_j1 and dense_j2_html) on the same code."""
        state_path = os.path.join(WORK, "project_sha256.json")
        try:
            with open(state_path, encoding="utf-8") as fh:
                state = json.load(fh)
        except (OSError, ValueError):
            state = {}
        key = f"{self.plan.corpus}:{self.plan.seed}:{self.plan.digest()}:{program_digest()}"
        sha = self.fingerprint["json_sha256"]
        seen = state.get(key)
        if seen is not None and seen["sha256"] != sha:
            return [f"project.json sha256 {sha} differs from {seen['sha256']} "
                    f"written by {seen['workload']} on the same corpus"]
        if seen is None:
            state[key] = {"sha256": sha, "workload": self.name}
            scratch = os.path.join(self.run_dir, "project_sha256.json")
            with open(scratch, "w", encoding="utf-8") as fh:
                json.dump(state, fh, indent=1, sort_keys=True)
            os.replace(scratch, state_path)
        return []


def program_digest() -> str:
    """sha256 over the program's Python sources, so a stored project.json
    hash is compared only against runs of the same code."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "mutdense")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode("utf-8") + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def library_counts(plan: corpus.Plan) -> dict:
    """Tokens and body spans of the analyzable units, from the library."""
    sys.path.insert(0, SRC)
    from mutdense import scanner
    from mutdense.source_model import SourceUnit, locate_bodies

    tokens = spans = 0
    for path in sorted(plan.units):
        unit = SourceUnit.from_text(path, plan.files[path].decode("utf-8"))
        tokens += len(unit.tokens)
        spans += len(locate_bodies(unit))
    return {"backend": scanner.BACKEND, "tokens": tokens, "spans": spans}


def describe(values: list[float]) -> str:
    """Sample count, quartiles and the highest percentile that has at least
    ten samples beyond it."""
    n = len(values)
    if n < 2:
        return f"n={n}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    text = f"n={n}, q1 {q1:.4f}, q3 {q3:.4f}"
    tail = [p for p in (99, 95, 90, 75) if n * (100 - p) >= 1000]
    if tail:
        text += f", p{tail[0]} {statistics.quantiles(values, n=100)[tail[0] - 1]:.4f}"
    else:
        text += ", no tail percentile (needs 10 samples beyond it)"
    return text


def measure(bench: Bench, seconds: float, trace: bool) -> dict[str, list[float]]:
    series: dict[str, list[float]] = {"setup_s": [bench.version().wall_s
                                                   for _ in range(SETUP_SAMPLES)]}
    spans_dir = os.path.join(bench.run_dir, "spans")
    rounds: list[float] = []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        run = bench.analyze()
        if run.ok:
            for key in ("wall_s", "cpu_s", "peak_rss_mb"):
                series.setdefault(key, []).append(getattr(run, key))
            series.setdefault("src_kloc_per_s", []).append(bench.kloc / run.wall_s)
        if trace:
            shutil.rmtree(spans_dir, ignore_errors=True)
            os.makedirs(spans_dir)
            prefix = os.path.join(spans_dir, "spans")
            traced = bench.analyze(spans_prefix=prefix)
            if traced.ok:
                series.setdefault("traced_wall_s", []).append(traced.wall_s)
                for key, value in tracer.summarize(tracer.load_spans(prefix)).items():
                    series.setdefault(key, []).append(value)
        else:
            series["setup_s"].append(bench.version().wall_s)
        now = time.perf_counter()
        rounds.append(now - round_started)
        if now - started + statistics.median(rounds) > seconds:
            break
    return series


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mutdense", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/mutdense is missing",
              file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(SRC, "mutdense"), quiet=1)
    # each run keeps its corpus and outputs apart, and removes them at exit
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        bench = Bench(args.workload, args.seed, run_dir)
        library = library_counts(bench.plan)
        series = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace and series.get("traced_wall_s") and series.get("wall_s"):
        series["trace.overhead_s"] = [statistics.median(series["traced_wall_s"])
                                      - statistics.median(series["wall_s"])]
        wanted = PER_LAYER
    else:
        wanted = END_TO_END
    metrics = {}
    print(f"workload {args.workload}, seed {args.seed}, corpus {bench.plan.corpus}: "
          f"{len(bench.plan.units)} units, {bench.plan.java_bytes()} bytes of Java")
    printed = dict(wanted, **PER_LAYER_PRINTED) if args.trace else wanted
    for name, unit in printed.items():
        values = series.get(name)
        if not values:
            bench.problems.append(f"no value measured for {name}")
            continue
        value = statistics.median(values)
        if name in wanted:
            metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<36} {value:14.4f} {unit:<8} median, {describe(values)}")
    if not args.trace:
        print("  peak_rss_mb is ru_maxrss of the analyze process tree: the largest "
              "process, not the sum over the pool workers")
    print(f"  failed_share {bench.failed / bench.attempted:.4f}: {bench.failed} of "
          f"{bench.attempted} program runs exited nonzero or failed an output check")
    print(f"  fingerprint {json.dumps(dict(library, **bench.fingerprint), sort_keys=True)}")
    for problem in bench.problems[:20]:
        print(f"  CHECK FAILED: {problem}")

    correct = not bench.problems
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
