"""Run the ``mutdense`` CLI with a span recorded around each layer's calls.

Usage: python3 perfbench/tracer.py SPANS_PREFIX analyze [ARGS...]

The program is not edited: before the CLI starts, each traced public
function is replaced, in every ``mutdense`` module that binds it, by a
wrapper that records a span (name, start, end, parent id, unit id and a few
counts).  Spans stay in memory and each process writes its own
``SPANS_PREFIX.<pid>.json`` when it exits; pool workers do so through a
multiprocessing finalizer.  ``summarize`` turns the span files of one run
into per-layer metrics.
"""

from __future__ import annotations

import glob
import importlib
import json
import multiprocessing.util
import os
import pickle
import sys
import time
from collections import defaultdict

# layer module -> traced public functions
LAYERS = {
    "scanner": ("scan",),
    "source_model": ("tokenize", "match_braces", "mark_generic_angles",
                     "locate_bodies", "relevant_lines"),
    "fault_model": ("find_mutation_sites",),
    "metrics": ("build_unit_report", "aggregate_project"),
    "reporting": ("emit_json", "render_heatmap", "render_barchart", "render_text"),
    "cli": ("discover", "analyze_path", "run"),
}

# counts taken from a call's arguments and result, after its span has ended
COUNTERS = {
    "scanner.scan": lambda args, res: {"tokens": len(res), "chars": len(args[0])},
    "source_model.locate_bodies": lambda args, res: {"spans": len(res)},
    "source_model.relevant_lines": lambda args, res: {"lines": len(res.relevant)},
    "fault_model.find_mutation_sites": lambda args, res: {"mutants": len(res)},
    "cli.discover": lambda args, res: {"files": len(res[0])},
    "cli.analyze_path": lambda args, res: {"bytes": len(pickle.dumps(res))},
    "reporting.emit_json": lambda args, res: {"bytes": len(res)},
    "reporting.render_heatmap": lambda args, res: {"bytes": len(res.encode("utf-8"))},
}


class Recorder:
    """Spans of one process.  A forked child starts an empty span list but
    keeps the open-span stack, so its first span's parent is the span that
    was open in the parent when the child was forked."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[tuple[str, str | None]] = []  # (span id, unit id)
        self.serial = 0

    def _claim_process(self) -> None:
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            multiprocessing.util.Finalize(None, self.write, exitpriority=100)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            self._claim_process()
            self.serial += 1
            span_id = f"{self.pid}.{self.serial}"
            parent, unit = self.stack[-1] if self.stack else (None, None)
            if name == "cli.analyze_path":
                unit = args[0]
            self.stack.append((span_id, unit))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                done = time.perf_counter()
                self.stack.pop()
            counts = counter(args, result) if counter else {}
            # 'done' closes the layer's own work; 'end' also covers the
            # counting above, so a parent's self time excludes it
            self.spans.append({"id": span_id, "name": name, "parent": parent,
                               "unit": unit, "pid": self.pid, "start": start,
                               "done": done, "end": time.perf_counter(),
                               "counts": counts})
            return result

        return traced

    def write(self) -> None:
        with open(f"{self.prefix}.{self.pid}.json", "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install(recorder: Recorder) -> None:
    """Rebind every traced function in every loaded ``mutdense`` module."""
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"mutdense.{layer}")
        for fname in names:
            original = getattr(module, fname)
            traced = recorder.wrap(f"{layer}.{fname}", original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "mutdense" or mod_name.startswith("mutdense."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)


def load_spans(prefix: str) -> list[dict]:
    spans: list[dict] = []
    for path in sorted(glob.glob(glob.escape(prefix) + ".*.json")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.load(fh))
    return spans


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals of one traced run.

    ``X.s`` sums the durations of X's spans.  A self time subtracts the part
    of each span covered by its children in the same process; children in a
    pool worker are not subtracted, so ``cli.run.self_s`` at ``--jobs`` > 1
    holds dispatch, pickling and waiting for the workers.
    """
    total: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    child_time: dict[str, float] = defaultdict(float)
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        total[s["name"]] += s["done"] - s["start"]
        for key, value in s["counts"].items():
            counts[f"{s['name']}.{key}"] += value
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            child_time[parent["id"]] += s["end"] - s["start"]
    self_time: dict[str, float] = defaultdict(float)
    for s in spans:
        self_time[s["name"]] += max(0.0, s["done"] - s["start"] - child_time[s["id"]])

    scan_s = total["scanner.scan"]
    return {
        "scanner.scan.s": scan_s,
        "scanner.tokens": counts["scanner.scan.tokens"],
        "scanner.mchars_per_s": counts["scanner.scan.chars"] / scan_s / 1e6 if scan_s else 0.0,
        "source_model.tokenize.self_s": self_time["source_model.tokenize"],
        "source_model.match_braces.s": total["source_model.match_braces"],
        "source_model.mark_generic_angles.s": total["source_model.mark_generic_angles"],
        "source_model.locate_bodies.s": total["source_model.locate_bodies"],
        "source_model.spans": counts["source_model.locate_bodies.spans"],
        "source_model.relevant_lines.s": total["source_model.relevant_lines"],
        "source_model.relevant_line_count": counts["source_model.relevant_lines.lines"],
        "fault_model.find_mutation_sites.s": total["fault_model.find_mutation_sites"],
        "fault_model.mutants": counts["fault_model.find_mutation_sites.mutants"],
        "metrics.build_unit_report.s": total["metrics.build_unit_report"],
        "cli.analyze_path.s": total["cli.analyze_path"],
        "cli.analyze_path.result_bytes": counts["cli.analyze_path.bytes"],
        "cli.discover.s": total["cli.discover"],
        "cli.discover.files": counts["cli.discover.files"],
        "cli.run.self_s": self_time["cli.run"],
        "metrics.aggregate_project.s": total["metrics.aggregate_project"],
        "reporting.emit_json.s": total["reporting.emit_json"],
        "reporting.json_bytes": counts["reporting.emit_json.bytes"],
        "reporting.render_text.s": total["reporting.render_text"],
        "reporting.render.s": sum(total[f"reporting.{f}"] for f in LAYERS["reporting"]),
        "reporting.render_heatmap.s": total["reporting.render_heatmap"],
        "reporting.html_bytes": counts["reporting.render_heatmap.bytes"],
        "reporting.render_barchart.s": total["reporting.render_barchart"],
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    recorder = Recorder(argv[0])
    install(recorder)
    from mutdense import cli

    try:
        return cli.main(argv[1:])
    finally:
        recorder.write()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
