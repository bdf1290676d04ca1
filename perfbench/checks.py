"""Output checks for one ``mutdense analyze`` run against its corpus plan."""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter

from corpus import Plan

# averages are serialized rounded half-to-even at 4 decimals
_HALF_ULP = 0.00005


def check_project(data: bytes, plan: Plan) -> tuple[list[str], dict | None]:
    """Check ``project.json`` bytes against the plan.

    Returns the list of problems (empty when the output is correct) and the
    parsed document, or None when it does not parse.
    """
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return [f"project.json does not parse: {exc}"], None
    problems: list[str] = []
    try:
        units = {u["path"]: u for u in doc["units"]}
        diagnostics = {d["path"]: d["error"] for d in doc["diagnostics"]}
    except (KeyError, TypeError) as exc:
        return [f"project.json lacks units or diagnostics: {exc!r}"], None

    if set(units) != plan.units:
        missing, extra = plan.units - set(units), set(units) - plan.units
        problems.append(f"unit set differs from the plan: {len(missing)} missing "
                        f"(e.g. {sorted(missing)[:3]}), {len(extra)} unexpected "
                        f"(e.g. {sorted(extra)[:3]})")
    if set(diagnostics) != set(plan.diagnostics):
        problems.append(f"diagnostic set differs from the plan: got {sorted(diagnostics)}, "
                        f"planned {sorted(plan.diagnostics)}")
    for path, fragment in plan.diagnostics.items():
        if path in diagnostics and fragment not in diagnostics[path]:
            problems.append(f"{path}: diagnostic {diagnostics[path]!r} lacks {fragment!r}")

    for path, unit in units.items():
        problems.extend(_check_unit(path, unit))
    for path, expected in plan.oracle.items():
        unit = units.get(path)
        if unit is None:
            continue
        families = Counter(m["family"] for m in unit["mutants"])
        if families["traditional"] != expected or families["null-type"]:
            problems.append(f"{path}: oracle expects {expected} traditional and 0 null-type "
                            f"mutants, got {dict(families)}")
    return problems, doc


def _check_unit(path: str, unit: dict) -> list[str]:
    problems = []
    mutants, lines, rlc = unit["mutants"], unit["lines"], unit["relevantLineCount"]
    if len(lines) != unit["physicalLineCount"]:
        problems.append(f"{path}: {len(lines)} line entries for "
                        f"{unit['physicalLineCount']} physical lines")
    if sum(1 for ln in lines if ln["relevant"]) != rlc:
        problems.append(f"{path}: relevant line entries disagree with relevantLineCount")
    if unit["empty"] != (rlc == 0):
        problems.append(f"{path}: 'empty' is {unit['empty']} with {rlc} relevant lines")
    by_family = Counter(m["family"] for m in mutants)
    for key, count in (("traditional", by_family["traditional"]),
                       ("nullType", by_family["null-type"]),
                       ("combined", len(mutants))):
        # avg x relevantLineCount == mutant total, up to the 4-decimal rounding
        if abs(unit["avg"][key] * rlc - count) > _HALF_ULP * rlc + 1e-9:
            problems.append(f"{path}: avg.{key} {unit['avg'][key]} x {rlc} relevant lines "
                            f"!= {count} mutants")
    if sum(ln["total"] for ln in lines) != len(mutants):
        problems.append(f"{path}: per-line totals do not add up to the mutant count")
    return problems


def fingerprint(data: bytes, doc: dict, plan: Plan) -> dict:
    """What the run computed, for comparing commits; nothing here is gated."""
    units = doc["units"]
    gap = [u for u in units if u["path"] in plan.gap_units]
    return {
        "files": len(units) + len(doc["diagnostics"]),
        "units": len(units),
        "diagnostics": len(doc["diagnostics"]),
        "physical_lines": sum(u["physicalLineCount"] for u in units),
        "relevant_lines": sum(u["relevantLineCount"] for u in units),
        "mutants": dict(sorted(Counter(m["operatorId"] for u in units
                                       for m in u["mutants"]).items())),
        "json_bytes": len(data),
        "json_sha256": hashlib.sha256(data).hexdigest(),
        "gap_methods_planned": plan.gap_methods,
        "gap_relevant_lines": sum(u["relevantLineCount"] for u in gap),
        "gap_mutants": sum(len(u["mutants"]) for u in gap),
    }


def artifact_digest(out_dir: str) -> tuple[str, dict[str, int]]:
    """sha256 over every artifact's name and bytes, and the count per suffix."""
    digest = hashlib.sha256()
    suffixes: Counter = Counter()
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode("utf-8") + b"\0" + hashlib.sha256(data).digest())
        suffixes[os.path.splitext(name)[1]] += 1
    return digest.hexdigest(), dict(suffixes)
