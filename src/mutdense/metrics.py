"""Density metrics: per-line counts, per-unit averages, project aggregates.

Averages are exact rationals (``fractions.Fraction``); rounding happens only
at serialization time.  The per-unit average divides by the count of
relevant lines, so blank padding and non-method regions never dilute the
metric; both the relevant and physical line counts are carried so either
reading can be recomputed downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal, Sequence

from mutdense import errors
from mutdense._version import VERSION
from mutdense.fault_model import (
    CATALOG,
    Family,
    Mutant,
    MutationOperator,
    OperatorSet,
    find_mutation_sites,
)
from mutdense.source_model import LineSet, SourceUnit, locate_bodies, relevant_lines

MetricKey = Literal["traditional", "null-type", "combined"]
COMBINED: MetricKey = "combined"
_FAMILIES = tuple(Family)


@dataclass(frozen=True)
class LineDensity:
    """Mutant counts for one physical line, split by operator family."""

    line: int
    relevant: bool
    count_by_family: dict[Family, int]
    total: int


@dataclass(frozen=True)
class UnitReport:
    path: str
    physical_line_count: int
    relevant_line_count: int
    mutant_count_by_family: dict[Family, int]
    line_densities: tuple[LineDensity, ...]
    avg_density_by_family: dict[Family, Fraction]
    avg_density_combined: Fraction
    mutants: tuple[Mutant, ...]

    @property
    def empty(self) -> bool:
        return self.relevant_line_count == 0


@dataclass(frozen=True)
class Diagnostic:
    path: str
    error: str


@dataclass(frozen=True)
class ProjectReport:
    units: tuple[UnitReport, ...]
    diagnostics: tuple[Diagnostic, ...]
    tool_version: str = VERSION
    operator_catalog: tuple[MutationOperator, ...] = field(default=CATALOG)


def line_densities(
    unit: SourceUnit, relevant: LineSet, mutants: Sequence[Mutant]
) -> list[LineDensity]:
    """One LineDensity per physical line of the unit.

    A mutant landing on a non-relevant line breaks the span/relevance
    contract and raises MutantOnIrrelevantLine.
    """
    counts: dict[int, dict[Family, int]] = {}
    for m in mutants:
        if m.line not in relevant.relevant:
            raise errors.MutantOnIrrelevantLine(
                f"{m.operator_id} mutant on non-relevant line {m.line} of {unit.path}"
            )
        counts.setdefault(m.line, dict.fromkeys(_FAMILIES, 0))[m.family] += 1
    out: list[LineDensity] = []
    for ln in range(1, len(unit.lines) + 1):
        per_line = counts.get(ln) or dict.fromkeys(_FAMILIES, 0)
        out.append(
            LineDensity(
                line=ln,
                relevant=ln in relevant.relevant,
                count_by_family=per_line,
                total=sum(per_line.values()),
            )
        )
    return out


def average_density(
    densities: Sequence[LineDensity], key: Family | MetricKey = COMBINED
) -> Fraction:
    """(sum of per-line densities over relevant lines) / (relevant line count).

    Zero when no line is relevant; the owning report then carries
    ``empty: true``.
    """
    relevant = [d for d in densities if d.relevant]
    if not relevant:
        return Fraction(0)
    if key == COMBINED:
        total = sum(d.total for d in relevant)
    else:
        fam = Family(key)
        total = sum(d.count_by_family[fam] for d in relevant)
    return Fraction(total, len(relevant))


def build_unit_report(
    unit: SourceUnit, relevant: LineSet, mutants: Sequence[Mutant]
) -> UnitReport:
    """Assemble the per-unit report from the analysis parts."""
    densities = tuple(line_densities(unit, relevant, mutants))
    by_family = {
        fam: sum(1 for m in mutants if m.family is fam) for fam in Family
    }
    avg_by_family = {fam: average_density(densities, fam) for fam in Family}
    return UnitReport(
        path=unit.path,
        physical_line_count=len(unit.lines),
        relevant_line_count=len(relevant.relevant),
        mutant_count_by_family=by_family,
        line_densities=densities,
        avg_density_by_family=avg_by_family,
        avg_density_combined=sum(avg_by_family.values(), Fraction(0)),
        mutants=tuple(mutants),
    )


def analyze_unit(path: str, text: str, operator_set: OperatorSet) -> UnitReport:
    """The whole per-unit chain: scan, bodies, relevant lines, mutants, report.

    Raises a MutdenseError subclass when the text cannot be analyzed.
    """
    unit = SourceUnit.from_text(path, text)
    spans = locate_bodies(unit)
    relevant = relevant_lines(unit, spans)
    mutants = find_mutation_sites(unit, spans, operator_set)
    return build_unit_report(unit, relevant, mutants)


def aggregate_project(
    unit_reports: Sequence[UnitReport], diagnostics: Sequence[Diagnostic] = ()
) -> ProjectReport:
    """Sort units by path and attach the catalog and tool version."""
    ordered = tuple(sorted(unit_reports, key=lambda u: u.path))
    seen: set[str] = set()
    for u in ordered:
        if u.path in seen:
            raise errors.DuplicatePath(f"unit path appears twice: {u.path}")
        seen.add(u.path)
    return ProjectReport(units=ordered, diagnostics=tuple(diagnostics))


def _unit_value(unit: UnitReport, key: Family | MetricKey) -> Fraction:
    if key == COMBINED:
        return unit.avg_density_combined
    return unit.avg_density_by_family[Family(key)]


def rank_units(
    report: ProjectReport, key: Family | MetricKey = COMBINED
) -> list[tuple[str, Fraction]]:
    """Units by descending value; ties broken by ascending path."""
    pairs = [(u.path, _unit_value(u, key)) for u in report.units]
    pairs.sort(key=lambda pv: (-pv[1], pv[0]))
    return pairs


def _line_value(density: LineDensity, key: Family | MetricKey) -> int:
    if key == COMBINED:
        return density.total
    return density.count_by_family[Family(key)]


def top_lines(
    report: ProjectReport, n: int, key: Family | MetricKey = COMBINED
) -> list[tuple[str, int, int]]:
    """The n highest-density relevant lines project-wide.

    Zero-density lines never qualify, so fewer than n entries may return.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rows = [
        (u.path, d.line, _line_value(d, key))
        for u in report.units
        for d in u.line_densities
        if d.relevant and _line_value(d, key) > 0
    ]
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    return rows[:n]
