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
from functools import cached_property
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
    """What analysis found in one unit: its relevant lines and its mutants.

    Every mutant must sit on a relevant line; a report that breaks this
    span/relevance contract raises MutantOnIrrelevantLine.  Per-line
    densities, per-family counts and averages are derived from the four
    fields on first read, so a pickled report carries only what was found.
    """

    path: str
    physical_line_count: int
    relevant_lines: frozenset[int]
    mutants: tuple[Mutant, ...]

    def __post_init__(self) -> None:
        for m in self.mutants:
            if m.line not in self.relevant_lines:
                raise errors.MutantOnIrrelevantLine(
                    f"{m.operator_id} mutant on non-relevant line {m.line} of {self.path}"
                )

    @property
    def relevant_line_count(self) -> int:
        return len(self.relevant_lines)

    @property
    def empty(self) -> bool:
        return not self.relevant_lines

    @cached_property
    def line_densities(self) -> tuple[LineDensity, ...]:
        """One LineDensity per physical line of the unit."""
        counts: dict[int, dict[Family, int]] = {}
        for m in self.mutants:
            counts.setdefault(m.line, dict.fromkeys(_FAMILIES, 0))[m.family] += 1
        out: list[LineDensity] = []
        for ln in range(1, self.physical_line_count + 1):
            per_line = counts.get(ln) or dict.fromkeys(_FAMILIES, 0)
            out.append(
                LineDensity(
                    line=ln,
                    relevant=ln in self.relevant_lines,
                    count_by_family=per_line,
                    total=sum(per_line.values()),
                )
            )
        return tuple(out)

    @cached_property
    def mutant_count_by_family(self) -> dict[Family, int]:
        counts = dict.fromkeys(_FAMILIES, 0)
        for m in self.mutants:
            counts[m.family] += 1
        return counts

    @cached_property
    def avg_density_by_family(self) -> dict[Family, Fraction]:
        return {fam: average_density(self.line_densities, fam) for fam in Family}

    @property
    def avg_density_combined(self) -> Fraction:
        return sum(self.avg_density_by_family.values(), Fraction(0))


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
) -> tuple[LineDensity, ...]:
    """One LineDensity per physical line of the unit.

    A mutant landing on a non-relevant line breaks the span/relevance
    contract and raises MutantOnIrrelevantLine.
    """
    return build_unit_report(unit, relevant, mutants).line_densities


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
    return UnitReport(
        path=unit.path,
        physical_line_count=len(unit.lines),
        relevant_lines=relevant.relevant,
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
