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
_FAMILY_INDEX = {fam: k for k, fam in enumerate(_FAMILIES)}


@dataclass(frozen=True)
class LineDensity:
    """Mutant counts for one physical line, split by operator family."""

    line: int
    relevant: bool
    count_by_family: dict[Family, int]
    total: int


class _UnitAverages:
    """Averages of a unit that carries ``relevant_line_count`` and
    ``mutant_count_by_family``: each family's mutant count over the relevant
    line count, 0 when no line is relevant.  Every mutant sits on a relevant
    line, so this equals ``average_density`` over the unit's per-line rows.
    """

    relevant_line_count: int
    mutant_count_by_family: dict[Family, int]

    @property
    def empty(self) -> bool:
        return self.relevant_line_count == 0

    @cached_property
    def avg_density_by_family(self) -> dict[Family, Fraction]:
        if self.empty:
            return dict.fromkeys(_FAMILIES, Fraction(0))
        return {
            fam: Fraction(self.mutant_count_by_family[fam], self.relevant_line_count)
            for fam in _FAMILIES
        }

    @property
    def avg_density_combined(self) -> Fraction:
        return sum(self.avg_density_by_family.values(), Fraction(0))


@dataclass(frozen=True)
class UnitReport(_UnitAverages):
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

    @cached_property
    def line_counts(self) -> dict[int, tuple[int, ...]]:
        """Mutants per family, in ``Family`` order (traditional, null-type),
        of each line that hosts one."""
        counts: dict[int, list[int]] = {}
        for m in self.mutants:
            counts.setdefault(m.line, [0] * len(_FAMILIES))[_FAMILY_INDEX[m.family]] += 1
        return {ln: tuple(per_family) for ln, per_family in counts.items()}

    @cached_property
    def line_densities(self) -> tuple[LineDensity, ...]:
        """One LineDensity per physical line of the unit."""
        counts = self.line_counts
        zero = (0,) * len(_FAMILIES)
        return tuple(
            LineDensity(
                line=ln,
                relevant=ln in self.relevant_lines,
                count_by_family=dict(zip(_FAMILIES, per_family)),
                total=sum(per_family),
            )
            for ln in range(1, self.physical_line_count + 1)
            for per_family in (counts.get(ln, zero),)
        )

    @cached_property
    def mutant_count_by_family(self) -> dict[Family, int]:
        counts = dict.fromkeys(_FAMILIES, 0)
        for m in self.mutants:
            counts[m.family] += 1
        return counts

    def top_lines(self, n: int, key: Family | MetricKey = COMBINED) -> list[tuple[int, int]]:
        """The unit's n highest-density lines as (line, value), ties by line.

        Only lines that host a mutant of ``key`` qualify; all are relevant.
        """
        k = None if key == COMBINED else _FAMILY_INDEX[Family(key)]
        rows = [
            (ln, sum(per_family) if k is None else per_family[k])
            for ln, per_family in self.line_counts.items()
        ]
        rows = [row for row in rows if row[1] > 0]
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows[:n]


@dataclass(frozen=True)
class UnitSummary(_UnitAverages):
    """The part of a unit that the text table, the bar chart and the
    threshold gate read, with the report's top ``top_n`` combined-density
    lines.  ``mutdense analyze`` keeps this of each unit in place of the
    UnitReport, which stays in the worker that built it.
    """

    path: str
    relevant_line_count: int
    mutant_count_by_family: dict[Family, int]
    top_n: int = 0
    top_rows: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_report(cls, report: UnitReport, top_n: int = 0) -> "UnitSummary":
        return cls(
            path=report.path,
            relevant_line_count=report.relevant_line_count,
            mutant_count_by_family=report.mutant_count_by_family,
            top_n=top_n,
            top_rows=tuple(report.top_lines(top_n)),
        )

    def top_lines(self, n: int, key: Family | MetricKey = COMBINED) -> list[tuple[int, int]]:
        """``UnitReport.top_lines`` for the combined key and n up to ``top_n``."""
        if key != COMBINED or n > self.top_n:
            raise ValueError(
                f"a summary holds only the top {self.top_n} combined lines, "
                f"not the top {n} by {key}"
            )
        return list(self.top_rows[:n])


@dataclass(frozen=True)
class Diagnostic:
    path: str
    error: str


@dataclass(frozen=True)
class ProjectReport:
    units: tuple[UnitReport | UnitSummary, ...]
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
    return analyze_source(SourceUnit.from_text(path, text), operator_set)


def analyze_source(unit: SourceUnit, operator_set: OperatorSet) -> UnitReport:
    """``analyze_unit`` on a unit already scanned, for callers that also
    render its lines."""
    spans = locate_bodies(unit)
    relevant = relevant_lines(unit, spans)
    mutants = find_mutation_sites(unit, spans, operator_set)
    return build_unit_report(unit, relevant, mutants)


def aggregate_project(
    unit_reports: Sequence[UnitReport | UnitSummary], diagnostics: Sequence[Diagnostic] = ()
) -> ProjectReport:
    """Sort units by path and attach the catalog and tool version."""
    ordered = tuple(sorted(unit_reports, key=lambda u: u.path))
    seen: set[str] = set()
    for u in ordered:
        if u.path in seen:
            raise errors.DuplicatePath(f"unit path appears twice: {u.path}")
        seen.add(u.path)
    return ProjectReport(units=ordered, diagnostics=tuple(diagnostics))


def _unit_value(unit: UnitReport | UnitSummary, key: Family | MetricKey) -> Fraction:
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


def top_lines(
    report: ProjectReport, n: int, key: Family | MetricKey = COMBINED
) -> list[tuple[str, int, int]]:
    """The n highest-density relevant lines project-wide.

    Zero-density lines never qualify, so fewer than n entries may return.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rows = [
        (u.path, line, value)
        for u in report.units
        for line, value in u.top_lines(n, key)
    ]
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    return rows[:n]
