"""Density metrics: per-line counts, per-unit averages, project aggregates.

Averages are exact rationals (``fractions.Fraction``); rounding happens only
at serialization time.  The per-unit average divides by the count of
relevant lines, so blank padding and non-method regions never dilute the
metric; both the relevant and physical line counts are carried so either
reading can be recomputed downstream.
"""

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

from mutdense import errors
from mutdense.fault_model import Family, Mutant, OperatorSet, find_mutation_sites
from mutdense.source_model import LineSet, SourceUnit, locate_bodies, relevant_lines

_FAMILIES = tuple(Family)
_FAMILY_INDEX = {fam: k for k, fam in enumerate(_FAMILIES)}


class _UnitAverages:
    """Averages of a unit that carries ``relevant_line_count`` and
    ``mutant_count_by_family``: each family's mutant count over the relevant
    line count, 0 when no line is relevant.  Every mutant sits on a relevant
    line, so this is the mean of the family's per-line counts over them.
    """

    __slots__ = ()

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
        if self.empty:
            return Fraction(0)
        return Fraction(sum(self.mutant_count_by_family.values()), self.relevant_line_count)


class _ReportFields(NamedTuple):
    path: str
    physical_line_count: int
    relevant_lines: frozenset[int]
    mutants: tuple[Mutant, ...]


class UnitReport(_ReportFields, _UnitAverages):
    """What analysis found in one unit: its relevant lines and its mutants.

    Every mutant must sit on a relevant line; a report that breaks this
    span/relevance contract raises MutantOnIrrelevantLine.  Per-line
    counts, per-family counts and averages are derived from the four
    fields on first read and kept in the instance ``__dict__``.
    """

    def __new__(cls, path: str, physical_line_count: int, relevant_lines: frozenset[int],
                mutants: tuple[Mutant, ...]) -> "UnitReport":
        for m in mutants:
            if m.line not in relevant_lines:
                raise errors.MutantOnIrrelevantLine(
                    f"{m.operator_id} mutant on non-relevant line {m.line} of {path}"
                )
        return tuple.__new__(cls, (path, physical_line_count, relevant_lines, mutants))

    # _replace builds its copy through _make, which would skip __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

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
    def mutant_count_by_family(self) -> dict[Family, int]:
        counts = dict.fromkeys(_FAMILIES, 0)
        for m in self.mutants:
            counts[m.family] += 1
        return counts

    def top_lines(self, n: int) -> list[tuple[int, int]]:
        """The unit's n lines with the most mutants as (line, count), ties by
        line.  Only lines that host a mutant qualify; all are relevant.
        """
        rows = [(ln, sum(per_family)) for ln, per_family in self.line_counts.items()]
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows[:n]


class _SummaryFields(NamedTuple):
    path: str
    relevant_line_count: int
    traditional: int
    null_type: int
    top_n: int = 0
    top_rows: tuple[tuple[int, int], ...] = ()
    json: bytes | None = None


class UnitSummary(_SummaryFields, _UnitAverages):
    """The part of a unit that the text table, the bar chart and the
    threshold gate read, with the report's top ``top_n`` combined-density
    lines, and ``json``, the unit's ``project.json`` entry when one was
    built.  ``mutdense analyze`` keeps this of each unit in place of the
    UnitReport, which stays in the worker that built it.  Its fields are
    plain values, so it crosses a process pipe with no ``Family`` member.
    """

    @classmethod
    def from_report(cls, report: UnitReport, top_n: int = 0,
                    json: bytes | None = None) -> "UnitSummary":
        counts = report.mutant_count_by_family
        return cls(
            path=report.path,
            relevant_line_count=report.relevant_line_count,
            traditional=counts[Family.TRADITIONAL],
            null_type=counts[Family.NULL_TYPE],
            top_n=top_n,
            top_rows=tuple(report.top_lines(top_n)),
            json=json,
        )

    @property
    def mutant_count_by_family(self) -> dict[Family, int]:
        return {Family.TRADITIONAL: self.traditional, Family.NULL_TYPE: self.null_type}

    def top_lines(self, n: int) -> list[tuple[int, int]]:
        """``UnitReport.top_lines`` for n up to ``top_n``."""
        if n > self.top_n:
            raise ValueError(
                f"a summary holds only the top {self.top_n} lines, not the top {n}"
            )
        return list(self.top_rows[:n])


class Diagnostic(NamedTuple):
    path: str
    error: str


class ProjectReport(NamedTuple):
    units: tuple[UnitReport | UnitSummary, ...]
    diagnostics: tuple[Diagnostic, ...]


def build_unit_report(
    unit: SourceUnit, relevant: LineSet, mutants: Sequence[Mutant]
) -> UnitReport:
    """Assemble the per-unit report from the analysis parts."""
    return UnitReport(
        path=unit.path,
        physical_line_count=len(unit.tokens.line_starts),
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
    unit_reports: Sequence[UnitReport | UnitSummary], diagnostics: Sequence[Diagnostic] = ()
) -> ProjectReport:
    """Sort units by path; a path that appears twice raises DuplicatePath."""
    ordered = tuple(sorted(unit_reports, key=lambda u: u.path))
    seen: set[str] = set()
    for u in ordered:
        if u.path in seen:
            raise errors.DuplicatePath(f"unit path appears twice: {u.path}")
        seen.add(u.path)
    return ProjectReport(units=ordered, diagnostics=tuple(diagnostics))


def rank_units(report: ProjectReport) -> list[tuple[str, Fraction]]:
    """Units by descending combined average; ties broken by ascending path."""
    pairs = [(u.path, u.avg_density_combined) for u in report.units]
    pairs.sort(key=lambda pv: (-pv[1], pv[0]))
    return pairs


def top_lines(report: ProjectReport, n: int) -> list[tuple[str, int, int]]:
    """The n lines with the most mutants project-wide.

    Lines without a mutant never qualify, so fewer than n entries may return.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rows = [
        (u.path, line, value)
        for u in report.units
        for line, value in u.top_lines(n)
    ]
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    return rows[:n]
