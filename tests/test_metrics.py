"""Per-line counts, exact averages, aggregation, rankings."""

from __future__ import annotations

import json
import pickle
import random
from fractions import Fraction

import pytest

from mutdense import errors
from mutdense.fault_model import Family, Mutant, OperatorSet, find_mutation_sites
from mutdense.metrics import (
    Diagnostic,
    ProjectReport,
    UnitReport,
    UnitSummary,
    aggregate_project,
    build_unit_report,
    rank_units,
    top_lines,
)
from mutdense.reporting import emit_unit_json
from mutdense.scanner import split_lines
from mutdense.source_model import locate_bodies, relevant_lines
from conftest import (
    ALPHA_SRC,
    BETA_SRC,
    FACTORIAL_LOOP_LINE,
    FACTORIAL_SRC,
    GAMMA_SRC,
    INTERFACE_SRC,
    SHAPE_HOT_COUNT,
    SHAPE_HOT_LINE,
    SHAPE_SRC,
    gen_mixed_unit,
    make_unit,
    project_json,
)

BOTH = OperatorSet.default()


def analyzed(src, path="U.java"):
    unit = make_unit(src, path)
    spans = locate_bodies(unit)
    relevant = relevant_lines(unit, spans)
    mutants = find_mutation_sites(unit, spans, BOTH)
    return unit, relevant, mutants


def report_for(src, path="U.java"):
    unit, relevant, mutants = analyzed(src, path)
    return build_unit_report(unit, relevant, mutants)


def fake_mutant(line, family=Family.TRADITIONAL, column=1):
    return Mutant(
        operator_id="ROR" if family is Family.TRADITIONAL else "NNC",
        family=family,
        line=line,
        column=column,
        start=0,
        end=1,
        original="<",
        replacement=">=",
    )


# ---------------------------------------------------------------------------
# per-line counts
# ---------------------------------------------------------------------------


def test_factorial_loop_line_density_is_two():
    report = report_for(FACTORIAL_SRC)
    assert report.line_counts[FACTORIAL_LOOP_LINE] == (2, 0)  # traditional, null-type


def test_blank_line_has_zero_density_and_no_relevance():
    src = "class A {\n    int f() {\n\n        return 1;\n    }\n}\n"
    unit, relevant, mutants = analyzed(src)
    report = build_unit_report(unit, relevant, mutants)
    assert 3 not in report.relevant_lines
    assert 3 not in report.line_counts
    assert report.physical_line_count == len(split_lines(unit.text))


def test_null_check_line_density_splits_families():
    src = "class T {\n    void m() {\n        if (x == null) y = a + b;\n    }\n}\n"
    assert report_for(src).line_counts[3] == (2, 1)


def test_mutant_on_irrelevant_line_is_a_contract_violation():
    unit, relevant, _ = analyzed(ALPHA_SRC)
    stray = fake_mutant(line=1)  # class header: never relevant
    with pytest.raises(errors.MutantOnIrrelevantLine):
        build_unit_report(unit, relevant, [stray])
    # the report itself holds the contract, however it is built
    with pytest.raises(errors.MutantOnIrrelevantLine, match="line 1 of U.java"):
        UnitReport("U.java", len(split_lines(unit.text)), relevant.relevant, (stray,))
    # a copy with a field changed is checked too
    report = UnitReport("U.java", len(split_lines(unit.text)), relevant.relevant, ())
    with pytest.raises(errors.MutantOnIrrelevantLine):
        report._replace(mutants=(stray,))


def test_totals_equal_family_sums():
    unit, relevant, mutants = analyzed(BETA_SRC)
    report = build_unit_report(unit, relevant, mutants)
    assert report.line_counts
    for line, per_family in report.line_counts.items():
        assert line in relevant.relevant
        assert sum(per_family) == sum(1 for m in mutants if m.line == line)


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------


def test_average_of_two_zero_one_is_one():
    mutants = (fake_mutant(1), fake_mutant(1, column=2), fake_mutant(3))
    report = UnitReport("U.java", 3, frozenset({1, 2, 3}), mutants)
    assert report.avg_density_combined == Fraction(1)


def test_average_with_no_relevant_lines_is_zero_and_flagged_empty():
    bare = UnitReport("U.java", 2, frozenset(), ())
    assert bare.avg_density_combined == Fraction(0)
    assert bare.empty is True
    report = report_for(INTERFACE_SRC)
    assert report.relevant_line_count == 0
    assert report.avg_density_combined == 0
    assert report.empty is True


def test_single_relevant_line_with_density_two_averages_two():
    report = UnitReport("U.java", 1, frozenset({1}), (fake_mutant(1), fake_mutant(1, column=2)))
    assert report.avg_density_combined == Fraction(2)


def test_average_identity_on_fixtures():
    for src in (FACTORIAL_SRC, ALPHA_SRC, BETA_SRC, GAMMA_SRC, SHAPE_SRC):
        report = report_for(src)
        for fam in Family:
            assert (
                report.avg_density_by_family[fam] * report.relevant_line_count
                == report.mutant_count_by_family[fam]
            )
        assert report.avg_density_combined == sum(
            report.avg_density_by_family.values(), Fraction(0)
        )


def test_average_identity_over_generated_units():
    rng = random.Random(2024)
    for idx in range(25):
        path, src = gen_mixed_unit(rng, idx)
        report = report_for(src, path)
        total = sum(report.mutant_count_by_family.values())
        assert report.avg_density_combined * report.relevant_line_count == total
        if report.relevant_line_count == 0:
            assert total == 0 and report.empty


def test_hand_computed_fixture_averages():
    assert report_for(ALPHA_SRC).avg_density_combined == Fraction(1, 3)
    beta = report_for(BETA_SRC)
    assert beta.avg_density_by_family[Family.TRADITIONAL] == Fraction(1, 6)
    assert beta.avg_density_by_family[Family.NULL_TYPE] == Fraction(3, 6)
    assert beta.avg_density_combined == Fraction(4, 6)
    assert report_for(GAMMA_SRC).avg_density_combined == Fraction(4, 5)


# ---------------------------------------------------------------------------
# aggregation and rankings
# ---------------------------------------------------------------------------


def test_aggregate_empty():
    report = aggregate_project([])
    assert report.units == () and report.diagnostics == ()
    assert report == ProjectReport((), ())
    assert len(json.loads(project_json(report))["operators"]) == 12


def test_aggregate_sorts_and_rejects_duplicates():
    b = report_for(ALPHA_SRC, "b/Unit.java")
    a = report_for(ALPHA_SRC, "a/Unit.java")
    assert [u.path for u in aggregate_project([b, a]).units] == [
        "a/Unit.java",
        "b/Unit.java",
    ]
    with pytest.raises(errors.DuplicatePath):
        aggregate_project([a, a])


def test_aggregate_keeps_diagnostics():
    ok = report_for(ALPHA_SRC, "Alpha.java")
    diag = Diagnostic("Broken.java", "unterminated block comment")
    report = aggregate_project([ok], [diag])
    assert len(report.units) == 1
    assert report.diagnostics == (diag,)


def test_rank_units_descending_with_path_tiebreak():
    reports = [
        report_for(ALPHA_SRC, "A.java"),
        report_for(GAMMA_SRC, "B.java"),
        report_for(ALPHA_SRC, "C.java"),
    ]
    ranked = rank_units(aggregate_project(reports))
    assert [p for p, _ in ranked] == ["B.java", "A.java", "C.java"]
    values = [v for _, v in ranked]
    assert values == sorted(values, reverse=True)


def test_rank_matches_hand_computation():
    reports = [
        report_for(ALPHA_SRC, "Alpha.java"),
        report_for(BETA_SRC, "Beta.java"),
        report_for(GAMMA_SRC, "Gamma.java"),
    ]
    ranked = rank_units(aggregate_project(reports))
    assert ranked == [
        ("Gamma.java", Fraction(4, 5)),
        ("Beta.java", Fraction(2, 3)),
        ("Alpha.java", Fraction(1, 3)),
    ]


def test_top_lines_rules():
    report = aggregate_project(
        [report_for(SHAPE_SRC, "Shape.java"), report_for(ALPHA_SRC, "Alpha.java")]
    )
    best = top_lines(report, 1)
    assert best == [("Shape.java", SHAPE_HOT_LINE, SHAPE_HOT_COUNT)]
    everything = top_lines(report, 99)
    assert all(v > 0 for _, _, v in everything)
    values = [v for _, _, v in everything]
    assert values == sorted(values, reverse=True)
    assert top_lines(aggregate_project([]), 5) == []
    with pytest.raises(ValueError):
        top_lines(report, 0)


_JSON_FAMILY = {Family.TRADITIONAL: "traditional", Family.NULL_TYPE: "nullType"}


def _json_rows(report):
    """The unit's per-line rows as its ``project.json`` entry writes them."""
    return json.loads(emit_unit_json(report))["lines"]


def _json_top_lines(project, n):
    """top_lines as read from every unit's ``project.json`` rows."""
    rows = [
        (u.path, row["line"], row["total"])
        for u in project.units
        for row in _json_rows(u)
        if row["relevant"] and row["total"] > 0
    ]
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    return rows[:n]


def test_averages_and_top_lines_match_the_per_line_rows():
    rng = random.Random(77)
    sources = [ALPHA_SRC, BETA_SRC, GAMMA_SRC, SHAPE_SRC, FACTORIAL_SRC, INTERFACE_SRC]
    sources += [gen_mixed_unit(rng, idx)[1] for idx in range(25)]
    reports = [report_for(src, f"U{k}.java") for k, src in enumerate(sources)]
    for report in reports:
        relevant_rows = [row for row in _json_rows(report) if row["relevant"]]

        def per_row_average(column):
            total = sum(row[column] for row in relevant_rows)
            return Fraction(total, len(relevant_rows)) if relevant_rows else 0

        for fam in Family:
            assert report.avg_density_by_family[fam] == per_row_average(_JSON_FAMILY[fam])
        assert report.avg_density_combined == per_row_average("total")
    project = aggregate_project(reports)
    for n in (1, 3, 10, 1000):
        assert top_lines(project, n) == _json_top_lines(project, n)


def test_summary_reads_as_its_report():
    rng = random.Random(78)
    sources = [ALPHA_SRC, BETA_SRC, GAMMA_SRC, SHAPE_SRC, INTERFACE_SRC]
    sources += [gen_mixed_unit(rng, idx)[1] for idx in range(10)]
    reports = [report_for(src, f"U{k}.java") for k, src in enumerate(sources)]
    summaries = [UnitSummary.from_report(r, 4) for r in reports]
    for report, summary in zip(reports, summaries):
        assert summary.path == report.path
        assert summary.relevant_line_count == report.relevant_line_count
        assert summary.empty == report.empty
        assert summary.avg_density_by_family == report.avg_density_by_family
        assert summary.avg_density_combined == report.avg_density_combined
    by_report, by_summary = aggregate_project(reports), aggregate_project(summaries)
    for n in (1, 2, 4):
        assert top_lines(by_summary, n) == top_lines(by_report, n)
    assert rank_units(by_summary) == rank_units(by_report)
    # a summary keeps only the top rows it was built with
    with pytest.raises(ValueError):
        top_lines(by_summary, 5)


def test_summary_pickles_as_plain_values():
    """A summary crosses a process pipe as its plain fields: the pickle
    names no ``Family`` member and loads back as an equal summary."""
    summary = UnitSummary.from_report(report_for(BETA_SRC, "Beta.java"), 3)
    assert summary.traditional and summary.null_type and summary.top_rows
    data = pickle.dumps(summary)
    assert b"Family" not in data and b"fault_model" not in data
    clone = pickle.loads(data)
    assert type(clone) is UnitSummary and clone == summary
    assert clone.mutant_count_by_family == summary.mutant_count_by_family
    assert clone.avg_density_by_family == summary.avg_density_by_family


# ---------------------------------------------------------------------------
# metric properties
# ---------------------------------------------------------------------------


def test_conservation_of_mutant_counts():
    for src in (FACTORIAL_SRC, BETA_SRC, SHAPE_SRC):
        unit, relevant, mutants = analyzed(src)
        counts = build_unit_report(unit, relevant, mutants).line_counts
        assert sum(map(sum, counts.values())) == len(mutants)
        for k, fam in enumerate(Family):
            assert sum(per_family[k] for per_family in counts.values()) == sum(
                1 for m in mutants if m.family is fam
            )


def test_duplicating_relevant_lines_preserves_average():
    report = report_for(BETA_SRC)
    relevant, mutants, line = set(), [], 0
    for ln in range(1, report.physical_line_count + 1):
        for _ in range(2 if ln in report.relevant_lines else 1):
            line += 1
            if ln in report.relevant_lines:
                relevant.add(line)
            mutants += [m._replace(line=line) for m in report.mutants if m.line == ln]
    doubled = UnitReport("U.java", line, frozenset(relevant), tuple(mutants))
    assert doubled.relevant_line_count == 2 * report.relevant_line_count
    assert doubled.avg_density_by_family == report.avg_density_by_family
    assert doubled.avg_density_combined == report.avg_density_combined


def test_adding_a_mutant_strictly_increases_average():
    report = report_for(BETA_SRC)
    target = min(report.relevant_lines)
    grown = UnitReport(report.path, report.physical_line_count, report.relevant_lines,
                       report.mutants + (fake_mutant(target),))
    assert grown.avg_density_combined > report.avg_density_combined
