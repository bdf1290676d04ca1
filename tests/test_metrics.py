"""Per-line densities, exact averages, aggregation, rankings."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from mutdense import errors
from mutdense.fault_model import Family, Mutant, OperatorSet, find_mutation_sites
from mutdense.metrics import (
    Diagnostic,
    LineDensity,
    UnitReport,
    UnitSummary,
    aggregate_project,
    average_density,
    build_unit_report,
    line_densities,
    rank_units,
    top_lines,
)
from mutdense.source_model import LineSet, locate_bodies, relevant_lines
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


def fake_density(line, relevant, traditional=0, null_type=0):
    return LineDensity(
        line=line,
        relevant=relevant,
        count_by_family={Family.TRADITIONAL: traditional, Family.NULL_TYPE: null_type},
        total=traditional + null_type,
    )


def fake_mutant(line, family=Family.TRADITIONAL, column=1):
    return Mutant(
        operator_id="ROR" if family is Family.TRADITIONAL else "NNC",
        family=family,
        unit_path="U.java",
        line=line,
        column=column,
        start=0,
        end=1,
        original="<",
        replacement=">=",
    )


# ---------------------------------------------------------------------------
# line densities
# ---------------------------------------------------------------------------


def test_factorial_loop_line_density_is_two():
    unit, relevant, mutants = analyzed(FACTORIAL_SRC)
    densities = line_densities(unit, relevant, mutants)
    loop = densities[FACTORIAL_LOOP_LINE - 1]
    assert loop.total == 2
    assert loop.count_by_family[Family.TRADITIONAL] == 2
    assert loop.count_by_family[Family.NULL_TYPE] == 0


def test_blank_line_has_zero_density_and_no_relevance():
    src = "class A {\n    int f() {\n\n        return 1;\n    }\n}\n"
    unit, relevant, mutants = analyzed(src)
    densities = line_densities(unit, relevant, mutants)
    blank = densities[2]
    assert (blank.relevant, blank.total) == (False, 0)
    assert len(densities) == len(unit.lines)


def test_null_check_line_density_splits_families():
    src = "class T {\n    void m() {\n        if (x == null) y = a + b;\n    }\n}\n"
    unit, relevant, mutants = analyzed(src)
    line = line_densities(unit, relevant, mutants)[2]
    assert line.count_by_family[Family.TRADITIONAL] == 2
    assert line.count_by_family[Family.NULL_TYPE] == 1
    assert line.total == 3


def test_mutant_on_irrelevant_line_is_a_contract_violation():
    unit, relevant, _ = analyzed(ALPHA_SRC)
    stray = fake_mutant(line=1)  # class header: never relevant
    with pytest.raises(errors.MutantOnIrrelevantLine):
        line_densities(unit, relevant, [stray])
    # the report itself holds the contract, however it is built
    with pytest.raises(errors.MutantOnIrrelevantLine, match="line 1 of U.java"):
        UnitReport("U.java", len(unit.lines), relevant.relevant, (stray,))


def test_totals_equal_family_sums():
    unit, relevant, mutants = analyzed(BETA_SRC)
    for d in line_densities(unit, relevant, mutants):
        assert d.total == sum(d.count_by_family.values())
        if not d.relevant:
            assert d.total == 0


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------


def test_average_of_two_zero_one_is_one():
    densities = [
        fake_density(1, True, traditional=2),
        fake_density(2, True),
        fake_density(3, True, traditional=1),
    ]
    assert average_density(densities) == Fraction(1)


def test_average_with_no_relevant_lines_is_zero_and_flagged_empty():
    densities = [fake_density(1, False), fake_density(2, False)]
    assert average_density(densities) == Fraction(0)
    report = report_for(INTERFACE_SRC)
    assert report.relevant_line_count == 0
    assert report.avg_density_combined == 0
    assert report.empty is True


def test_single_relevant_line_with_density_two_averages_two():
    densities = [fake_density(1, True, traditional=2)]
    assert average_density(densities) == Fraction(2)


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
    assert len(report.operator_catalog) == 12


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


def _line_density_top_lines(report, n, key):
    """top_lines as read from every unit's per-line rows."""
    def value(d):
        return d.total if key == "combined" else d.count_by_family[Family(key)]

    rows = [
        (u.path, d.line, value(d))
        for u in report.units
        for d in u.line_densities
        if d.relevant and value(d) > 0
    ]
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    return rows[:n]


def test_averages_and_top_lines_match_the_per_line_rows():
    rng = random.Random(77)
    sources = [ALPHA_SRC, BETA_SRC, GAMMA_SRC, SHAPE_SRC, FACTORIAL_SRC, INTERFACE_SRC]
    sources += [gen_mixed_unit(rng, idx)[1] for idx in range(25)]
    reports = [report_for(src, f"U{k}.java") for k, src in enumerate(sources)]
    for report in reports:
        for fam in Family:
            assert report.avg_density_by_family[fam] == average_density(
                report.line_densities, fam
            )
        assert report.avg_density_combined == average_density(report.line_densities)
    project = aggregate_project(reports)
    for key in ("combined", *(f.value for f in Family)):
        for n in (1, 3, 10, 1000):
            assert top_lines(project, n, key) == _line_density_top_lines(project, n, key)


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
    # a summary keeps only the combined top rows it was built with
    with pytest.raises(ValueError):
        top_lines(by_summary, 5)
    with pytest.raises(ValueError):
        top_lines(by_summary, 2, Family.TRADITIONAL)


# ---------------------------------------------------------------------------
# metric properties
# ---------------------------------------------------------------------------


def test_conservation_of_mutant_counts():
    for src in (FACTORIAL_SRC, BETA_SRC, SHAPE_SRC):
        unit, relevant, mutants = analyzed(src)
        densities = line_densities(unit, relevant, mutants)
        assert sum(d.total for d in densities) == len(mutants)
        for fam in Family:
            assert sum(d.count_by_family[fam] for d in densities) == sum(
                1 for m in mutants if m.family is fam
            )


def test_duplicating_relevant_lines_preserves_average():
    unit, relevant, mutants = analyzed(BETA_SRC)
    densities = line_densities(unit, relevant, mutants)
    doubled = []
    next_line = 1
    for d in densities:
        copies = 2 if d.relevant else 1
        for _ in range(copies):
            doubled.append(
                LineDensity(next_line, d.relevant, dict(d.count_by_family), d.total)
            )
            next_line += 1
    assert average_density(doubled) == average_density(densities)
    for fam in Family:
        assert average_density(doubled, fam) == average_density(densities, fam)


def test_adding_a_mutant_strictly_increases_average():
    unit, relevant, mutants = analyzed(BETA_SRC)
    base = average_density(line_densities(unit, relevant, mutants))
    target = min(relevant.relevant)
    grown = line_densities(unit, relevant, mutants + [fake_mutant(target)])
    assert average_density(grown) > base
