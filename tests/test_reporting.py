"""JSON schema and determinism, heatmap shading, SVG bars, text table."""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import pytest

from mutdense import errors
from mutdense.fault_model import Family, Mutant, OperatorSet, find_mutation_sites
from mutdense.metrics import (
    Diagnostic,
    UnitReport,
    UnitSummary,
    aggregate_project,
    build_unit_report,
    rank_units,
)
from mutdense.reporting import (
    DEFAULT_STYLE,
    HeatmapStyle,
    emit_json,
    emit_unit_json,
    format_density,
    json_density,
    label_2dp,
    render_barchart,
    render_heatmap,
    render_text,
)
from mutdense.source_model import locate_bodies, relevant_lines
from conftest import (
    ALPHA_SRC,
    BETA_SRC,
    FACTORIAL_LOOP_LINE,
    FACTORIAL_SRC,
    GAMMA_SRC,
    SHAPE_HOT_LINE,
    SHAPE_SRC,
    make_unit,
)

BOTH = OperatorSet.default()


def unit_and_report(src, path="U.java"):
    unit = make_unit(src, path)
    spans = locate_bodies(unit)
    mutants = find_mutation_sites(unit, spans, BOTH)
    return unit, build_unit_report(unit, relevant_lines(unit, spans), mutants)


def project_of(*pairs):
    return aggregate_project([unit_and_report(src, path)[1] for path, src in pairs])


def synthetic_report(path, trad, null):
    """A report with family averages trad and null, built from mutants on
    line 1; its relevant line count is the LCM of their denominators."""
    avg = {Family.TRADITIONAL: Fraction(trad), Family.NULL_TYPE: Fraction(null)}
    relevant = math.lcm(*(a.denominator for a in avg.values()))
    operator_id = {Family.TRADITIONAL: "ROR", Family.NULL_TYPE: "NNC"}
    mutants = tuple(
        Mutant(operator_id[fam], fam, path, line=1, column=1, start=0, end=1,
               original="<", replacement=">=")
        for fam in Family
        for _ in range(int(avg[fam] * relevant))
    )
    report = UnitReport(
        path=path,
        physical_line_count=relevant,
        relevant_lines=frozenset(range(1, relevant + 1)),
        mutants=mutants,
    )
    assert report.avg_density_by_family == avg
    return report


# ---------------------------------------------------------------------------
# rounding chain
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value,rendered",
    [
        (Fraction(1, 3), "0.3333"),
        (Fraction(7, 6), "1.1667"),
        (Fraction(2), "2.0000"),
        (Fraction(0), "0.0000"),
        (Fraction(1, 20000), "0.0000"),  # 0.00005 rounds half-to-even down
        (Fraction(3, 20000), "0.0002"),  # 0.00015 rounds half-to-even up
    ],
)
def test_format_density_half_even(value, rendered):
    assert format_density(value) == rendered
    assert json_density(value) == float(rendered)


@pytest.mark.parametrize(
    "value,label",
    [
        (Fraction(1, 8), "0.12"),  # 0.1250 -> even neighbor 0.12
        (Fraction(3, 8), "0.38"),  # 0.3750 -> even neighbor 0.38
        (Fraction(2, 3), "0.67"),
        (Fraction(3, 2), "1.50"),
        (Fraction(0), "0.00"),
    ],
)
def test_two_decimal_labels_derive_from_four_decimal_values(value, label):
    assert label_2dp(value) == label


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def test_empty_report_json_shape():
    raw = emit_json(aggregate_project([]))
    assert raw.endswith(b'"units":[],"diagnostics":[]}')
    doc = json.loads(raw)
    assert list(doc) == ["toolVersion", "operators", "units", "diagnostics"]
    assert len(doc["operators"]) == 12
    assert list(doc["operators"][0]) == ["id", "family", "description"]


def test_unit_json_key_order_and_loop_line():
    raw = emit_json(project_of(("Factorial.java", FACTORIAL_SRC)))
    unit = json.loads(raw)["units"][0]
    assert list(unit) == [
        "path",
        "physicalLineCount",
        "relevantLineCount",
        "mutants",
        "lines",
        "avg",
        "empty",
    ]
    assert list(unit["lines"][0]) == ["line", "relevant", "traditional", "nullType", "total"]
    assert list(unit["avg"]) == ["traditional", "nullType", "combined"]
    loop = unit["lines"][FACTORIAL_LOOP_LINE - 1]
    assert loop["traditional"] == 2
    assert loop["total"] == 2
    assert unit["physicalLineCount"] == len(FACTORIAL_SRC.splitlines())


def test_json_is_byte_identical_across_runs():
    a = emit_json(project_of(("Beta.java", BETA_SRC), ("Alpha.java", ALPHA_SRC)))
    b = emit_json(project_of(("Beta.java", BETA_SRC), ("Alpha.java", ALPHA_SRC)))
    assert a == b
    assert b"timestamp" not in a.lower()


def test_json_handles_non_ascii_paths():
    raw = emit_json(project_of(("src/Grön.java", ALPHA_SRC)))
    assert json.loads(raw)["units"][0]["path"] == "src/Grön.java"


def test_joined_fragments_equal_one_document():
    project = aggregate_project(
        [unit_and_report(src, path)[1] for path, src in
         (("Beta.java", BETA_SRC), ("src/Grön.java", ALPHA_SRC), ("Shape.java", SHAPE_SRC))],
        [Diagnostic('a "b".java', "not valid UTF-8"), Diagnostic("ü.java", "x")],
    )
    whole = json.dumps(
        {
            "toolVersion": project.tool_version,
            "operators": json.loads(emit_json(aggregate_project([])))["operators"],
            "units": [json.loads(emit_unit_json(u)) for u in project.units],
            "diagnostics": [{"path": d.path, "error": d.error} for d in project.diagnostics],
        },
        separators=(",", ":"),
        ensure_ascii=False,
    ).encode("utf-8")
    assert emit_json(project) == whole
    fragments = [emit_unit_json(u) for u in project.units]
    summaries = aggregate_project(
        [UnitSummary.from_report(u, 10) for u in project.units], project.diagnostics
    )
    assert emit_json(summaries, fragments) == whole


def test_summaries_render_as_their_reports():
    project = project_of(
        ("Beta.java", BETA_SRC), ("Alpha.java", ALPHA_SRC), ("Shape.java", SHAPE_SRC)
    )
    summaries = aggregate_project([UnitSummary.from_report(u, 3) for u in project.units])
    assert render_text(summaries, 3) == render_text(project, 3)
    assert render_barchart(summaries) == render_barchart(project)


# ---------------------------------------------------------------------------
# heatmap
# ---------------------------------------------------------------------------

IMPORT_SRC = """\
import java.util.List;

class Imp {
    int f(int a) {
        int pad;
        return a * 2;
    }
}
"""


def rows_of(doc):
    return re.findall(r"<tr[^>]*>.*?</tr>", doc)


def test_heatmap_gray_white_and_ramp():
    unit, report = unit_and_report(IMPORT_SRC)
    doc = render_heatmap(unit, report)
    rows = rows_of(doc)
    assert len(rows) == len(unit.lines)
    assert DEFAULT_STYLE.gray_color in rows[0]          # import line
    assert '<td class="badge"></td>' in rows[0]          # no badge when gray
    assert "#ffffff" in rows[4]                          # relevant, density 0
    assert DEFAULT_STYLE.color_stops[0][1] in rows[5]    # density 1 -> first stop


def test_heatmap_hot_line_uses_strongest_stop():
    unit, report = unit_and_report(SHAPE_SRC)
    doc = render_heatmap(unit, report)
    assert DEFAULT_STYLE.color_stops[-1][1] in rows_of(doc)[SHAPE_HOT_LINE - 1]


def test_heatmap_lists_mutants_on_hover():
    unit, report = unit_and_report(FACTORIAL_SRC)
    doc = render_heatmap(unit, report)
    loop_row = rows_of(doc)[FACTORIAL_LOOP_LINE - 1]
    assert "ROR: &lt; -&gt; &gt;=" in loop_row
    assert "AOR-S: ++ -&gt; --" in loop_row


def test_heatmap_escapes_hostile_source():
    src = (
        "class X {\n"
        "    String f() {\n"
        '        return "<script>alert(\'p\')</script>" + "&amp;";\n'
        "    }\n"
        "}\n"
    )
    unit, report = unit_and_report(src)
    doc = render_heatmap(unit, report)
    assert "<script>" not in doc
    assert "&lt;script&gt;" in doc
    # a title attribute embedding quotes must not terminate early
    assert re.search(r'title="[^"]*&quot;', doc) or "&#x27;" in doc


def test_heatmap_is_self_contained():
    unit, report = unit_and_report(ALPHA_SRC)
    doc = render_heatmap(unit, report)
    assert doc.startswith("<!DOCTYPE html>")
    assert "<style>" in doc
    for marker in ("http://", "https://", "src=", "href="):
        assert marker not in doc


def test_style_requires_increasing_thresholds():
    with pytest.raises(ValueError):
        HeatmapStyle(color_stops=((3, "#aaa"), (1, "#bbb")))
    custom = HeatmapStyle(color_stops=((2, "#123456"),), gray_color="#eeeeee")
    assert custom.shade(False, 0) == "#eeeeee"
    assert custom.shade(True, 0) == "#ffffff"
    assert custom.shade(True, 1) == "#ffffff"
    assert custom.shade(True, 2) == "#123456"


# ---------------------------------------------------------------------------
# bar chart
# ---------------------------------------------------------------------------

_RECT = re.compile(r'<rect class="bar (traditional|null-type)"[^>]*width="([0-9.]+)"[^>]*fill="(gray|black)"')


def test_barchart_requires_units():
    with pytest.raises(errors.EmptyProject):
        render_barchart(aggregate_project([]))


def test_barchart_ratio_and_fills():
    report = aggregate_project([synthetic_report("One.java", Fraction(3, 2), Fraction(1, 2))])
    svg = render_barchart(report)
    bars = _RECT.findall(svg)
    assert [(fam, fill) for fam, _, fill in bars] == [
        ("traditional", "gray"),
        ("null-type", "black"),
    ]
    widths = [float(w) for _, w, _ in bars]
    assert widths[0] == pytest.approx(3 * widths[1], abs=1.0)
    assert ">1.50<" in svg and ">0.50<" in svg


def test_barchart_zero_value_prints_zero_label():
    report = aggregate_project([synthetic_report("NoNull.java", Fraction(1), Fraction(0))])
    svg = render_barchart(report)
    bars = _RECT.findall(svg)
    assert float(bars[1][1]) == 0.0
    assert ">0.00<" in svg


def test_barchart_order_matches_ranking():
    project = project_of(
        ("Alpha.java", ALPHA_SRC), ("Beta.java", BETA_SRC), ("Gamma.java", GAMMA_SRC)
    )
    svg = render_barchart(project)
    shown = re.findall(r'<g data-path="([^"]+)">', svg)
    assert shown == [p for p, _ in rank_units(project)]
    assert shown == ["Gamma.java", "Beta.java", "Alpha.java"]


def test_barchart_labels_match_json_rounding():
    project = project_of(("Beta.java", BETA_SRC))
    svg = render_barchart(project)
    doc = json.loads(emit_json(project))
    avg = doc["units"][0]["avg"]
    labels = re.findall(r">([0-9]+\.[0-9]{2})<", svg)
    for key in ("traditional", "nullType"):
        expected = label_2dp(Fraction(str(avg[key])))
        assert expected in labels


# ---------------------------------------------------------------------------
# text
# ---------------------------------------------------------------------------


def test_text_empty_report():
    out = render_text(aggregate_project([]), 10)
    assert "no units analyzed" in out


def test_text_matches_json_after_rounding():
    project = project_of(("Beta.java", BETA_SRC), ("Gamma.java", GAMMA_SRC))
    out = render_text(project, 10)
    doc = json.loads(emit_json(project))
    for unit in doc["units"]:
        row = next(line for line in out.splitlines() if line.startswith(unit["path"]))
        cells = row.split()
        assert float(cells[-3]) == unit["avg"]["traditional"]
        assert float(cells[-2]) == unit["avg"]["nullType"]
        assert float(cells[-1]) == unit["avg"]["combined"]
        assert int(cells[-4]) == unit["relevantLineCount"]


def test_text_top_section_toggles():
    project = project_of(("Shape.java", SHAPE_SRC))
    with_top = render_text(project, 3)
    assert "top 3 lines" in with_top
    assert f"Shape.java:{SHAPE_HOT_LINE}" in with_top
    without = render_text(project, 0)
    assert "top" not in without.lower()


def test_text_lists_diagnostics():
    from mutdense.metrics import Diagnostic

    project = aggregate_project(
        [synthetic_report("Ok.java", Fraction(1), Fraction(0))],
        [Diagnostic("Bad.java", "unterminated block comment")],
    )
    out = render_text(project, 0)
    assert "Bad.java: unterminated block comment" in out
