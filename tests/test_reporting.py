"""JSON schema and determinism, heatmap shading, SVG bars, text table."""

from __future__ import annotations

import html
import json
import math
import random
import re
from fractions import Fraction

import pytest

from mutdense import errors
from mutdense._version import VERSION
from mutdense.fault_model import Family, Mutant, OperatorSet, find_mutation_sites
from mutdense.metrics import (
    Diagnostic,
    UnitReport,
    UnitSummary,
    aggregate_project,
    analyze_unit,
    build_unit_report,
    rank_units,
)
from mutdense.reporting import (
    _HEATMAP_CSS,
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
from mutdense.scanner import split_lines
from mutdense.source_model import locate_bodies, relevant_lines
from conftest import (
    ALPHA_SRC,
    BETA_SRC,
    FACTORIAL_LOOP_LINE,
    FACTORIAL_SRC,
    GAMMA_SRC,
    SHAPE_HOT_LINE,
    SHAPE_SRC,
    SOUP_ALPHABET,
    gen_mixed_unit,
    make_unit,
    project_json,
    seeded_soups,
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
        Mutant(operator_id[fam], fam, line=1, column=1, start=0, end=1,
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


def _fraction_density(value: Fraction, places: int = 4) -> str:
    # the reference: Fraction arithmetic and Fraction.__round__
    q = round(value * 10**places)
    return f"{q // 10**places}.{q % 10**places:0{places}d}"


def _fraction_label(value: Fraction) -> str:
    q2 = round(Fraction(round(value * 10**4), 100))
    return f"{q2 // 100}.{q2 % 100:02d}"


def _density_pairs():
    """(mutants, relevant lines): every exact tie at 4 places up to a
    density of 1 and at 2 places up to 2, each also with both terms
    doubled or tripled, then seeded pairs."""
    for k in range(10000):
        yield 2 * k + 1, 20000
        yield 4 * k + 2, 40000
    for k in range(200):
        yield 2 * k + 1, 200
        yield 6 * k + 3, 600
    rng = random.Random(7)
    for _ in range(10000):
        n = rng.choice((rng.randint(1, 60), rng.randint(1, 10**6)))
        yield rng.randint(0, 5 * n), n


def test_integer_rounding_equals_fraction_rounding():
    ties = [0, 0]  # at 4 places, at 2
    for m, n in _density_pairs():
        value = Fraction(m, n)
        for places in (2, 4):
            assert format_density(value, places) == _fraction_density(value, places), (m, n)
        assert json_density(value) == float(_fraction_density(value)), (m, n)
        assert label_2dp(value) == _fraction_label(value), (m, n)
        ties[0] += (value * 10**4).denominator == 2
        ties[1] += (value * 10**2).denominator == 2
    assert ties[0] >= 20000 and ties[1] >= 400


def test_text_densities_equal_the_averages_formatted():
    """The text table, the JSON averages and the heatmap summary format
    each unit's counts directly; they must read as its averages would."""
    rng = random.Random(11)
    units = [UnitSummary(f"U{k}.java", rng.choice((0, rng.randint(1, 400))),
                         rng.randint(0, 900), rng.randint(0, 300))
             for k in range(2000)]
    rows = render_text(aggregate_project(units), 0).splitlines()[2:]
    for unit, row in zip(sorted(units, key=lambda u: u.path), rows):
        avg = unit.avg_density_by_family
        expected = [_fraction_density(avg[Family.TRADITIONAL]),
                    _fraction_density(avg[Family.NULL_TYPE]),
                    _fraction_density(sum(avg.values(), Fraction(0)))]
        assert row.split()[2:] == expected
        assert unit.avg_density_combined == sum(avg.values(), Fraction(0))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def test_empty_report_json_shape():
    raw = project_json(aggregate_project([]))
    assert raw.endswith(b'"units":[],"diagnostics":[]}')
    doc = json.loads(raw)
    assert list(doc) == ["toolVersion", "operators", "units", "diagnostics"]
    assert len(doc["operators"]) == 12
    assert list(doc["operators"][0]) == ["id", "family", "description"]


def test_unit_json_key_order_and_loop_line():
    raw = project_json(project_of(("Factorial.java", FACTORIAL_SRC)))
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
    a = project_json(project_of(("Beta.java", BETA_SRC), ("Alpha.java", ALPHA_SRC)))
    b = project_json(project_of(("Beta.java", BETA_SRC), ("Alpha.java", ALPHA_SRC)))
    assert a == b
    assert b"timestamp" not in a.lower()


def test_json_handles_non_ascii_paths():
    raw = project_json(project_of(("src/Grön.java", ALPHA_SRC)))
    assert json.loads(raw)["units"][0]["path"] == "src/Grön.java"


def test_joined_fragments_equal_one_document():
    project = aggregate_project(
        [unit_and_report(src, path)[1] for path, src in
         (("Beta.java", BETA_SRC), ("src/Grön.java", ALPHA_SRC), ("Shape.java", SHAPE_SRC))],
        [Diagnostic('a "b".java', "not valid UTF-8"), Diagnostic("ü.java", "x")],
    )
    whole = json.dumps(
        {
            "toolVersion": VERSION,
            "operators": json.loads(project_json(aggregate_project([])))["operators"],
            "units": [json.loads(emit_unit_json(u)) for u in project.units],
            "diagnostics": [{"path": d.path, "error": d.error} for d in project.diagnostics],
        },
        separators=(",", ":"),
        ensure_ascii=False,
    ).encode("utf-8")
    fragments = [emit_unit_json(u) for u in project.units]
    assert emit_json(project, fragments) == whole
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
    doc = render_heatmap(report, unit.text)
    rows = rows_of(doc)
    assert len(rows) == len(split_lines(unit.text))
    assert DEFAULT_STYLE.gray_color in rows[0]          # import line
    assert '<td class="badge"></td>' in rows[0]          # no badge when gray
    assert "#ffffff" in rows[4]                          # relevant, density 0
    assert DEFAULT_STYLE.color_stops[0][1] in rows[5]    # density 1 -> first stop


def test_heatmap_hot_line_uses_strongest_stop():
    unit, report = unit_and_report(SHAPE_SRC)
    doc = render_heatmap(report, unit.text)
    assert DEFAULT_STYLE.color_stops[-1][1] in rows_of(doc)[SHAPE_HOT_LINE - 1]


def test_heatmap_lists_mutants_on_hover():
    unit, report = unit_and_report(FACTORIAL_SRC)
    doc = render_heatmap(report, unit.text)
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
    doc = render_heatmap(report, unit.text)
    assert "<script>" not in doc
    assert "&lt;script&gt;" in doc
    # a title attribute embedding quotes must not terminate early
    assert re.search(r'title="[^"]*&quot;', doc) or "&#x27;" in doc


def test_heatmap_is_self_contained():
    unit, report = unit_and_report(ALPHA_SRC)
    doc = render_heatmap(report, unit.text)
    assert doc.startswith("<!DOCTYPE html>")
    assert "<style>" in doc
    for marker in ("http://", "https://", "src=", "href="):
        assert marker not in doc


def test_style_requires_increasing_thresholds():
    with pytest.raises(ValueError):
        HeatmapStyle(color_stops=((3, "#aaa"), (1, "#bbb")))
    custom = HeatmapStyle(color_stops=((2, "#123456"),), gray_color="#eeeeee")
    with pytest.raises(ValueError):
        custom._replace(color_stops=((3, "#aaa"), (1, "#bbb")))
    assert custom.shade(False, 0) == "#eeeeee"
    assert custom.shade(True, 0) == "#ffffff"
    assert custom.shade(True, 1) == "#ffffff"
    assert custom.shade(True, 2) == "#123456"
    # a color is '#' and 3, 4, 6 or 8 hex digits, or a name of ASCII letters
    for color in ("#fff", "#ffff", "#123456", "#12345678", "teal", "RebeccaPurple"):
        assert HeatmapStyle(((1, color),), color).shade(True, 1) == color
    for color in ("", "#", "#12", "#12345", "#1234567", "#ggg", "red;", "#fff\" x=\"",
                  "caf\u00e9", None):
        with pytest.raises(ValueError):
            HeatmapStyle(((1, color),))
        with pytest.raises(ValueError):
            custom._replace(gray_color=color)


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
    doc = json.loads(project_json(project))
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
    doc = json.loads(project_json(project))
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


# ---------------------------------------------------------------------------
# the unit entry and the heatmap against their plain reference forms
# ---------------------------------------------------------------------------


def reference_unit_json(report):
    """The unit entry built as a dict and passed through ``json.dumps``."""
    counts = report.line_counts
    rows = []
    for ln in range(1, report.physical_line_count + 1):
        traditional, null_type = counts.get(ln, (0, 0))
        rows.append({"line": ln, "relevant": ln in report.relevant_lines,
                     "traditional": traditional, "nullType": null_type,
                     "total": traditional + null_type})
    avg = report.avg_density_by_family
    doc = {
        "path": report.path,
        "physicalLineCount": report.physical_line_count,
        "relevantLineCount": report.relevant_line_count,
        "mutants": [
            {"operatorId": m.operator_id, "family": m.family.value, "line": m.line,
             "column": m.column, "original": m.original, "replacement": m.replacement}
            for m in report.mutants
        ],
        "lines": rows,
        "avg": {
            "traditional": json_density(avg[Family.TRADITIONAL]),
            "nullType": json_density(avg[Family.NULL_TYPE]),
            "combined": json_density(report.avg_density_combined),
        },
        "empty": report.empty,
    }
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def reference_heatmap(report, text, style=DEFAULT_STYLE):
    """The heatmap with each line, badge and mutant title escaped on its own."""
    lines = split_lines(text)
    rows = []
    for ln in range(1, report.physical_line_count + 1):
        traditional, null_type = report.line_counts.get(ln, (0, 0))
        relevant = ln in report.relevant_lines
        total = traditional + null_type
        source = lines[ln - 1] if ln - 1 < len(lines) else ""
        badge = f"{total} (T {traditional}, N {null_type})" if relevant else ""
        detail = "&#10;".join(
            html.escape(f"{m.operator_id}: {m.original} -> {m.replacement}", quote=True)
            for m in report.mutants if m.line == ln
        )
        title_attr = f' title="{detail}"' if detail else ""
        rows.append(
            f'<tr style="background:{style.shade(relevant, total)}"{title_attr}>'
            f'<td class="ln">{ln}</td>'
            f'<td class="badge">{html.escape(badge)}</td>'
            f"<td>{html.escape(source)}</td></tr>"
        )
    title = html.escape(report.path)
    avg = report.avg_density_by_family
    summary = html.escape(
        f"relevant lines: {report.relevant_line_count} | "
        f"avg density: traditional {format_density(avg[Family.TRADITIONAL])}, "
        f"null-type {format_density(avg[Family.NULL_TYPE])}, "
        f"combined {format_density(report.avg_density_combined)}"
    )
    return (
        "<!DOCTYPE html>\n"
        f'<html lang="en"><head><meta charset="utf-8"><title>{title}</title>'
        f"<style>{_HEATMAP_CSS}</style></head><body>\n"
        f"<h1>{title}</h1>\n<p>{summary}</p>\n<table>\n"
        + "\n".join(rows)
        + "\n</table>\n</body></html>\n"
    )


# a quote, a backslash, two control characters, a line separator, a
# character outside the BMP, and the markup characters
_AWKWARD = '"\\\x01\x7f\u2028\U0001d4b3&<>\'</td>'
_AWKWARD_LITERAL = '\\"\\\\\x01\x7f\u2028\U0001d4b3&<>\'</td>'  # the same, in a Java literal

_AWKWARD_SRC = f"""\
// {_AWKWARD} in a comment
class Awk {{
    String f(String s, int \U0001d4b3) {{
        if (s == null) return "{_AWKWARD_LITERAL}" + s;
        Object o = new Box("{_AWKWARD_LITERAL}", \U0001d4b3 < 2 ? '<' : '&');
        /* {_AWKWARD} */ int k = \U0001d4b3 >> 1 & 3;
        return s + "{_AWKWARD_LITERAL}" + k;
    }}
}}
"""


def _reference_units():
    """(text, report) for every seeded soup that analyzes, generated
    units and the hand-written ones."""
    sources = [("Soup.java", soup) for alphabet in (SOUP_ALPHABET, SOUP_ALPHABET + "\r")
               for soup in seeded_soups(alphabet)]
    rng = random.Random(43)
    sources += [gen_mixed_unit(rng, idx) for idx in range(100)]
    sources += [
        (f"src/{_AWKWARD}.java", _AWKWARD_SRC),
        (f"{_AWKWARD}/Crlf.java", _AWKWARD_SRC.replace("\n", "\r\n")),
        ("Cr.java", _AWKWARD_SRC.replace("\n", "\r") + "\r\r"),
        ("NoEnd.java", _AWKWARD_SRC.rstrip("\n")),
    ]
    for path, src in sources:
        try:
            report = analyze_unit(path, src, BOTH)
        except errors.MutdenseError:
            continue
        yield src, report


def test_unit_json_and_heatmap_equal_their_reference_forms():
    checked = 0
    kinds = set()
    for text, report in _reference_units():
        assert emit_unit_json(report) == reference_unit_json(report), report.path
        assert render_heatmap(report, text) == reference_heatmap(report, text), report.path
        checked += 1
        kinds.update(m.operator_id for m in report.mutants)
    assert checked > 100
    assert kinds >= {"NRV", "NOI", "NIV", "NNC", "ROR", "LOR", "SOR", "AOR-B"}


def test_awkward_characters_reach_the_mutant_texts():
    path = f"src/{_AWKWARD}.java"
    report = analyze_unit(path, _AWKWARD_SRC, BOTH)
    texts = [m.original for m in report.mutants if m.operator_id in ("NRV", "NOI")]
    assert len(texts) == 3
    assert all(_AWKWARD_LITERAL in text for text in texts)
    assert json.loads(emit_unit_json(report))["path"] == path
