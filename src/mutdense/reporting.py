"""Report rendering: canonical JSON, per-line HTML heatmap, SVG bar chart,
and a plain-text table.

All numeric output flows through one rounding chain: exact rational ->
half-even at 4 decimals (JSON, text) -> half-even at 2 decimals (SVG
labels).  Rounding the already-rounded value keeps every format consistent
with the JSON numbers by construction.  JSON bytes carry no timestamps and
use a fixed key order, so identical input yields identical bytes.
"""

from __future__ import annotations

import html
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from mutdense import errors
from mutdense.fault_model import Family
from mutdense.metrics import COMBINED, ProjectReport, UnitReport, rank_units, top_lines
from mutdense.source_model import SourceUnit


def _scaled(value: Fraction, places: int) -> int:
    # Fraction.__round__ is exact half-to-even; no float detour
    return round(value * 10**places)


def format_density(value: Fraction, places: int = 4) -> str:
    q = _scaled(value, places)
    d = 10**places
    return f"{q // d}.{q % d:0{places}d}"


def json_density(value: Fraction) -> float:
    return float(format_density(value, 4))


def label_2dp(value: Fraction) -> str:
    """Two-decimal label derived from the 4-decimal serialized value."""
    q4 = _scaled(value, 4)
    q2 = round(Fraction(q4, 100))
    return f"{q2 // 100}.{q2 % 100:02d}"


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def _dumps(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def emit_json(report: ProjectReport, unit_fragments: Sequence[bytes] | None = None) -> bytes:
    """The project document: ``unit_fragments`` (one ``emit_unit_json`` per
    unit of ``report``, in its order) joined between the head and the tail.

    Without fragments, every unit must be a UnitReport; it is serialized here.
    """
    if unit_fragments is None:
        unit_fragments = [emit_unit_json(u) for u in report.units]
    head = _dumps({
        "toolVersion": report.tool_version,
        "operators": [
            {"id": op.id, "family": op.family.value, "description": op.description}
            for op in report.operator_catalog
        ],
    })
    tail = _dumps([{"path": d.path, "error": d.error} for d in report.diagnostics])
    return b"".join((
        head[:-1], b',"units":[', b",".join(unit_fragments), b'],"diagnostics":', tail, b"}",
    ))


def emit_unit_json(unit: UnitReport) -> bytes:
    """One unit's entry in the ``units`` list of ``project.json``."""
    return _dumps(_unit_json(unit))


def _unit_json(unit: UnitReport) -> dict:
    return {
        "path": unit.path,
        "physicalLineCount": unit.physical_line_count,
        "relevantLineCount": unit.relevant_line_count,
        "mutants": [
            {
                "operatorId": m.operator_id,
                "family": m.family.value,
                "line": m.line,
                "column": m.column,
                "original": m.original,
                "replacement": m.replacement,
            }
            for m in unit.mutants
        ],
        "lines": [
            {
                "line": ln,
                "relevant": relevant,
                "traditional": traditional,
                "nullType": null_type,
                "total": traditional + null_type,
            }
            for ln, relevant, traditional, null_type in _line_rows(unit)
        ],
        "avg": {
            "traditional": json_density(unit.avg_density_by_family[Family.TRADITIONAL]),
            "nullType": json_density(unit.avg_density_by_family[Family.NULL_TYPE]),
            "combined": json_density(unit.avg_density_combined),
        },
        "empty": unit.empty,
    }


def _line_rows(unit: UnitReport) -> Iterator[tuple[int, bool, int, int]]:
    """(line, relevant, traditional count, null-type count) per physical line."""
    counts = unit.line_counts
    relevant = unit.relevant_lines
    for ln in range(1, unit.physical_line_count + 1):
        traditional, null_type = counts.get(ln, (0, 0))
        yield ln, ln in relevant, traditional, null_type


# ---------------------------------------------------------------------------
# HTML heatmap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeatmapStyle:
    """Shading ramp for relevant lines; density 0 stays white."""

    color_stops: tuple[tuple[int, str], ...]
    gray_color: str = "#d4d4d4"

    def __post_init__(self) -> None:
        thresholds = [t for t, _ in self.color_stops]
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("color stop thresholds must be strictly increasing")

    def shade(self, relevant: bool, total: int) -> str:
        if not relevant:
            return self.gray_color
        color = "#ffffff"
        for threshold, stop_color in self.color_stops:
            if total >= threshold:
                color = stop_color
        return color


DEFAULT_STYLE = HeatmapStyle(
    color_stops=((1, "#fdebc8"), (3, "#f8c471"), (5, "#eb984e"))
)

_HEATMAP_CSS = """\
body { font-family: monospace; margin: 1em; }
table { border-collapse: collapse; width: 100%; }
td { padding: 0 6px; vertical-align: top; white-space: pre; }
td.ln { color: #888; text-align: right; user-select: none; }
td.badge { text-align: right; color: #333; }
h1 { font-size: 1.1em; }
"""


def render_heatmap(
    unit: SourceUnit, unit_report: UnitReport, style: HeatmapStyle = DEFAULT_STYLE
) -> str:
    """Self-contained HTML: one row per physical line, shaded by density."""
    mutants_by_line: dict[int, list] = {}
    for m in unit_report.mutants:
        mutants_by_line.setdefault(m.line, []).append(m)

    rows: list[str] = []
    for ln, relevant, traditional, null_type in _line_rows(unit_report):
        total = traditional + null_type
        source = unit.lines[ln - 1] if ln - 1 < len(unit.lines) else ""
        color = style.shade(relevant, total)
        badge = f"{total} (T {traditional}, N {null_type})" if relevant else ""
        detail = "&#10;".join(
            html.escape(f"{m.operator_id}: {m.original} -> {m.replacement}", quote=True)
            for m in mutants_by_line.get(ln, ())
        )
        title_attr = f' title="{detail}"' if detail else ""
        rows.append(
            f'<tr style="background:{color}"{title_attr}>'
            f'<td class="ln">{ln}</td>'
            f'<td class="badge">{html.escape(badge)}</td>'
            f"<td>{html.escape(source)}</td></tr>"
        )

    title = html.escape(unit.path)
    avg = unit_report.avg_density_by_family
    summary = html.escape(
        f"relevant lines: {unit_report.relevant_line_count} | "
        f"avg density: traditional {format_density(avg[Family.TRADITIONAL])}, "
        f"null-type {format_density(avg[Family.NULL_TYPE])}, "
        f"combined {format_density(unit_report.avg_density_combined)}"
    )
    return (
        "<!DOCTYPE html>\n"
        f'<html lang="en"><head><meta charset="utf-8"><title>{title}</title>'
        f"<style>{_HEATMAP_CSS}</style></head><body>\n"
        f"<h1>{title}</h1>\n<p>{summary}</p>\n<table>\n"
        + "\n".join(rows)
        + "\n</table>\n</body></html>\n"
    )


# ---------------------------------------------------------------------------
# SVG bar chart
# ---------------------------------------------------------------------------

_BAR_H = 10
_ROW_H = 34
_PLOT_X = 300
_PLOT_W = 520
_TOP = 46


def render_barchart(report: ProjectReport) -> str:
    """Grouped horizontal bars per unit, ranked by combined average:
    gray = traditional family average, black = null-type."""
    if not report.units:
        raise errors.EmptyProject("bar chart requires at least one unit")
    by_path = {u.path: u for u in report.units}
    order = [by_path[path] for path, _ in rank_units(report, COMBINED)]

    max_value = max(
        (
            json_density(u.avg_density_by_family[fam])
            for u in order
            for fam in Family
        ),
        default=0.0,
    )
    scale = _PLOT_W / max_value if max_value > 0 else 0.0

    height = _TOP + _ROW_H * len(order) + 12
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="940" height="{height}"'
        ' font-family="monospace" font-size="12">',
        "<title>combined average mutant density per unit</title>",
        f'<rect x="{_PLOT_X}" y="10" width="10" height="10" fill="gray"/>'
        f'<text x="{_PLOT_X + 16}" y="19">traditional</text>',
        f'<rect x="{_PLOT_X + 120}" y="10" width="10" height="10" fill="black"/>'
        f'<text x="{_PLOT_X + 136}" y="19">null-type</text>',
    ]
    for row, unit in enumerate(order):
        y = _TOP + row * _ROW_H
        label = html.escape(unit.path, quote=True)
        parts.append(f'<g data-path="{label}">')
        parts.append(
            f'<text x="{_PLOT_X - 8}" y="{y + _BAR_H + 4}" text-anchor="end">{label}</text>'
        )
        for fam, fill, dy in (
            (Family.TRADITIONAL, "gray", 0),
            (Family.NULL_TYPE, "black", _BAR_H + 2),
        ):
            value = unit.avg_density_by_family[fam]
            width = json_density(value) * scale
            parts.append(
                f'<rect class="bar {fam.value}" x="{_PLOT_X}" y="{y + dy}"'
                f' width="{width:.2f}" height="{_BAR_H}" fill="{fill}"/>'
            )
            parts.append(
                f'<text x="{_PLOT_X + width + 4:.2f}" y="{y + dy + _BAR_H - 1}">'
                f"{label_2dp(value)}</text>"
            )
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# plain text
# ---------------------------------------------------------------------------


def render_text(report: ProjectReport, top_n: int = 10) -> str:
    header = ("path", "relevant", "traditional", "null-type", "combined")
    if not report.units:
        lines = ["  ".join(header), "no units analyzed"]
    else:
        rows = [
            (
                u.path,
                str(u.relevant_line_count),
                format_density(u.avg_density_by_family[Family.TRADITIONAL]),
                format_density(u.avg_density_by_family[Family.NULL_TYPE]),
                format_density(u.avg_density_combined),
            )
            for u in report.units
        ]
        widths = [
            max(len(header[col]), max(len(r[col]) for r in rows))
            for col in range(len(header))
        ]
        def fmt(cells: tuple[str, ...]) -> str:
            path = cells[0].ljust(widths[0])
            rest = "  ".join(c.rjust(widths[i + 1]) for i, c in enumerate(cells[1:]))
            return f"{path}  {rest}"
        lines = [fmt(header), fmt(tuple("-" * w for w in widths))]
        lines.extend(fmt(r) for r in rows)

    if top_n > 0 and report.units:
        ranked = top_lines(report, top_n, COMBINED)
        lines.append("")
        lines.append(f"top {top_n} lines (combined density)")
        if ranked:
            lines.extend(f"  {path}:{line}  {value}" for path, line, value in ranked)
        else:
            lines.append("  none (no line hosts a mutant)")

    if report.diagnostics:
        lines.append("")
        lines.append("diagnostics")
        lines.extend(f"  {d.path}: {d.error}" for d in report.diagnostics)
    return "\n".join(lines) + "\n"
