"""Report rendering: canonical JSON, per-line HTML heatmap, SVG bar chart,
and a plain-text table.

All numeric output flows through one rounding chain: exact rational ->
half-even at 4 decimals (JSON, text) -> half-even at 2 decimals (SVG
labels).  Rounding the already-rounded value keeps every format consistent
with the JSON numbers by construction.  JSON bytes carry no timestamps and
use a fixed key order, so identical input yields identical bytes.
"""

import html
import json
import re
from fractions import Fraction
from json.encoder import encode_basestring
from typing import NamedTuple, Sequence

from mutdense import errors
from mutdense._version import VERSION
from mutdense.fault_model import CATALOG, Family
from mutdense.metrics import ProjectReport, UnitReport, UnitSummary, rank_units, top_lines
from mutdense.scanner import split_lines


def _half_even(numerator: int, denominator: int) -> int:
    """``numerator / denominator`` rounded half to even: the exact rule of
    ``Fraction.__round__``, in integers."""
    q, r = divmod(numerator, denominator)
    if 2 * r > denominator or (2 * r == denominator and q % 2):
        q += 1
    return q


def _decimal(numerator: int, denominator: int, places: int = 4) -> str:
    """``numerator / denominator`` written with ``places`` decimals."""
    whole, part = divmod(_half_even(numerator * 10**places, denominator), 10**places)
    return f"{whole}.{part:0{places}d}"


def format_density(value: Fraction, places: int = 4) -> str:
    return _decimal(value.numerator, value.denominator, places)


def json_density(value: Fraction) -> float:
    return float(format_density(value, 4))


def label_2dp(value: Fraction) -> str:
    """Two-decimal label derived from the 4-decimal serialized value."""
    return _decimal(_half_even(value.numerator * 10**4, value.denominator), 10**4, 2)


def _unit_densities(unit: UnitReport | UnitSummary) -> tuple[str, str, str]:
    """``format_density`` of the unit's traditional, null-type and combined
    averages, taken from the counts they divide: no ``Fraction`` is built."""
    lines = unit.relevant_line_count
    if lines == 0:
        return ("0.0000",) * 3
    counts = unit.mutant_count_by_family
    traditional, null_type = counts[Family.TRADITIONAL], counts[Family.NULL_TYPE]
    return (_decimal(traditional, lines), _decimal(null_type, lines),
            _decimal(traditional + null_type, lines))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def _dumps(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def emit_json(report: ProjectReport, unit_fragments: Sequence[bytes]) -> bytes:
    """The project document: ``unit_fragments`` (one ``emit_unit_json`` per
    unit of ``report``, in its order) joined between the head and the tail."""
    head = _dumps({
        "toolVersion": VERSION,
        "operators": [
            {"id": op.id, "family": op.family.value, "description": op.description}
            for op in CATALOG
        ],
    })
    tail = _dumps([{"path": d.path, "error": d.error} for d in report.diagnostics])
    return b"".join((
        head[:-1], b',"units":[', b",".join(unit_fragments), b'],"diagnostics":', tail, b"}",
    ))


# One unit's entry, written row by row with the bytes json.dumps(...,
# separators=(",", ":"), ensure_ascii=False) gives: strings through its own
# escaper, floats in its repr form, key order fixed.
_UNIT_HEAD = '{"path":%s,"physicalLineCount":%d,"relevantLineCount":%d,"mutants":['
_MUTANT_ROW = ('{"operatorId":%s,"family":%s,"line":%d,"column":%d,'
               '"original":%s,"replacement":%s}')
_LINE_ROW = '{"line":%d,"relevant":%s,"traditional":%d,"nullType":%d,"total":%d}'
# _LINE_ROW for a line that hosts no mutant, by whether it is relevant
_EMPTY_ROWS = {
    False: '{"line":%d,"relevant":false,"traditional":0,"nullType":0,"total":0}',
    True: '{"line":%d,"relevant":true,"traditional":0,"nullType":0,"total":0}',
}
_UNIT_TAIL = '],"avg":{"traditional":%r,"nullType":%r,"combined":%r},"empty":%s}'
_JSON_BOOL = {False: "false", True: "true"}
# each family's name as a JSON string; a member hashes through str.__hash__,
# so the lookup calls no Python-level enum property
_JSON_FAMILY = {family: encode_basestring(family.value) for family in Family}


def emit_unit_json(unit: UnitReport) -> bytes:
    """One unit's entry in the ``units`` list of ``project.json``."""
    enc = encode_basestring
    traditional, null_type, combined = _unit_densities(unit)
    return "".join((
        _UNIT_HEAD % (enc(unit.path), unit.physical_line_count, unit.relevant_line_count),
        ",".join([
            _MUTANT_ROW % (enc(op_id), _JSON_FAMILY[family], line, column,
                           enc(original), enc(replacement))
            for op_id, family, line, column, _, _, original, replacement, _ in unit.mutants
        ]),
        '],"lines":[',
        ",".join(_json_line_rows(unit)),
        _UNIT_TAIL % (
            float(traditional), float(null_type), float(combined),
            _JSON_BOOL[unit.empty],
        ),
    )).encode("utf-8")


def _json_line_rows(unit: UnitReport) -> list[str]:
    """The ``lines`` rows of a unit's entry, one per physical line."""
    counts = unit.line_counts
    relevant = unit.relevant_lines
    rows = []
    for ln in range(1, unit.physical_line_count + 1):
        per_family = counts.get(ln)
        if per_family is None:
            rows.append(_EMPTY_ROWS[ln in relevant] % ln)
        else:
            traditional, null_type = per_family
            rows.append(_LINE_ROW % (ln, _JSON_BOOL[ln in relevant], traditional, null_type,
                                     traditional + null_type))
    return rows


# ---------------------------------------------------------------------------
# HTML heatmap
# ---------------------------------------------------------------------------


class _StyleFields(NamedTuple):
    color_stops: tuple[tuple[int, str], ...]
    gray_color: str = "#d4d4d4"


# a color goes into a style attribute as it is, so it may only be '#' and
# 3, 4, 6 or 8 hex digits, or a name of ASCII letters
_COLOR = re.compile(r"#(?:[0-9a-fA-F]{3,4}|[0-9a-fA-F]{6}|[0-9a-fA-F]{8})|[A-Za-z]+")


class HeatmapStyle(_StyleFields):
    """Shading ramp for relevant lines; density 0 stays white."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "HeatmapStyle":
        self = super().__new__(cls, *args, **kwargs)
        thresholds = [t for t, _ in self.color_stops]
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("color stop thresholds must be strictly increasing")
        for color in [c for _, c in self.color_stops] + [self.gray_color]:
            if not (isinstance(color, str) and _COLOR.fullmatch(color)):
                raise ValueError(f"not a color: {color!r}")
        return self

    # _replace builds its copy through _make, which would skip __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

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
    unit_report: UnitReport, text: str, style: HeatmapStyle = DEFAULT_STYLE
) -> str:
    """Self-contained HTML of the unit whose source is ``text``: one row per
    physical line, shaded by density."""
    # escaping adds and removes no line end, so this is each line escaped
    sources = split_lines(html.escape(text))
    # each distinct rewrite's title is escaped once
    titles: dict[tuple[str, str, str], str] = {}
    details: dict[int, list[str]] = {}
    for m in unit_report.mutants:
        key = (m.operator_id, m.original, m.replacement)
        title = titles.get(key)
        if title is None:
            title = titles[key] = html.escape(f"{key[0]}: {key[1]} -> {key[2]}", quote=True)
        details.setdefault(m.line, []).append(title)

    counts, relevant_lines = unit_report.line_counts, unit_report.relevant_lines
    rows: list[str] = []
    for ln in range(1, unit_report.physical_line_count + 1):
        relevant = ln in relevant_lines
        traditional, null_type = counts.get(ln, (0, 0))
        total = traditional + null_type
        source = sources[ln - 1] if ln - 1 < len(sources) else ""
        color = style.shade(relevant, total)
        # digits, spaces, '(', ')', ',', 'T' and 'N': nothing to escape
        badge = f"{total} (T {traditional}, N {null_type})" if relevant else ""
        detail = "&#10;".join(details.get(ln, ()))
        title_attr = f' title="{detail}"' if detail else ""
        rows.append(
            f'<tr style="background:{color}"{title_attr}>'
            f'<td class="ln">{ln}</td>'
            f'<td class="badge">{badge}</td>'
            f"<td>{source}</td></tr>"
        )

    title = html.escape(unit_report.path)
    traditional, null_type, combined = _unit_densities(unit_report)
    summary = html.escape(
        f"relevant lines: {unit_report.relevant_line_count} | "
        f"avg density: traditional {traditional}, null-type {null_type}, combined {combined}"
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
    order = [by_path[path] for path, _ in rank_units(report)]

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
        rows = [(u.path, str(u.relevant_line_count), *_unit_densities(u)) for u in report.units]
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
        ranked = top_lines(report, top_n)
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
