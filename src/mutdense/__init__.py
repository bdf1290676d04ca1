"""mutdense: mutant-density static analysis for Java-style sources.

Counts the mutants a configurable fault model (traditional and null-type
operator families) can generate on each relevant line, averages them per
compilation unit, ranks units, and renders JSON / HTML heatmap / SVG bar
chart / text reports.
"""

from mutdense._version import VERSION as __version__
from mutdense.errors import MutdenseError
from mutdense.fault_model import (
    CATALOG,
    Family,
    Mutant,
    MutationOperator,
    OperatorSet,
    apply_mutant,
    find_mutation_sites,
    list_operators,
)
from mutdense.metrics import (
    Diagnostic,
    LineDensity,
    ProjectReport,
    UnitReport,
    aggregate_project,
    analyze_unit,
    average_density,
    build_unit_report,
    line_densities,
    rank_units,
    top_lines,
)
from mutdense.reporting import (
    HeatmapStyle,
    emit_json,
    render_barchart,
    render_heatmap,
    render_text,
)
from mutdense.source_model import (
    BodySpan,
    LineSet,
    SourceUnit,
    SpanKind,
    Token,
    TokenKind,
    locate_bodies,
    relevant_lines,
    tokenize,
)

__all__ = [
    "__version__",
    "MutdenseError",
    "CATALOG",
    "Family",
    "Mutant",
    "MutationOperator",
    "OperatorSet",
    "apply_mutant",
    "find_mutation_sites",
    "list_operators",
    "Diagnostic",
    "LineDensity",
    "ProjectReport",
    "UnitReport",
    "aggregate_project",
    "analyze_unit",
    "average_density",
    "build_unit_report",
    "line_densities",
    "rank_units",
    "top_lines",
    "HeatmapStyle",
    "emit_json",
    "render_barchart",
    "render_heatmap",
    "render_text",
    "BodySpan",
    "LineSet",
    "SourceUnit",
    "SpanKind",
    "Token",
    "TokenKind",
    "locate_bodies",
    "relevant_lines",
    "tokenize",
]
