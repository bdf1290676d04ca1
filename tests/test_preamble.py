"""A unit's tokens start after its package and import preamble.

``SourceUnit.from_text`` scans from the end of the preamble: whitespace,
complete comments, and complete ``package`` and ``import [static]``
statements made of names, '.' and '*'.  Every layer must give what it
gives on all of the text's tokens, for every input, Java or not.
"""

from __future__ import annotations

import random

import pytest

from mutdense import errors
from mutdense.fault_model import OperatorSet, find_mutation_sites
from mutdense.scanner import scan
from mutdense.source_model import SourceUnit, locate_bodies, relevant_lines
from conftest import (
    ALPHA_SRC,
    BETA_SRC,
    FACTORIAL_SRC,
    GENERICS_ZOO_SRC,
    INTERFACE_SRC,
    SOUP_ALPHABET,
    corpus_plan,
    gen_mixed_unit,
    seeded_soups,
)

ALL_OPS = OperatorSet.default()


def full_unit(path: str, text: str) -> SourceUnit:
    """The unit built from every token of ``text``."""
    return SourceUnit(path, text, scan(text))


def outcome(build, path: str, text: str):
    """What analysis finds in the unit that ``build`` makes of ``text``,
    each token index given as its token's start offset so that units whose
    tokens start at different points compare; or the error's class,
    message and position.  Also the unit's token count, or None."""
    try:
        unit = build(path, text)
        spans = locate_bodies(unit)
        relevant = relevant_lines(unit, spans).relevant
        mutants = find_mutation_sites(unit, spans, ALL_OPS)
    except errors.MutdenseError as exc:
        return (type(exc), str(exc), exc.line, exc.column), None
    at = [t.start for t in unit.tokens]
    angles = unit.angles
    return {
        "relevant": relevant,
        "mutants": mutants,
        "spans": [(s.kind, s.name, s.decl_line, at[s.body_token_range[0]],
                   at[s.body_token_range[1] - 1], s.returns_reference,
                   [at[k] for k in s.nullable_params]) for s in spans],
        "pairs": {at[a]: at[b] for a, b in unit.pairs.items()},
        "angles": (sorted(at[k] for k in angles.indices),
                   {at[a]: at[b] for a, b in angles.open_close.items()}),
    }, len(unit.tokens)


def analyze_both_ways(path: str, text: str):
    """Assert that the unit ``from_text`` builds analyzes as the one built
    from all the tokens, and give the analysis and how many tokens the
    first does not hold (0 when the text fails to analyze)."""
    got, kept = outcome(SourceUnit.from_text, path, text)
    expected, scanned = outcome(full_unit, path, text)
    assert got == expected, path
    return got, (scanned or 0) - (kept or 0)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("corpus", ["dense", "sparse"])
def test_every_benchmark_unit_analyzes_as_from_all_its_tokens(corpus, seed):
    plan = corpus_plan(corpus, seed)
    skipped = units = 0
    for path, data in sorted(plan.files.items()):
        if path.endswith(".java") and b"\xe9" not in data:  # all but the Latin-1 files
            skipped += analyze_both_ways(path, data.decode("utf-8"))[1]
            units += 1
    # a unit under src/ opens with a license comment, a package and three imports
    assert skipped > 25 * units, (skipped, units)


_PREAMBLES = [
    "package a.b;", "package a . b /* c */ ;", "package\ta.b;", "import a.b.C;",
    "import static a.B.*;", "import static a.B.c;", "import a.*;", "import a.b.*.*;",
    "import a.$b_1;", "import java.util.List;\r\n", "import static java.lang.Math.max;",
    # each of these ends the preamble before it
    "import/**/a.b;", "import a./*x*/b;", "import a.//x\nb;",
    "import a.b", "import static", "import static;", "import a.new.B;", "import a.class;",
    "import class.D;", "package interface.I;",
    "import enum.E;", "import interface;", "import a.b.5;", "import a...b;", "import a.é;",
    "import é.a;", "importa.b;", "importstatic a;", "static a;", "import a.b.*=;",
    "import a.b.* /", "import a<b>;", "import a.b.{", "import a.b(c);", "@Ann",
    "@Ann package a;", '"s"', "'c'", ";", "/* unclosed", "\u00a0", "\ufeff", "package",
    # words that are keywords but open no block
    "import a.b.return;", "import a.int.b;", "import a.this;", "import a.default.b;",
    "import a.newer.classes;",
]
_GAPS = ["", " ", "\n", "\r\n", "\r", "\t", "\n\n", "/*c*/", "/** doc\n * x\n */", "//c\n",
         "//c\r\n", "//c", "\f"]
_BODIES = [
    "", ALPHA_SRC, BETA_SRC, FACTORIAL_SRC, INTERFACE_SRC, GENERICS_ZOO_SRC,
    "class C { int f(int a) { return a + 1; } }\n",
    "enum E { A; int f() { return 1 - 2; } }\n",
    "new Object() { int f() { return 1 * 2; } };\n",
    "interface I { default int f(int a) { return a << 2; } }\n",
    "class C { C(String s) { s = null; } }\n", "enum E { A; E() { } }\n",
    "class C { void f() { }\n", "}\n", "class C { String s = \"open; }\n",
]


def preamble_soups(seed: int, count: int):
    """``count`` seeded texts: preamble pieces with gaps between them, and
    then a body, a random-character soup or nothing."""
    rng = random.Random(seed)
    soups = list(seeded_soups(SOUP_ALPHABET, seed=seed, count=count))
    for k in range(count):
        parts = [rng.choice(_GAPS)]
        for _ in range(rng.randint(0, 6)):
            parts += [rng.choice(_PREAMBLES), rng.choice(_GAPS)]
        parts.append(soups[k] if rng.random() < 0.2 else rng.choice(_BODIES))
        yield "".join(parts)


def test_preamble_soups_analyze_as_from_all_their_tokens():
    seen = {"skipped": 0, "import left": 0, "failed": 0, "mutants": 0}
    for text in preamble_soups(seed=18, count=1500):
        got, skipped = analyze_both_ways("S.java", text)
        if isinstance(got, tuple):
            seen["failed"] += 1
            continue
        seen["mutants"] += bool(got["mutants"])
        seen["skipped"] += skipped > 0
        tokens = SourceUnit.from_text("S.java", text).tokens
        seen["import left"] += bool(tokens) and tokens[0].text in ("package", "import")
    assert min(seen.values()) >= 100, seen


def test_mixed_units_behind_preambles_analyze_as_from_all_their_tokens():
    rng = random.Random(181)
    preambles = list(preamble_soups(seed=19, count=200))
    for idx in range(200):
        path, src = gen_mixed_unit(rng, idx)
        for text in (src, preambles[idx].rpartition("\n")[0] + "\n" + src):
            analyze_both_ways(path, text)


def test_preamble_keeps_positions_and_stops_where_analysis_reads():
    src = "// (c)\npackage a.b;\n\nimport static a.B.*;\nimport a.c.D;\n" + ALPHA_SRC
    unit = SourceUnit.from_text("Alpha.java", src)
    assert tuple(unit.tokens) == tuple(t for t in scan(src) if t.start >= src.index("class"))
    assert (unit.tokens[0].line, unit.tokens[0].column) == (6, 1)
    # an import that names a block-opening word stays, with all after it
    src = "import a.b;\nimport x.enum.Y;\nimport c.d;\nclass C { }\n"
    assert [t.text for t in SourceUnit.from_text("C.java", src).tokens][:3] == ["import", "x", "."]


def test_long_preambles_are_sought_in_a_bounded_window():
    """A preamble past the window is scanned: the results stay the same."""
    imports = "".join(f"import p{k}.q.R{k};\n" for k in range(8000))
    text = imports + ALPHA_SRC
    assert 0 < analyze_both_ways("Alpha.java", text)[1] < len(scan(imports))
    # a line comment that the window cuts is scanned whole
    for k in range(-3, 4):
        text = "// " + "x" * ((1 << 16) + k) + " 'c\n" + ALPHA_SRC
        got, skipped = analyze_both_ways("Alpha.java", text)
        assert len(got["mutants"]) == 1 and skipped == 0
