"""Lexer behavior: token shapes, positions, maximal munch, error paths."""

from __future__ import annotations

import itertools
import random
import re

import pytest

import mutdense
from mutdense import errors, scanner, source_model
from mutdense.source_model import (
    SourceUnit,
    Token,
    TokenKind,
    locate_bodies,
    relevant_lines,
    tokenize,
)
from conftest import (
    ALPHA_SRC,
    BETA_SRC,
    FACTORIAL_SRC,
    GAMMA_SRC,
    GENERICS_ZOO_SRC,
    INTERFACE_SRC,
    SHAPE_SRC,
    SOUP_ALPHABET,
    seeded_soups,
)

_LINE_END = re.compile(r"\r\n|\r|\n")


def position_of(src, offset):
    """1-based (line, column) of ``offset``, with all three line ends."""
    ends = [m.end() for m in _LINE_END.finditer(src, 0, offset)]
    line_start = ends[-1] if ends else 0
    return len(ends) + 1, offset - line_start + 1


def kinds_and_texts(src):
    return [(t.kind, t.text) for t in tokenize(src)]


def test_increment_is_two_tokens():
    assert kinds_and_texts("i++") == [
        (TokenKind.IDENTIFIER, "i"),
        (TokenKind.OPERATOR, "++"),
    ]


def test_line_comment_emits_nothing():
    assert tokenize("// x+y") == []


def test_mixed_snippet_matches_hand_walk():
    # hand-computed character walk over: a<=b /*c*/ "d+e"
    #   offsets: a=0, <= = 1..3, b = 3..4, comment 5..10, string 11..16
    src = 'a<=b /*c*/ "d+e"'
    assert tokenize(src) == [
        Token(TokenKind.IDENTIFIER, "a", 1, 1, 0, 1),
        Token(TokenKind.OPERATOR, "<=", 1, 2, 1, 3),
        Token(TokenKind.IDENTIFIER, "b", 1, 4, 3, 4),
        Token(TokenKind.STRING_LITERAL, '"d+e"', 1, 12, 11, 16),
    ]


@pytest.mark.parametrize(
    "src,expected",
    [
        ("a>>>=b", ["a", ">>>=", "b"]),
        ("a>>>b", ["a", ">>>", "b"]),
        ("a>>=b", ["a", ">>=", "b"]),
        ("x<<=2", ["x", "<<=", "2"]),
        ("a->b", ["a", "->", "b"]),
        ("f(int... xs)", ["f", "(", "int", "...", "xs", ")"]),
        ("List::of", ["List", "::", "of"]),
        ("a&&b||c", ["a", "&&", "b", "||", "c"]),
        ("a!=b==c", ["a", "!=", "b", "==", "c"]),
        ("x%=y^=z", ["x", "%=", "y", "^=", "z"]),
    ],
)
def test_maximal_munch(src, expected):
    assert [t.text for t in tokenize(src)] == expected


# The operator and separator tokens of the Java grammar that the symbol
# alphabet below can spell; "." alone is a separator too.
_REFERENCE_KINDS = dict.fromkeys(
    "= > < ! ~ ? : -> == >= <= != && || ++ -- + - * / & | ^ % << >> >>> "
    "+= -= *= /= &= |= ^= %= <<= >>= >>>=".split(),
    TokenKind.OPERATOR,
) | dict.fromkeys([".", "...", "::"], TokenKind.PUNCTUATION)


def reference_symbols(src):
    """(text, kind) of each token of a symbol-only string, by taking the
    longest listed token at each position."""
    out, i = [], 0
    while i < len(src):
        text = next(
            src[i : i + n] for n in (4, 3, 2, 1) if src[i : i + n] in _REFERENCE_KINDS
        )
        out.append((text, _REFERENCE_KINDS[text]))
        i += len(text)
    return out


def test_symbol_runs_match_longest_match_reference():
    alphabet = "<>=+-&|*%^!:.~?"
    for length in range(1, 5):
        for chars in itertools.product(alphabet, repeat=length):
            src = "".join(chars)
            got = [(t.text, t.kind) for t in scanner.scan(src)]
            assert got == reference_symbols(src), src


def test_keywords_vs_identifiers():
    toks = tokenize("class var record null true false yield strictfp")
    kinds = {t.text: t.kind for t in toks}
    assert kinds["class"] is TokenKind.KEYWORD
    assert kinds["null"] is TokenKind.KEYWORD
    assert kinds["true"] is TokenKind.KEYWORD
    assert kinds["false"] is TokenKind.KEYWORD
    assert kinds["strictfp"] is TokenKind.KEYWORD
    # contextual words stay identifiers
    assert kinds["var"] is TokenKind.IDENTIFIER
    assert kinds["record"] is TokenKind.IDENTIFIER
    assert kinds["yield"] is TokenKind.IDENTIFIER


@pytest.mark.parametrize(
    "src,expected",
    [
        ("1e+5", ["1e+5"]),
        ("1E-5f", ["1E-5f"]),
        ("0x1.8p-3", ["0x1.8p-3"]),
        ("0x1E+2", ["0x1E", "+", "2"]),  # hex digit E is not an exponent marker
        ("3.14_15", ["3.14_15"]),
        (".5+x", [".5", "+", "x"]),
        ("0b1010", ["0b1010"]),
        ("10L", ["10L"]),
    ],
)
def test_number_shapes(src, expected):
    assert [t.text for t in tokenize(src)] == expected


def test_char_and_string_escapes():
    toks = tokenize("'\\n' '\\'' \"a\\\"b\"")
    assert [t.text for t in toks] == ["'\\n'", "'\\''", '"a\\"b"']
    assert [t.kind for t in toks] == [
        TokenKind.CHAR_LITERAL,
        TokenKind.CHAR_LITERAL,
        TokenKind.STRING_LITERAL,
    ]


def test_text_block_single_token_with_line_tracking():
    src = 'x = """\nhello "there"\n""" ;\ny'
    toks = tokenize(src)
    assert [t.text for t in toks] == ["x", "=", '"""\nhello "there"\n"""', ";", "y"]
    block = toks[2]
    assert block.kind is TokenKind.STRING_LITERAL
    assert (block.line, block.column) == (1, 5)
    semi = toks[3]
    assert (semi.line, semi.column) == (3, 5)
    assert toks[4].line == 4


def test_unknown_character_is_single_punctuation():
    toks = tokenize("a # b £ c")
    assert [t.text for t in toks] == ["a", "#", "b", "£", "c"]
    assert toks[1].kind is TokenKind.PUNCTUATION


@pytest.mark.parametrize(
    "src,err,line,col",
    [
        ('x = "abc', errors.UnterminatedLiteral, 1, 5),
        ('x = "ab\nc"d', errors.UnterminatedLiteral, 1, 5),
        ("ch = 'a", errors.UnterminatedLiteral, 1, 6),
        ("/* open\nnever closed", errors.UnterminatedComment, 1, 1),
        ('s = """\nno close', errors.UnterminatedLiteral, 1, 5),
        ('s = "trail\\', errors.UnterminatedLiteral, 1, 5),
        ('x = "ab\rc"d', errors.UnterminatedLiteral, 1, 5),
        ("a\r\nch = 'a\r'", errors.UnterminatedLiteral, 2, 6),
        ('s = "x\\\r\n"', errors.UnterminatedLiteral, 1, 5),
        ("a\r/* open\rnever closed", errors.UnterminatedComment, 2, 1),
    ],
)
def test_unterminated_constructs_report_position(src, err, line, col):
    with pytest.raises(err) as exc_info:
        tokenize(src)
    assert exc_info.value.line == line
    assert exc_info.value.column == col


def assert_round_trip(src, toks):
    """Offsets are ordered, non-overlapping, slice back to the text, and
    give back each token's line and column."""
    prev_end = 0
    for t in toks:
        assert prev_end <= t.start < t.end <= len(src)
        assert src[t.start : t.end] == t.text
        assert (t.line, t.column) == position_of(src, t.start)
        prev_end = t.end


@pytest.mark.parametrize(
    "src",
    [
        "",
        " ",
        "\n\n\n",
        FACTORIAL_SRC,
        ALPHA_SRC,
        BETA_SRC,
        GAMMA_SRC,
        SHAPE_SRC,
        GENERICS_ZOO_SRC,
        INTERFACE_SRC,
        'x = """\nblock "quoted"\n""" + \'c\';',
        "a>>>=b >>> c >>= d >> e >= f > g",
        "0x1.8p-3 1e+5 .5 3_000 0b11 'x' '\\n'",
        "weird £ § chars # ` \\ stay single",
        "// only a comment",
        "/* only a block */",
        "int i = 0; /* gap */ i++;",
    ],
)
def test_round_trip_and_position_reconstruction(src):
    assert_round_trip(src, tokenize(src))


def test_comments_and_gaps_only_between_tokens():
    src = "a /* one */ + // two\n b"
    assert [t.text for t in tokenize(src)] == ["a", "+", "b"]


def test_determinism_on_random_soup():
    rng = random.Random(7)
    alphabet = 'abc123+-*/%<>=!&|^~?.,;(){}[]"\'\\\n\t _$#'
    for _ in range(50):
        soup = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
        try:
            first = tokenize(soup)
        except errors.MutdenseError as exc:
            with pytest.raises(type(exc)):
                tokenize(soup)
            continue
        assert tokenize(soup) == first


@pytest.mark.parametrize("alphabet", [SOUP_ALPHABET, SOUP_ALPHABET + "\r"])
def test_seeded_soup_scans_or_fails_with_position(alphabet):
    for soup in seeded_soups(alphabet):
        try:
            raw = scanner.scan(soup)
        except errors.MutdenseError as exc:
            assert isinstance(exc.line, int) and exc.line >= 1
            assert isinstance(exc.column, int) and exc.column >= 1
            continue
        assert all(type(kind) is TokenKind for kind, *_ in raw)
        assert_round_trip(soup, tokenize(soup))


def test_token_has_one_definition():
    assert mutdense.Token is source_model.Token is scanner.Token
    toks = scanner.scan("a<=b")
    assert all(type(t) is scanner.Token for t in toks)
    assert toks[1] == Token(TokenKind.OPERATOR, "<=", 1, 2, 1, 3)
    assert tokenize("a<=b") == toks


def test_token_kind_has_one_definition():
    assert mutdense.TokenKind is source_model.TokenKind is scanner.TokenKind
    assert scanner.BACKEND == "python"
    kinds = [kind for kind, *_ in scanner.scan("int x = 'c' + \"s\" + 1;")]
    assert kinds == [
        TokenKind.KEYWORD,
        TokenKind.IDENTIFIER,
        TokenKind.OPERATOR,
        TokenKind.CHAR_LITERAL,
        TokenKind.OPERATOR,
        TokenKind.STRING_LITERAL,
        TokenKind.OPERATOR,
        TokenKind.NUMBER_LITERAL,
        TokenKind.PUNCTUATION,
    ]
    assert all(type(kind) is TokenKind for kind in kinds)


# every way the scanner meets a line end: top level, line comment, block
# comment, text block (plain and backslash-newline), string after a break
_LINE_END_SRC = """\
// header comment
class A {
  /* a block
     comment */
  int f(int a) {
    String s = \"\"\"
        one
        two \\
        three\"\"\";
    return a + 1; // tail
  }

  String g() {
    return "x" + 'y';
  }
}
"""


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_line_ends_agree(end):
    lf = SourceUnit.from_text("A.java", _LINE_END_SRC)
    other = SourceUnit.from_text("A.java", _LINE_END_SRC.replace("\n", end))
    assert [(t.kind, t.line, t.column) for t in other.tokens] == [
        (t.kind, t.line, t.column) for t in lf.tokens
    ]
    assert len(other.lines) == len(lf.lines) == 16
    assert other.lines == lf.lines
    assert (
        relevant_lines(other, locate_bodies(other))
        == relevant_lines(lf, locate_bodies(lf))
    )
    assert sorted(relevant_lines(lf, locate_bodies(lf)).relevant) == [
        5, 6, 7, 8, 9, 10, 11, 13, 14, 15,
    ]


def test_cr_only_unit_counts_physical_lines():
    unit = SourceUnit.from_text(
        "A.java", "class A {\r  int f(int a) {\r    return a + 1;\r  }\r}\r"
    )
    assert len(unit.lines) == 5
    assert sorted(relevant_lines(unit, locate_bodies(unit)).relevant) == [2, 3, 4]
