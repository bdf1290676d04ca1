"""Scanner for Java-style source text.

``scan`` produces ``Token`` tuples ``(kind, text, line, column, start, end)``:
``kind`` is a ``TokenKind`` member, ``line``/``column`` are the 1-based
position of the token start and ``start``/``end`` are half-open character
offsets.  Comments and whitespace are consumed silently; literals keep their
delimiters; multi-character operators are maximal-munch.

A line ends at ``\\n``, at ``\\r\\n`` or at a lone ``\\r``: ``LINE_END`` is
that rule, and every line fact (token lines, ``split_lines``) comes from it.
"""

import re
from bisect import bisect_right
from enum import IntEnum
from typing import NamedTuple

from mutdense import errors

LINE_END = re.compile(r"\r\n?|\n")

# The only scanner kernel; perfbench records this name in its fingerprint.
BACKEND = "python"


class TokenKind(IntEnum):
    IDENTIFIER = 0
    KEYWORD = 1
    OPERATOR = 2
    PUNCTUATION = 3
    NUMBER_LITERAL = 4
    STRING_LITERAL = 5
    CHAR_LITERAL = 6


class Token(NamedTuple):
    """One lexical unit; ``start``/``end`` are half-open offsets into the text."""

    kind: TokenKind
    text: str
    line: int
    column: int
    start: int
    end: int


# Reserved words, including the literal words true/false/null.  Contextual
# keywords (var, record, yield, ...) stay identifiers.
KEYWORDS = frozenset(
    {
        "abstract", "assert", "boolean", "break", "byte", "case", "catch",
        "char", "class", "const", "continue", "default", "do", "double",
        "else", "enum", "extends", "final", "finally", "float", "for",
        "goto", "if", "implements", "import", "instanceof", "int",
        "interface", "long", "native", "new", "package", "private",
        "protected", "public", "return", "short", "static", "strictfp",
        "super", "switch", "synchronized", "this", "throw", "throws",
        "transient", "try", "void", "volatile", "while",
        "true", "false", "null",
    }
)

# plain module globals keep the kernel's loop free of enum attribute lookups
_IDENTIFIER = TokenKind.IDENTIFIER
_KEYWORD = TokenKind.KEYWORD
_OPERATOR = TokenKind.OPERATOR
_PUNCTUATION = TokenKind.PUNCTUATION
_NUMBER = TokenKind.NUMBER_LITERAL
_STRING = TokenKind.STRING_LITERAL
_CHAR = TokenKind.CHAR_LITERAL

# Operator texts; every other token that is not a word, a number or a
# literal is punctuation, including a character outside the language.
_OPERATORS = frozenset(
    "= > < ! ~ ? : + - * / & | ^ % "
    "== <= >= != && || ++ -- -> << >> >>> "
    "+= -= *= /= &= |= ^= %= <<= >>= >>>=".split()
)
# The multi-character tokens, matched longest first; the two that are not
# operators are punctuation.
_MULTI = frozenset(t for t in _OPERATORS if len(t) > 1) | {"::", "..."}
# first character -> the lengths to try, longest first; a character that
# starts no multi-character token, such as ( ) ; , is always one long
_LENGTHS = {
    c: tuple(sorted({len(t) for t in _MULTI if t[0] == c}, reverse=True))
    for c in {t[0] for t in _MULTI}
}


def split_lines(text: str) -> tuple[str, ...]:
    """Lines as ``LINE_END`` ends them; a trailing line end adds no empty line."""
    if not text:
        return ()
    parts = LINE_END.split(text)
    if parts[-1] == "":
        parts.pop()
    return tuple(parts)


def scan(text: str, start: int = 0) -> list[Token]:
    """The tokens of ``text`` from offset ``start`` on, which must lie
    between two tokens; each keeps its line, column and offsets in the
    whole text."""
    n = len(text)
    i = start
    # offsets where a line starts after the first; tokens come in offset
    # order, so the walk below only moves forward through them
    starts = list(map(re.Match.end, LINE_END.finditer(text)))
    starts.append(n + 1)  # sentinel: no token starts there
    line = bisect_right(starts, start) + 1  # the line that holds ``start``
    next_start = starts[line - 1]
    line_start = starts[line - 2] if line > 1 else 0  # offset of the current line's start
    out: list[Token] = []
    append = out.append
    _new = tuple.__new__  # builds a Token without NamedTuple's Python-level __new__

    while i < n:
        c = text[i]

        # whitespace, line ends included: the table above places the lines
        if c in " \t\n\r\f\x0b":
            i += 1
            continue

        start = i
        while i >= next_start:
            line_start = next_start
            next_start = starts[line]
            line += 1
        col = i - line_start + 1

        if c == "/":
            c2 = text[i + 1] if i + 1 < n else ""
            if c2 == "/":
                m = LINE_END.search(text, i + 2)
                i = m.start() if m else n
                continue
            if c2 == "*":
                i = text.find("*/", i + 2)
                if i < 0:
                    raise errors.UnterminatedComment("unterminated block comment", line, col)
                i += 2
                continue
            # otherwise "/" or "/=", an operator

        if c == '"' and text[i + 1 : i + 3] == '""':
            # text block: """ ... """, backslash escapes apply
            i += 3
            closed = False
            while i < n:
                ch = text[i]
                if ch == "\\":
                    i += 2
                    continue
                if ch == '"' and text[i + 1 : i + 3] == '""':
                    i += 3
                    closed = True
                    break
                i += 1
            if not closed:
                raise errors.UnterminatedLiteral("unterminated text block", line, col)
            append(_new(Token, (_STRING, text[start:i], line, col, start, i)))
            continue

        if c == '"' or c == "'":
            # a string or character literal, closed by its own quote
            if c == '"':
                kind, what = _STRING, "unterminated string literal"
            else:
                kind, what = _CHAR, "unterminated character literal"
            i += 1
            while True:
                if i >= n or text[i] == "\n" or text[i] == "\r":
                    raise errors.UnterminatedLiteral(what, line, col)
                ch = text[i]
                if ch == "\\":
                    if i + 1 < n and text[i + 1] != "\n" and text[i + 1] != "\r":
                        i += 2
                        continue
                    raise errors.UnterminatedLiteral(what, line, col)
                i += 1
                if ch == c:
                    break
            append(_new(Token, (kind, text[start:i], line, col, start, i)))
            continue

        if c.isalpha() or c == "_" or c == "$":
            i += 1
            while i < n:
                ch = text[i]
                if ch.isalnum() or ch == "_" or ch == "$":
                    i += 1
                else:
                    break
            word = text[start:i]
            kind = _KEYWORD if word in KEYWORDS else _IDENTIFIER
            append(_new(Token, (kind, word, line, col, start, i)))
            continue

        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            is_hex = c == "0" and i + 1 < n and (text[i + 1] == "x" or text[i + 1] == "X")
            i += 1
            while i < n:
                ch = text[i]
                if ch.isalnum() or ch == "_" or ch == ".":
                    i += 1
                    continue
                # exponent sign: 1e+5 / 0x1.8p-3
                if (ch == "+" or ch == "-") and i > start:
                    prev = text[i - 1]
                    if (not is_hex and (prev == "e" or prev == "E")) or (
                        is_hex and (prev == "p" or prev == "P")
                    ):
                        i += 1
                        continue
                break
            append(_new(Token, (_NUMBER, text[start:i], line, col, start, i)))
            continue

        # operators and punctuation, longest match first
        tok = c
        for length in _LENGTHS.get(c, ()):
            if text[i : i + length] in _MULTI:
                tok = text[i : i + length]
                break
        i += len(tok)
        kind = _OPERATOR if tok in _OPERATORS else _PUNCTUATION
        append(_new(Token, (kind, tok, line, col, start, i)))

    return out
