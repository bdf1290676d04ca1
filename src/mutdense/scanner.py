"""Scanner for Java-style source text.

``scan`` produces ``Token`` tuples ``(kind, text, line, column, start, end)``:
``kind`` is a ``TokenKind`` member, ``line``/``column`` are the 1-based
position of the token start and ``start``/``end`` are half-open character
offsets.  Comments and whitespace are consumed silently; literals keep their
delimiters; multi-character operators are maximal-munch.

A line ends at ``\\n``, at ``\\r\\n`` or at a lone ``\\r``.
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple

from mutdense import errors

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


def scan(text: str) -> list[Token]:
    n = len(text)
    i = 0
    line = 1
    line_start = 0  # offset of the first character of the current line
    out: list[Token] = []
    append = out.append
    _new = tuple.__new__  # builds a Token without NamedTuple's Python-level __new__

    # Line ends: every "\n", and every "\r" not followed by "\n".  The "\r"
    # of a "\r\n" pair is plain whitespace; its "\n" ends the line.
    while i < n:
        c = text[i]

        if c == "\n" or (c == "\r" and text[i + 1 : i + 2] != "\n"):
            i += 1
            line += 1
            line_start = i
            continue
        if c == " " or c == "\t" or c == "\r" or c == "\f" or c == "\x0b":
            i += 1
            continue

        start = i
        col = i - line_start + 1

        if c == "/":
            c2 = text[i + 1] if i + 1 < n else ""
            if c2 == "/":
                i += 2
                while i < n and text[i] != "\n" and text[i] != "\r":
                    i += 1
                continue
            if c2 == "*":
                start_line, start_col = line, col
                i += 2
                closed = False
                while i < n:
                    ch = text[i]
                    if ch == "*" and i + 1 < n and text[i + 1] == "/":
                        i += 2
                        closed = True
                        break
                    if ch == "\n" or (ch == "\r" and text[i + 1 : i + 2] != "\n"):
                        line += 1
                        line_start = i + 1
                    i += 1
                if not closed:
                    raise errors.UnterminatedComment(
                        "unterminated block comment", start_line, start_col
                    )
                continue
            # otherwise "/" or "/=", an operator

        if c == '"' and text[i + 1 : i + 3] == '""':
            # text block: """ ... """, backslash escapes apply
            start_line, start_col = line, col
            i += 3
            closed = False
            while i < n:
                ch = text[i]
                if ch == "\\":
                    # a backslash-newline leaves the line end to the
                    # branch below, so it is counted like any other
                    nxt = text[i + 1 : i + 2]
                    i += 1 if nxt == "\n" or nxt == "\r" else 2
                    continue
                if ch == '"' and i + 2 < n and text[i + 1] == '"' and text[i + 2] == '"':
                    i += 3
                    closed = True
                    break
                if ch == "\n" or (ch == "\r" and text[i + 1 : i + 2] != "\n"):
                    line += 1
                    line_start = i + 1
                i += 1
            if not closed:
                raise errors.UnterminatedLiteral(
                    "unterminated text block", start_line, start_col
                )
            append(_new(Token, (_STRING, text[start:i], start_line, start_col, start, i)))
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
