"""Scanner for Java-style source text.

``scan`` produces raw token tuples ``(kind, start, end, line, column)``:
``kind`` is a ``TokenKind`` member, ``start``/``end`` are half-open
character offsets and ``line``/``column`` are the 1-based position of the
token start.  Comments and whitespace are consumed silently; literals keep
their delimiters; multi-character operators are maximal-munch.

A line ends at ``\\n``, at ``\\r\\n`` or at a lone ``\\r``.
"""

from __future__ import annotations

from enum import IntEnum

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

RawToken = tuple[TokenKind, int, int, int, int]


def scan(text: str) -> list[RawToken]:
    n = len(text)
    i = 0
    line = 1
    line_start = 0  # offset of the first character of the current line
    out: list[RawToken] = []
    append = out.append

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
            if c2 == "=":
                append((_OPERATOR, start, start + 2, line, col))
                i += 2
            else:
                append((_OPERATOR, start, start + 1, line, col))
                i += 1
            continue

        if c == '"':
            if i + 2 < n and text[i + 1] == '"' and text[i + 2] == '"':
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
                append((_STRING, start, i, start_line, start_col))
                continue
            i += 1
            while True:
                if i >= n or text[i] == "\n" or text[i] == "\r":
                    raise errors.UnterminatedLiteral(
                        "unterminated string literal", line, col
                    )
                ch = text[i]
                if ch == "\\":
                    if i + 1 < n and text[i + 1] != "\n" and text[i + 1] != "\r":
                        i += 2
                        continue
                    raise errors.UnterminatedLiteral(
                        "unterminated string literal", line, col
                    )
                i += 1
                if ch == '"':
                    break
            append((_STRING, start, i, line, col))
            continue

        if c == "'":
            i += 1
            while True:
                if i >= n or text[i] == "\n" or text[i] == "\r":
                    raise errors.UnterminatedLiteral(
                        "unterminated character literal", line, col
                    )
                ch = text[i]
                if ch == "\\":
                    if i + 1 < n and text[i + 1] != "\n" and text[i + 1] != "\r":
                        i += 2
                        continue
                    raise errors.UnterminatedLiteral(
                        "unterminated character literal", line, col
                    )
                i += 1
                if ch == "'":
                    break
            append((_CHAR, start, i, line, col))
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
            append(
                (_KEYWORD if word in KEYWORDS else _IDENTIFIER, start, i, line, col)
            )
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
            append((_NUMBER, start, i, line, col))
            continue

        # operators and punctuation, longest match first
        c2 = text[i + 1] if i + 1 < n else ""
        kind = _OPERATOR
        if c == ">":
            if text[i : i + 4] == ">>>=":
                length = 4
            elif text[i : i + 3] == ">>>" or text[i : i + 3] == ">>=":
                length = 3
            elif c2 == ">" or c2 == "=":
                length = 2
            else:
                length = 1
        elif c == "<":
            if text[i : i + 3] == "<<=":
                length = 3
            elif c2 == "<" or c2 == "=":
                length = 2
            else:
                length = 1
        elif c == "+" or c == "-":
            if c2 == c or c2 == "=" or (c == "-" and c2 == ">"):
                length = 2
            else:
                length = 1
        elif c == "&" or c == "|":
            length = 2 if (c2 == c or c2 == "=") else 1
        elif c == "*" or c == "%" or c == "^" or c == "=" or c == "!":
            length = 2 if c2 == "=" else 1
        elif c == ":":
            if c2 == ":":
                length = 2
                kind = _PUNCTUATION
            else:
                length = 1
        elif c == ".":
            if text[i : i + 3] == "...":
                length = 3
            else:
                length = 1
            kind = _PUNCTUATION
        elif c in "(){}[];,@":
            length = 1
            kind = _PUNCTUATION
        elif c == "~" or c == "?":
            length = 1
        else:
            # outside the subset: emit a one-character token, never crash
            length = 1
            kind = _PUNCTUATION
        append((kind, start, start + length, line, col))
        i = start + length

    return out
