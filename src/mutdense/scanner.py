"""Scanner for Java-style source text.

``scan`` gives the tokens of a text as columns (``Tokens``): each token's
``text``, its ``kind`` (a ``TokenKind`` member), its ``start`` offset and
its 1-based ``line``.  Its end is ``start + len(text)`` and its column
follows from its line's start.  Comments and whitespace emit nothing;
literals keep their delimiters; multi-character operators are
maximal-munch.  A ``Token`` tuple ``(kind, text, line, column, start,
end)`` is built only when one is asked for.

A line ends at ``\\n``, at ``\\r\\n`` or at a lone ``\\r``: ``LINE_END`` is
that rule, which ``split_lines`` applies, and the scan's shadow of the text
writes each such end as one ``\\n``, from which the token lines come.
"""

import functools
import re
from bisect import bisect_right
from enum import IntEnum
from itertools import accumulate, repeat
from operator import add, itemgetter, sub
from typing import Iterator, NamedTuple

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

# The scan reads a shadow of the text, as long as the text, in which each
# character outside ASCII stands for its class, a pair of backslashes for
# two plain characters and each line end for one "\n" (a "\r\n" for " \n").
# So the pattern below decides exactly as ``str.isalpha``, ``str.isdigit``
# and ``str.isalnum`` do, a quote is escaped exactly when a lone backslash
# precedes it, and the "\n"s give the lines.
_ALPHA, _NUMERIC = "\u00aa", "\u00bd"  # a letter; a number that is no digit
_SENTINEL = "\uffff"  # ends the shadow; only a literal or comment left open reaches it
_WS = " \t\n\r\f\x0b"


def _shadow_char(c: str) -> str:
    if c.isalpha():
        return _ALPHA
    if c.isdigit():
        return "1"  # never "0", which could start a hex prefix
    return _NUMERIC if c.isalnum() else "#"


def _longest_first(texts: list[str]) -> str:
    """A pattern that matches the longest of ``texts`` that it can, as a
    tree of alternatives by first character."""
    by_first: dict[str, list[str]] = {}
    for text in texts:
        by_first.setdefault(text[0], []).append(text[1:])
    branches = []
    for first, rests in sorted(by_first.items()):
        longer = [rest for rest in rests if rest]
        branch = re.escape(first)
        if longer:
            branch += f"(?:{_longest_first(longer)})" + ("?" if "" in rests else "")
        branches.append(branch)
    return "|".join(branches)


@functools.cache  # compiled on first use: a process that scans nothing skips it
def _pattern() -> re.Pattern:
    """One token, comment or open literal of the shadow, with each
    repetition over a single character class, so that memory stays flat
    in its length.  A literal's closing quote is the first that no lone
    backslash precedes; a number takes an exponent sign after e/E, or p/P
    in a hex literal.  A literal or block comment left open matches up to
    the sentinel."""
    word = rf"0-9A-Za-z_{_ALPHA}{_NUMERIC}"  # what str.isalnum accepts, and '_'
    return re.compile(
        rf"([{_WS}]*)([A-Za-z_${_ALPHA}][{word}$]*|[(){{}}\[\];,@]"
        rf"|//[^\n{_SENTINEL}]*|/\*[\s\S]*?\*/|/\*[\s\S]*"
        r'|"""[\s\S]*?(?<!\\)"""|"(?!"")(?:[^"\\\n]*"|[^\n]*?(?<!\\)")|"[\s\S]*'
        r"|'(?:[^'\\\n]*'|[^\n]*?(?<!\\)')|'[\s\S]*"
        rf"|0[xX][{word}.]*(?:(?<=[pP])[+-][{word}.+-]*?(?![{word}.]|(?<=[pP])[+-]))?"
        rf"|\.?[0-9][{word}.]*(?:(?<=[eE])[+-][{word}.+-]*?(?![{word}.]|(?<=[eE])[+-]))?"
        rf"|{_longest_first(sorted(_OPERATORS | _MULTI | {'.'}))}|[^{_WS}])"
    )


_COMMENT = None  # the kind of a comment, which the scan drops
# A piece's kind: its whole text, if it is a word, an operator or one of the
# punctuation texts that starts like a number; else by its first character.
_KIND_OF_TEXT = {
    **dict.fromkeys(KEYWORDS, TokenKind.KEYWORD),
    **dict.fromkeys(_OPERATORS, TokenKind.OPERATOR),
    **dict.fromkeys(("::", ".", "..."), TokenKind.PUNCTUATION),
}
_KIND_OF_FIRST = {
    **dict.fromkeys(map(chr, range(128)), TokenKind.PUNCTUATION),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$" + _ALPHA,
                    TokenKind.IDENTIFIER),
    **dict.fromkeys("0123456789.", TokenKind.NUMBER_LITERAL),
    '"': TokenKind.STRING_LITERAL,
    "'": TokenKind.CHAR_LITERAL,
    "/": _COMMENT,
    _NUMERIC: TokenKind.PUNCTUATION,
}
# what an open literal or comment reports, by its first characters
_UNTERMINATED = (
    ('"""', errors.UnterminatedLiteral, "unterminated text block"),
    ('"', errors.UnterminatedLiteral, "unterminated string literal"),
    ("'", errors.UnterminatedLiteral, "unterminated character literal"),
    ("/*", errors.UnterminatedComment, "unterminated block comment"),
)


class Tokens:
    """The tokens of one text as columns: ``texts``, ``kinds``, ``starts``
    (offsets into the text) and ``lines``, one entry per token.  Indexing
    or iterating builds ``Token`` tuples; the analysis reads the columns."""

    __slots__ = ("texts", "kinds", "starts", "lines", "line_starts")

    def __init__(self, texts: list[str], kinds: list[TokenKind], starts: list[int],
                 lines: list[int], line_starts: list[int]) -> None:
        self.texts = texts
        self.kinds = kinds
        self.starts = starts
        self.lines = lines
        self.line_starts = line_starts  # the offset where each line starts

    def __len__(self) -> int:
        return len(self.texts)

    def column(self, k: int) -> int:
        """The 1-based column of token ``k``."""
        return self.starts[k] - self.line_starts[self.lines[k] - 1] + 1

    def end(self, k: int) -> int:
        return self.starts[k] + len(self.texts[k])

    def __getitem__(self, k: int) -> Token:
        return Token(self.kinds[k], self.texts[k], self.lines[k], self.column(k),
                     self.starts[k], self.end(k))

    def __iter__(self) -> Iterator[Token]:
        starts, lines = self.starts, self.lines
        line_starts = map(self.line_starts.__getitem__, map((-1).__add__, lines))
        columns = map((1).__add__, map(sub, starts, line_starts))
        ends = map(add, starts, map(len, self.texts))
        rows = zip(self.kinds, self.texts, lines, columns, starts, ends)
        return map(tuple.__new__, repeat(Token), rows)  # no Python-level __new__ per token


def _without(column: list, dropped: list[int]) -> list:
    """``column`` without its entries at the ascending indices ``dropped``,
    in time linear in its length."""
    kept = column[:dropped[0]]
    for lo, hi in zip(dropped, [*dropped[1:], len(column)]):
        kept += column[lo + 1:hi]
    return kept


def split_lines(text: str) -> tuple[str, ...]:
    """Lines as ``LINE_END`` ends them; a trailing line end adds no empty line."""
    if not text:
        return ()
    parts = LINE_END.split(text)
    if parts[-1] == "":
        parts.pop()
    return tuple(parts)


def scan(text: str, start: int = 0) -> Tokens:
    """The tokens of ``text`` from offset ``start`` on, which must lie
    between two tokens; each keeps its line and offsets in the whole text.

    One split of the shadow gives whitespace and pieces in turn, and the
    columns come from C-level passes over them.  Raises
    UnterminatedLiteral / UnterminatedComment at the open construct.
    """
    shadow = text
    if not text.isascii():
        shadow = text.translate({ord(c): _shadow_char(c) for c in set(text) if c > "\x7f"})
    shadow = shadow.replace("\\\\", "##").replace("\r\n", " \n").replace("\r", "\n")
    parts = _pattern().split(shadow[start:] + _SENTINEL)
    del parts[::3]  # the empty texts before, between and after the matches
    offsets = list(accumulate(map(len, parts), initial=start))
    pieces, starts = parts[1::2], offsets[1:-1:2]
    last, at = pieces.pop(), starts.pop()
    if last != _SENTINEL:
        line_start = shadow.rfind("\n", 0, at) + 1
        for opener, error, message in _UNTERMINATED:
            if last.startswith(opener):
                raise error(message, shadow.count("\n", 0, at) + 1, at - line_start + 1)
    kinds = list(map(_KIND_OF_TEXT.get, pieces,
                     map(_KIND_OF_FIRST.__getitem__, map(itemgetter(0), pieces))))
    if shadow is text:
        texts = pieces
    else:
        texts = list(map(text.__getitem__, map(slice, starts, offsets[2::2])))
    if "//" in shadow or "/*" in shadow:  # a comment to drop, maybe
        comments: list[int] = []
        try:
            while True:
                comments.append(kinds.index(_COMMENT, comments[-1] + 1 if comments else 0))
        except ValueError:  # no comment after the last
            pass
        if comments:
            texts, kinds, starts = (_without(c, comments) for c in (texts, kinds, starts))
    line_starts = list(accumulate(map((1).__add__, map(len, shadow.split("\n"))), initial=0))
    del line_starts[-1]
    lines = list(map(bisect_right, repeat(line_starts), starts))
    return Tokens(texts, kinds, starts, lines, line_starts)
