"""Source model: tokens, method/constructor body spans, relevant lines.

The analyzer works on a syntactic Java-style subset: no symbol table, no
type resolution.  Constructs outside the subset (annotations, generics,
lambdas, text blocks) are tokenized and skipped gracefully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from mutdense import errors, scanner
from mutdense.scanner import TokenKind


_LITERAL_KINDS = frozenset(
    {TokenKind.NUMBER_LITERAL, TokenKind.STRING_LITERAL, TokenKind.CHAR_LITERAL}
)


@dataclass(frozen=True, slots=True)
class Token:
    """One lexical unit; ``start``/``end`` are half-open offsets into the text."""

    kind: TokenKind
    text: str
    line: int
    column: int
    start: int
    end: int


def tokenize(text: str) -> list[Token]:
    """Scan ``text`` into tokens.

    Comments and whitespace emit nothing; literals keep their delimiters.
    Raises UnterminatedLiteral / UnterminatedComment with the position of
    the offending construct.
    """
    return [
        Token(kind, text[start:end], line, col, start, end)
        for kind, start, end, line, col in scanner.scan(text)
    ]


@dataclass(frozen=True)
class SourceUnit:
    """One source file: raw text, physical lines, and its token stream."""

    path: str
    text: str
    lines: tuple[str, ...]
    tokens: tuple[Token, ...]

    @classmethod
    def from_text(cls, path: str, text: str) -> "SourceUnit":
        return cls(path=path, text=text, lines=split_lines(text), tokens=tuple(tokenize(text)))


def split_lines(text: str) -> tuple[str, ...]:
    """Lines ended by ``\\n``, ``\\r\\n`` or a lone ``\\r``, as the scanner
    counts them; a trailing line end does not add an empty line."""
    if not text:
        return ()
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    parts = text.split("\n")
    if parts[-1] == "":
        parts.pop()
    return tuple(parts)


class SpanKind(Enum):
    METHOD = "method"
    CONSTRUCTOR = "constructor"


@dataclass(frozen=True)
class BodySpan:
    """A method or constructor with a brace-delimited body.

    ``body_token_range`` is a half-open token-index pair whose first token
    is the opening ``{`` and whose last covered token is the matching ``}``.
    ``decl_line`` is the line of the name token in the declaration header.
    """

    kind: SpanKind
    name: str
    decl_line: int
    body_token_range: tuple[int, int]
    param_types: tuple[tuple[str, str], ...]
    return_type_text: str | None
    name_token_index: int = field(compare=False, default=-1)
    param_name_indices: tuple[int, ...] = field(compare=False, default=())


@dataclass(frozen=True)
class LineSet:
    relevant: frozenset[int]


# ---------------------------------------------------------------------------
# generic angle brackets
# ---------------------------------------------------------------------------

# A '<' is a type bracket iff it can be closed by a later '>' / '>>' / '>>>'
# with every enclosed token drawn from: Identifier, ',', '?', 'extends',
# 'super', '.', '[', ']', '&', or a nested '<...>'.  Anything else makes it
# a relational operator.
_ANGLE_PUNCT = frozenset({",", ".", "[", "]", "?", "&"})
_ANGLE_KEYWORDS = frozenset({"extends", "super"})
_CLOSER_DEPTH = {">": 1, ">>": 2, ">>>": 3}


@dataclass(frozen=True)
class GenericAngles:
    """Token indices classified as generic type brackets."""

    indices: frozenset[int]
    open_close: dict[int, int]  # outermost '<' index -> final closer index
    close_open: dict[int, int]  # final closer index -> outermost '<' index


def mark_generic_angles(tokens: Sequence[Token]) -> GenericAngles:
    marked: set[int] = set()
    open_close: dict[int, int] = {}
    close_open: dict[int, int] = {}
    n = len(tokens)
    for i in range(n):
        tok = tokens[i]
        if tok.text != "<" or i in marked:
            continue
        depth = 1
        angle_indices = [i]
        j = i + 1
        matched = False
        while j < n:
            t = tokens[j]
            tx = t.text
            if tx == "<":
                depth += 1
                angle_indices.append(j)
            elif tx in _CLOSER_DEPTH:
                depth -= _CLOSER_DEPTH[tx]
                angle_indices.append(j)
                if depth == 0:
                    matched = True
                    break
                if depth < 0:
                    break
            elif t.kind is TokenKind.IDENTIFIER:
                pass
            elif t.kind is TokenKind.KEYWORD and tx in _ANGLE_KEYWORDS:
                pass
            elif tx in _ANGLE_PUNCT:
                pass
            else:
                break
            j += 1
        if matched:
            marked.update(angle_indices)
            open_close[i] = j
            close_open[j] = i
    return GenericAngles(frozenset(marked), open_close, close_open)


# ---------------------------------------------------------------------------
# body location
# ---------------------------------------------------------------------------

_TYPE_KEYWORDS = frozenset({"class", "interface", "enum"})
_FORBIDDEN_BEFORE_NAME = frozenset(
    {"new", "if", "for", "while", "switch", "catch", "synchronized"}
)
_PRIMITIVE_TYPES = frozenset(
    {"boolean", "byte", "char", "short", "int", "long", "float", "double"}
)


def is_reference_type(type_text: str | None) -> bool:
    return type_text is not None and type_text not in _PRIMITIVE_TYPES and type_text != "void"


class _Ctx:
    __slots__ = ("tokens", "braces", "angles", "spans")

    def __init__(self, tokens: Sequence[Token], braces: dict[int, int], angles: GenericAngles):
        self.tokens = tokens
        self.braces = braces
        self.angles = angles
        self.spans: list[BodySpan] = []


def locate_bodies(unit: SourceUnit) -> list[BodySpan]:
    """Find every method/constructor body span, including those of nested,
    local, and anonymous types."""
    tokens = unit.tokens
    ctx = _Ctx(tokens, match_braces(tokens), mark_generic_angles(tokens))
    _scan_block(ctx, 0, len(tokens))
    ctx.spans.sort(key=lambda s: s.body_token_range[0])
    return ctx.spans


def match_braces(tokens: Sequence[Token]) -> dict[int, int]:
    """Map each '{' token index to its matching '}' index."""
    pairs: dict[int, int] = {}
    stack: list[int] = []
    for idx, tok in enumerate(tokens):
        if tok.text == "{":
            stack.append(idx)
        elif tok.text == "}":
            if not stack:
                raise errors.UnbalancedBraces("unmatched '}'", tok.line, tok.column)
            pairs[stack.pop()] = idx
    if stack:
        tok = tokens[stack[-1]]
        raise errors.UnbalancedBraces("unclosed '{'", tok.line, tok.column)
    return pairs


def _match_paren(tokens: Sequence[Token], open_idx: int, hi: int) -> int | None:
    depth = 0
    for j in range(open_idx, hi):
        tx = tokens[j].text
        if tx == "(":
            depth += 1
        elif tx == ")":
            depth -= 1
            if depth == 0:
                return j
    return None


def _is_type_decl_keyword(ctx: _Ctx, i: int) -> bool:
    tok = ctx.tokens[i]
    if tok.kind is not TokenKind.KEYWORD or tok.text not in _TYPE_KEYWORDS:
        return False
    # 'String.class' is a class literal, not a declaration
    return i == 0 or ctx.tokens[i - 1].text != "."


def _scan_block(ctx: _Ctx, lo: int, hi: int) -> None:
    """Walk statement/expression territory looking for type declarations and
    anonymous class bodies; everything else is passed over."""
    i = lo
    while i < hi:
        tok = ctx.tokens[i]
        if _is_type_decl_keyword(ctx, i):
            i = _scan_type_decl(ctx, i, hi)
            continue
        if tok.kind is TokenKind.KEYWORD and tok.text == "new":
            i = _scan_new(ctx, i, hi)
            continue
        i += 1


def _scan_type_decl(ctx: _Ctx, i: int, hi: int) -> int:
    tokens = ctx.tokens
    j = i + 1
    while j < hi and tokens[j].kind is not TokenKind.IDENTIFIER:
        j += 1
    if j >= hi:
        return i + 1
    name = tokens[j].text
    while j < hi and tokens[j].text != "{":
        j += 1
    if j >= hi:
        return i + 1
    close = ctx.braces[j]
    _scan_type_body(ctx, j + 1, close, name)
    return close + 1


def _scan_new(ctx: _Ctx, i: int, hi: int) -> int:
    """At a 'new' keyword: recurse into an anonymous class body if present."""
    tokens = ctx.tokens
    j = i + 1
    if j >= hi or tokens[j].kind is not TokenKind.IDENTIFIER:
        return i + 1
    name = tokens[j].text
    j += 1
    while j + 1 < hi and tokens[j].text == "." and tokens[j + 1].kind is TokenKind.IDENTIFIER:
        name = tokens[j + 1].text
        j += 2
    if j < hi and tokens[j].text == "<" and j in ctx.angles.open_close:
        j = ctx.angles.open_close[j] + 1
    if j < hi and tokens[j].text == "(":
        pclose = _match_paren(tokens, j, hi)
        if pclose is not None and pclose + 1 < hi and tokens[pclose + 1].text == "{":
            body_open = pclose + 1
            body_close = ctx.braces[body_open]
            _scan_type_body(ctx, body_open + 1, body_close, name)
            return body_close + 1
    return i + 1


def _scan_type_body(ctx: _Ctx, lo: int, hi: int, type_name: str) -> None:
    tokens = ctx.tokens
    i = lo
    while i < hi:
        tok = ctx.tokens[i]
        if _is_type_decl_keyword(ctx, i):
            i = _scan_type_decl(ctx, i, hi)
            continue
        if tok.kind is TokenKind.KEYWORD and tok.text == "new":
            i = _scan_new(ctx, i, hi)
            continue
        if tok.text == "{":
            # initializer block or array initializer
            close = ctx.braces[i]
            _scan_block(ctx, i + 1, close)
            i = close + 1
            continue
        if (
            tok.kind is TokenKind.IDENTIFIER
            and i + 1 < hi
            and tokens[i + 1].text == "("
        ):
            nxt = _try_callable(ctx, i, hi, type_name)
            if nxt is not None:
                i = nxt
                continue
        i += 1


def _try_callable(ctx: _Ctx, i: int, hi: int, type_name: str) -> int | None:
    """Match Identifier '(' params ')' [throws names] '{' at index ``i``."""
    tokens = ctx.tokens
    prev = tokens[i - 1] if i > 0 else None
    if prev is not None and prev.kind is TokenKind.KEYWORD and prev.text in _FORBIDDEN_BEFORE_NAME:
        return None
    popen = i + 1
    pclose = _match_paren(tokens, popen, hi)
    if pclose is None:
        return None
    j = pclose + 1
    if j < hi and tokens[j].kind is TokenKind.KEYWORD and tokens[j].text == "throws":
        j += 1
        while j < hi and (
            tokens[j].kind is TokenKind.IDENTIFIER or tokens[j].text in (".", ",")
        ):
            j += 1
    if j >= hi or tokens[j].text != "{":
        return None
    body_open = j
    body_close = ctx.braces[body_open]
    name_tok = tokens[i]
    return_type = _return_type_text(ctx, i)
    params, name_indices = _parse_params(ctx, popen, pclose)
    if return_type is None and name_tok.text == type_name:
        kind = SpanKind.CONSTRUCTOR
    else:
        kind = SpanKind.METHOD
    ctx.spans.append(
        BodySpan(
            kind=kind,
            name=name_tok.text,
            decl_line=name_tok.line,
            body_token_range=(body_open, body_close + 1),
            param_types=params,
            return_type_text=None if kind is SpanKind.CONSTRUCTOR else return_type,
            name_token_index=i,
            param_name_indices=name_indices,
        )
    )
    _scan_block(ctx, body_open + 1, body_close)
    return body_close + 1


def _return_type_text(ctx: _Ctx, name_idx: int) -> str | None:
    """Collect the type tokens preceding a callable's name, walking backward
    over qualified names, array brackets, and generic groups."""
    tokens = ctx.tokens
    collected: list[int] = []
    k = name_idx - 1
    while k >= 0:
        tok = tokens[k]
        tx = tok.text
        if tok.kind is TokenKind.IDENTIFIER:
            if k > 0 and tokens[k - 1].text == "@":
                break  # annotation, not part of the type
            collected.append(k)
            k -= 1
            continue
        if tok.kind is TokenKind.KEYWORD and (tx in _PRIMITIVE_TYPES or tx == "void"):
            collected.append(k)
            k -= 1
            continue
        if tx in (".", "[", "]"):
            collected.append(k)
            k -= 1
            continue
        if tx in _CLOSER_DEPTH and k in ctx.angles.close_open:
            opener = ctx.angles.close_open[k]
            collected.extend(range(k, opener - 1, -1))
            k = opener - 1
            continue
        break
    collected.reverse()
    # drop a leading type-parameter group:  <T> T f(...)
    if collected and tokens[collected[0]].text == "<":
        group_close = ctx.angles.open_close.get(collected[0])
        if group_close is not None:
            collected = [x for x in collected if x > group_close]
    if not collected:
        return None
    return _render_type(tokens, collected)


def _render_type(tokens: Sequence[Token], indices: Iterable[int]) -> str:
    parts: list[str] = []
    prev = ""
    for idx in indices:
        tx = tokens[idx].text
        if parts and (_wordy(prev[-1]) or prev == "?") and _wordy(tx[0]):
            parts.append(" ")
        parts.append(tx)
        prev = tx
    return "".join(parts)


def _wordy(ch: str) -> bool:
    return ch.isalnum() or ch == "_" or ch == "$"


def _parse_params(
    ctx: _Ctx, popen: int, pclose: int
) -> tuple[tuple[tuple[str, str], ...], tuple[int, ...]]:
    tokens = ctx.tokens
    segments: list[list[int]] = []
    current: list[int] = []
    depth = 0
    angle_depth = 0
    for idx in range(popen + 1, pclose):
        tx = tokens[idx].text
        if tx in ("(", "["):
            depth += 1
        elif tx in (")", "]"):
            depth -= 1
        elif idx in ctx.angles.indices:
            angle_depth += 1 if tx == "<" else -_CLOSER_DEPTH[tx]
        if tx == "," and depth == 0 and angle_depth == 0:
            segments.append(current)
            current = []
        else:
            current.append(idx)
    if current:
        segments.append(current)

    params: list[tuple[str, str]] = []
    name_indices: list[int] = []
    for seg in segments:
        kept = _strip_param_modifiers(ctx, seg)
        name_pos = None
        for idx in reversed(kept):
            if tokens[idx].kind is TokenKind.IDENTIFIER:
                name_pos = idx
                break
        if name_pos is None:
            continue
        type_indices = [idx for idx in kept if idx != name_pos]
        type_text = _render_type(tokens, type_indices) if type_indices else ""
        params.append((tokens[name_pos].text, type_text))
        name_indices.append(name_pos)
    return tuple(params), tuple(name_indices)


def _strip_param_modifiers(ctx: _Ctx, seg: list[int]) -> list[int]:
    """Drop 'final' and annotations from a parameter segment."""
    tokens = ctx.tokens
    kept: list[int] = []
    k = 0
    while k < len(seg):
        idx = seg[k]
        tok = tokens[idx]
        if tok.kind is TokenKind.KEYWORD and tok.text == "final":
            k += 1
            continue
        if tok.text == "@":
            k += 1
            while k < len(seg) and tokens[seg[k]].kind is TokenKind.IDENTIFIER:
                k += 1
                if k + 1 < len(seg) and tokens[seg[k]].text == ".":
                    k += 1
                else:
                    break
            if k < len(seg) and tokens[seg[k]].text == "(":
                depth = 0
                while k < len(seg):
                    tx = tokens[seg[k]].text
                    if tx == "(":
                        depth += 1
                    elif tx == ")":
                        depth -= 1
                        if depth == 0:
                            k += 1
                            break
                    k += 1
            continue
        kept.append(idx)
        k += 1
    return kept


# ---------------------------------------------------------------------------
# relevance
# ---------------------------------------------------------------------------


def span_region_lines(unit: SourceUnit, spans: Sequence[BodySpan]) -> set[int]:
    """All lines from each span's declaration line through its closing brace."""
    region: set[int] = set()
    for span in spans:
        close_tok = unit.tokens[span.body_token_range[1] - 1]
        region.update(range(span.decl_line, close_tok.line + 1))
    return region


def relevant_lines(unit: SourceUnit, spans: Sequence[BodySpan]) -> LineSet:
    """Non-blank lines within some span region.

    Blank means no non-whitespace character outside comments; a line holding
    only a comment is blank for this purpose.
    """
    region = span_region_lines(unit, spans)
    return LineSet(frozenset(region & _nonblank_lines(unit)))


def _nonblank_lines(unit: SourceUnit) -> set[int]:
    covered: set[int] = set()
    for tok in unit.tokens:
        text = tok.text
        last_line = tok.line + text.count("\n")
        if "\r" in text:  # a text block may hold "\r\n" or lone "\r" line ends
            last_line += text.count("\r") - text.count("\r\n")
        covered.update(range(tok.line, last_line + 1))
    out: set[int] = set()
    for ln in covered:
        if ln - 1 < len(unit.lines) and unit.lines[ln - 1].strip():
            out.add(ln)
    return out
