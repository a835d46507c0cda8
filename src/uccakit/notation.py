"""Plain-text bracket notation: lexing, parsing and rendering.

The dialect annotates a unit by wrapping its text in square brackets with
a category label just inside the opening or closing bracket, so
"[A apple]" and "[apple A]" are the same unit.  Within one bracket the
label is found first-wins: if the token right after "[" looks like a
label it is the label, otherwise the last token must be.  Interior
tokens are always text, which keeps words such as "A" usable.

Non-contiguous units are written as two or more fragments sharing a
dashed label: "[P- took]" opens the unit and "[up on -P]" continues it.
Two such units of one category among siblings take digit indices:
"[A1- w1] [A2- w2] w3 [-A1 w4] [-A2 w5]".  Fragments are matched among
the children of one unit; the first fragment fixes the unit's parent and
categories.

Round-bracket groups at the end of a unit add edges without adding text:
"(John A)" re-attaches the existing unit reading "John" as a remote
participant, and "(IMP A)" adds an implicit participant.  A final "UNA"
word inside a bracket marks the unit as unanalyzable.

Top-level material outside any bracket is wrapped in an implicit root.
Punctuation tokens enter the token stream but belong to no unit.
"""

from __future__ import annotations

import re
import unicodedata
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .categories import CategorySet, InvalidCategory, ALL_LABELS
from .core import (
    Edge,
    IMPLICIT,
    INTERNAL,
    Passage,
    RemoteCycle,
    TERMINAL,
    Token,
    UccaError,
    _assemble,
    _check_dag,
    _gc_paused,
    build_passage,  # unused here; bench/tracing.py patches this name
    value_type,
)

LBRACKET = "lbracket"
RBRACKET = "rbracket"
LPAREN = "lparen"
RPAREN = "rparen"
LABEL = "label"
WORD = "word"

_DELIMS = {"[": LBRACKET, "]": RBRACKET, "(": LPAREN, ")": RPAREN}
# A delimiter, or a run of anything else up to whitespace.  On str
# patterns `\s` matches exactly the characters for which str.isspace()
# is true.
_TOKEN = re.compile(r"[\[\]()]|[^\s\[\]()]+")
_DELIMITED = re.compile(r"[\[\]()\s]")

_LABEL_SHAPE = re.compile(r"^(-)?([A-Z]+(?:\+[A-Z]+)*)(\d+)?(-)?$")

IMPLICIT_MARKER = "IMP"
UNA_MARKER = "UNA"


class ParseError(UccaError):
    """Notation input that cannot be parsed.

    position is a byte offset into the UTF-8 encoding of the source;
    expected/found describe the mismatch when that is meaningful.
    """

    def __init__(self, message, *, position, expected=None, found=None):
        detail = message
        if expected or found:
            parts = []
            if expected:
                parts.append(f"expected {expected}")
            if found:
                parts.append(f"found {found}")
            detail = f"{message} ({', '.join(parts)})"
        super().__init__(f"byte {position}: {detail}")
        self.position = position
        self.expected = expected
        self.found = found


class UnbalancedBrackets(ParseError):
    pass


class UnknownCategoryLabel(ParseError):
    pass


class DanglingContinuation(ParseError):
    pass


class OrphanContinuation(ParseError):
    pass


class AmbiguousContinuation(ParseError):
    pass


class UnresolvedRemote(ParseError):
    pass


class AmbiguousRemote(ParseError):
    pass


class MisplacedRemote(ParseError):
    pass


class RenderError(UccaError):
    """A passage that the bracket notation cannot express."""


@value_type
class NotationToken:
    """One lexer token with its byte span in the source."""

    kind: str
    text: str
    start: int
    end: int


def _classify(text: str) -> str:
    m = _LABEL_SHAPE.match(text)
    if not m:
        return WORD
    if m.group(1) and m.group(4):
        return WORD
    if all(part in ALL_LABELS for part in m.group(2).split("+")):
        return LABEL
    return WORD


def lex(source: str) -> list[NotationToken]:
    """Split source into bracket, paren, label and word tokens.

    Brackets and parens are always single-character tokens; everything
    else splits on whitespace.  A token whose text matches the label
    pattern (category abbreviations joined by "+", optional digit index,
    at most one leading or trailing dash) gets the label kind; whether it
    acts as a label is decided by its position during parsing.
    """
    out: list[NotationToken] = []
    kinds = dict(_DELIMS)  # token text -> kind, for this source only
    ascii_only = source.isascii()
    # Byte offset `byte_at` of character offset `char_at`, both at the end
    # of the previous token; UTF-8 widths are only counted past ASCII.
    char_at = byte_at = 0
    for m in _TOKEN.finditer(source):
        text = m.group()
        if ascii_only:
            start, end = m.span()
        else:
            start = byte_at + len(source[char_at:m.start()].encode("utf-8"))
            try:
                end = start + len(text.encode("utf-8"))
            except UnicodeEncodeError:
                # Only a word can hold a lone surrogate; whitespace cannot.
                raise ParseError(
                    "not valid Unicode: a word holds a lone surrogate", position=start
                ) from None
            char_at, byte_at = m.end(), end
        kind = kinds.get(text)
        if kind is None:
            kind = kinds[text] = _classify(text)
        out.append(NotationToken(kind, text, start, end))
    return out


def _is_punct_text(text: str) -> bool:
    return all(unicodedata.category(ch).startswith("P") for ch in text)


@dataclass(slots=True)
class _Label:
    cats: CategorySet
    index: str | None
    open_dash: bool
    close_dash: bool
    tok: NotationToken


@dataclass(slots=True)
class _RawParen:
    words: list[str]
    cats: CategorySet
    start: int


@dataclass(eq=False, slots=True)
class _Node:
    """One bracket group; after `_resolve`, one unit.  The root has no label.

    Nodes link only downwards, so a parse tree holds no reference cycle
    and is freed as soon as the parse is done with it.
    """

    label: _Label | None
    una: bool
    words: list[NotationToken]
    children: list["_Node"]
    parens: list[_RawParen]
    start: int = 0
    positions: tuple[int, ...] = ()  # a terminal's, never empty
    uid: str = ""  # the unit's pre-order id, and its `Edge`s, once numbered
    outgoing: list | None = None


def _parse_label_token(tok: NotationToken, labels: dict) -> _Label:
    """The label `tok` spells.  `labels` memoises label text -> (categories,
    index, open dash, close dash) over one parse."""
    parsed = labels.get(tok.text)
    if parsed is None:
        m = _LABEL_SHAPE.match(tok.text)
        try:
            cats = CategorySet.from_notation(m.group(2))
        except InvalidCategory as exc:
            raise ParseError(str(exc), position=tok.start) from None
        parsed = labels[tok.text] = (cats, m.group(3), bool(m.group(4)), bool(m.group(1)))
    return _Label(*parsed, tok)


def _label_hint(picks) -> None:
    """Raise the most helpful error for a bracket whose end words, `picks`, hold no label."""
    for pick in picks:
        if pick is not None and pick.kind == WORD and _LABEL_SHAPE.match(pick.text):
            raise UnknownCategoryLabel(
                f"{pick.text!r} is not a known category label", position=pick.start
            )


def _parse_tree(source: str) -> _Node:
    """The unlabeled root over the bracket groups of `source`, unresolved.

    One pass over the tokens with a stack of open brackets; a group's
    items are tokens, `_Node`s and `_RawParen`s in source order.
    """
    toks = iter(lex(source))
    labels: dict = {}
    stack: list[tuple[NotationToken | None, list]] = [(None, [])]
    for tok in toks:
        if tok.kind == LBRACKET:
            stack.append((tok, []))
        elif tok.kind == RBRACKET:
            if len(stack) == 1:
                raise UnbalancedBrackets(
                    "']' without a matching '['", position=tok.start, found="']'"
                )
            group = _finish_group(*stack.pop(), labels)
            stack[-1][1].append(group)
        elif tok.kind == LPAREN:
            stack[-1][1].append(_read_paren(tok, toks, labels))
        elif tok.kind == RPAREN:
            raise UnbalancedBrackets(
                "')' without a matching '('", position=tok.start, found="')'"
            )
        else:
            stack[-1][1].append(tok)
    if len(stack) > 1:
        raise UnbalancedBrackets(
            "bracket opened here is never closed",
            position=stack[-1][0].start,
            expected="']'",
            found="end of input",
        )
    by_type: dict[type, list] = {NotationToken: [], _Node: [], _RawParen: []}
    for item in stack[0][1]:
        by_type[type(item)].append(item)
    return _Node(None, False, *by_type.values())


def _finish_group(open_tok: NotationToken, items: list, labels: dict) -> _Node:
    """The group of `items`, classified in one pass over them; the label
    and the UNA mark are words at either end of the group."""
    words: list[NotationToken] = []
    children: list[_Node] = []
    parens: list[_RawParen] = []
    for item in items:
        if type(item) is _RawParen:
            parens.append(item)
        elif parens:
            raise MisplacedRemote(
                "round-bracket group must come at the end of its unit",
                position=parens[0].start,
            )
        elif type(item) is _Node:
            children.append(item)
        else:
            words.append(item)

    # Words before the first child or after the last one sit at an end of
    # the group.  The word "UNA" always lexes as a label.
    after = children[-1].start if children else -1
    una = False
    if words and words[-1].start > after and words[-1].text == UNA_MARKER:
        words.pop()
        una = True
    elif len(words) > 1 and words[-2].start > after and words[-2].text == UNA_MARKER:
        if words[-1].kind == LABEL:
            del words[-2]
            una = True

    head = words[0] if words and (not children or words[0].start < children[0].start) else None
    tail = words[-1] if words and words[-1].start > after else None
    if head is not None and head.kind == LABEL:
        label_tok = words.pop(0)
    elif tail is not None and tail.kind == LABEL:
        label_tok = words.pop()
    else:
        _label_hint((head, tail))
        raise ParseError(
            "bracket group has no category label",
            position=open_tok.start,
            expected="a label just inside '[' or just before ']'",
        )
    label = _parse_label_token(label_tok, labels)
    if not words and not children and not parens and not (label.open_dash or label.close_dash):
        raise ParseError(
            "category label without any text; write the label beside its text,"
            " as in [A apple]",
            position=label_tok.start,
        )
    return _Node(label, una, words, children, parens, open_tok.start)


def _read_paren(open_tok: NotationToken, toks, labels: dict) -> _RawParen:
    """The round-bracket group opened by `open_tok`, read on from `toks`."""
    words: list[NotationToken] = []
    for tok in toks:
        if tok.kind == RPAREN:
            break
        if tok.kind in (LBRACKET, LPAREN):
            raise ParseError(
                "remote and implicit groups hold a flat word sequence;"
                " nested brackets are not allowed here",
                position=tok.start,
                found=tok.text,
            )
        if tok.kind == RBRACKET:
            raise UnbalancedBrackets(
                "']' inside a round-bracket group", position=tok.start, found="']'"
            )
        words.append(tok)
    else:
        raise UnbalancedBrackets(
            "round bracket opened here is never closed",
            position=open_tok.start,
            expected="')'",
            found="end of input",
        )
    if len(words) < 2:
        raise ParseError(
            "round-bracket group needs words and a category, as in (John A)",
            position=open_tok.start,
        )
    if words[-1].kind == LABEL:
        label_tok = words.pop()
    elif words[0].kind == LABEL:
        label_tok = words.pop(0)
    else:
        _label_hint((words[0], words[-1]))
        raise ParseError(
            "round-bracket group has no category label",
            position=open_tok.start,
            expected="a label first or last, as in (John A)",
        )
    label = _parse_label_token(label_tok, labels)
    if label.open_dash or label.close_dash or label.index:
        raise ParseError(
            "continuation marks are not allowed on remote or implicit units",
            position=label_tok.start,
        )
    return _RawParen([t.text for t in words], label.cats, open_tok.start)


def _resolve(root: _Node) -> dict[_Node, _Node]:
    """Merge each continuation fragment into the fragment that opened it.

    Walks the tree depth-first in source order.  A fragment's dashed label
    opens its slot only once the fragment's own children are resolved,
    and a continuation is looked up among the children of its parent
    unit.  Returns each labeled unit's parent unit, in the order the
    units' first fragments open.
    """
    parent: dict[_Node, _Node] = {}
    unfinished: dict[_Node, int] = {}  # opened fragment -> label byte offset
    scopes: dict[_Node, dict] = {}  # unit -> its children's open fragments, by label
    stack = [(root, iter(root.children), False)]
    root.children = []
    while stack:
        target, raw, is_new = stack[-1]
        g = next(raw, None)
        if g is None:
            stack.pop()
            if not is_new:
                continue
            lab = target.label
            if lab.open_dash:
                scope = scopes.setdefault(parent[target], {})
                key = (lab.cats.labels, lab.index)
                if key in scope:
                    raise AmbiguousContinuation(
                        f"'{lab.tok.text}' opened while an earlier fragment with the"
                        " same label is still open; use digit indices such as A1- and A2-",
                        position=lab.tok.start,
                    )
                scope[key] = target
                unfinished[target] = lab.tok.start
            continue
        lab = g.label
        if lab.close_dash:
            node = scopes.get(target, {}).get((lab.cats.labels, lab.index))
            if node is None:
                raise OrphanContinuation(
                    f"continuation '-{lab.tok.text.lstrip('-')}' has no open fragment"
                    " among its siblings",
                    position=lab.tok.start,
                )
            unfinished.pop(node, None)
            node.una = node.una or g.una
            node.words.extend(g.words)
            node.parens.extend(g.parens)
            stack.append((node, iter(g.children), False))
        else:
            parent[g] = target
            target.children.append(g)
            stack.append((g, iter(g.children), True))
            g.children = []
    if unfinished:
        raise DanglingContinuation(
            "fragment opened with a trailing dash is never continued",
            position=min(unfinished.values()),
        )
    return parent


def _minimal_readers(readers, wanted, owner, parent):
    """The units a remote from `owner` reading `wanted` may resolve to.

    `readers` maps each surface text (a tuple of token texts) to the
    units reading it, and `parent` gives a unit's primary parent or None.
    The owner, its ancestors and its own children are never targets.
    Among the rest the minimal unit wins: a candidate whose child is also
    a candidate drops out, since reading the same tokens from inside it,
    that child covers the very same extent.
    """
    blocked = set()
    cur = owner
    while cur is not None:
        blocked.add(cur)
        cur = parent(cur)
    candidates = [
        u for u in readers.get(wanted, ()) if u not in blocked and parent(u) != owner
    ]
    wrappers = {parent(u) for u in candidates}
    return [u for u in candidates if u not in wrappers]


@_gc_paused
def parse_passage(
    source: str,
    *,
    passage_id: str = "passage",
    lenient_remotes: bool = False,
    on_warning=None,
) -> Passage:
    """Parse one passage written in the bracket dialect.

    Unlabeled top-level material is wrapped in an implicit root.  Words
    made only of Unicode punctuation enter the token stream but are not
    attached to any unit, and so are words that appear next to child
    brackets or next to round-bracket groups, as "slept" in
    "[P slept (John A)]"; the validator reports these as coverage gaps.

    Remote groups are resolved in source order against the surface text
    of every unit in the passage, forwards as well as backwards.  The
    minimal matching unit is preferred; if several remain, strict mode
    raises AmbiguousRemote while lenient mode warns through on_warning and
    picks the nearest preceding match.  If the remote edges close a cycle,
    the error names the first group in source order whose edge closes one.

    Units are numbered in dense pre-order, children in source order before
    implicit units, and assembled directly: the parse ensures all that
    `build_passage` checks but acyclicity, which is checked here.  Like
    `build_passage`, the call pauses the cyclic garbage collector.
    """
    root = _parse_tree(source)
    parent = _resolve(root)
    word_toks = sorted([*root.words, *(t for n in parent for t in n.words)], key=lambda t: t.start)
    punct = {text: _is_punct_text(text) for text in {t.text for t in word_toks}}
    stream = [Token(t.text, pos, punct[t.text]) for pos, t in enumerate(word_toks)]
    position_of = {t.start: pos for pos, t in enumerate(word_toks)}

    for node in parent:
        if not (node.children or node.parens):
            positions = [position_of[t.start] for t in node.words]
            node.positions = tuple(pos for pos in positions if not stream[pos].is_punct)
            if not node.positions:
                raise ParseError("unit covers no text", position=node.start)

    # Outgoing edges: children, implicit units, then (below) remote targets.
    units: list[tuple] = []  # (id, kind, positions, outgoing), as _assemble takes them
    remote_requests: list[tuple[_Node, _RawParen]] = []
    stack: list[tuple] = [(root, None, None)]  # (node, or None if implicit; categories; parent)
    while stack:
        node, cats, up = stack.pop()
        uid = str(len(units))
        if up is not None:
            up.outgoing.append(Edge(up.uid, uid, cats))
        if node is None:
            units.append((uid, IMPLICIT, (), ()))
            continue
        node.uid, node.outgoing = uid, []
        units.append((uid, TERMINAL if node.positions else INTERNAL, node.positions, node.outgoing))
        for paren in reversed(node.parens):
            if paren.words == [IMPLICIT_MARKER]:
                stack.append((None, paren.cats, node))
            else:
                remote_requests.append((node, paren))
        for child in reversed(node.children):
            cats = child.label.cats
            if child.una and UNA_MARKER not in cats:
                cats = CategorySet(list(cats) + [UNA_MARKER])
            stack.append((child, cats, node))
    if not remote_requests:
        return _assemble(passage_id, tuple(stream), units)

    remote_requests.sort(key=lambda request: request[1].start)
    # Only a node with as many words as a remote text can read it, and only
    # short nodes list their positions.  Each node comes after its parent in
    # `parent`, and the root, an ancestor of every owner, is never a target.
    lengths = {len(paren.words) for _, paren in remote_requests}
    longest = max(lengths)
    size: dict[_Node, int] = {}
    extents: dict[_Node, list[int]] = {}
    for node in reversed(parent):
        size[node] = len(node.positions) + sum(size[c] for c in node.children)
        if size[node] <= longest:
            below = [pos for c in node.children for pos in extents[c]]
            extents[node] = sorted([*node.positions, *below])
    readers: dict[tuple[str, ...], list[_Node]] = {}
    for node in reversed(parent):
        if size[node] in lengths:
            text = tuple(stream[pos].text for pos in extents[node])
            readers.setdefault(text, []).append(node)

    def resolve_remote(owner: _Node, paren: _RawParen) -> _Node:
        wanted = tuple(paren.words)
        minimal = _minimal_readers(readers, wanted, owner, parent.get)
        if not minimal:
            raise UnresolvedRemote(
                f"no unit reads {' '.join(wanted)!r}", position=paren.start
            )
        if len(minimal) == 1:
            return minimal[0]
        if not lenient_remotes:
            raise AmbiguousRemote(
                f"{len(minimal)} units read {' '.join(wanted)!r}; resolve by hand"
                " or use lenient mode",
                position=paren.start,
            )
        ref = bisect_left(word_toks, paren.start, key=lambda t: t.start)
        if on_warning is not None:
            on_warning(
                f"byte {paren.start}: {len(minimal)} units read {' '.join(wanted)!r};"
                " picking the nearest preceding one"
            )
        before = [n for n in minimal if extents[n][0] < ref]
        if before:
            return max(before, key=lambda n: extents[n][0])
        return min(minimal, key=lambda n: extents[n][0])

    remotes: dict[tuple[_Node, _Node], tuple[Edge, _RawParen]] = {}  # in source order
    for owner, paren in remote_requests:
        target = resolve_remote(owner, paren)
        if (owner, target) in remotes:
            raise ParseError(
                f"a second remote group in one unit reads {' '.join(paren.words)!r}",
                position=paren.start,
            )
        edge = Edge(owner.uid, target.uid, paren.cats, True)
        owner.outgoing.append(edge)
        remotes[owner, target] = edge, paren

    ids = [unit[0] for unit in units]
    try:
        _check_dag(ids, {uid: outgoing for uid, _, _, outgoing in units})
        return _assemble(passage_id, tuple(stream), units)
    except RemoteCycle:
        pass
    # Blame the first group, in source order, whose edge closes a cycle with
    # the primary edges and the groups before it.
    outgoing = {uid: [e for e in out if not e.remote] for uid, _, _, out in units}
    for edge, paren in remotes.values():
        outgoing[edge.parent].append(edge)
        try:
            _check_dag(ids, outgoing)
        except RemoteCycle:
            break
    raise ParseError(
        f"the remote group reading {' '.join(paren.words)!r} closes a cycle of edges",
        position=paren.start,
    )


def split_passages(text: str) -> list[str]:
    """Split a file into blank-line-separated passage sources.

    Lines may end in LF or CRLF.
    """
    chunks = re.split(r"\r?\n[ \t]*\r?\n", text)
    return [c for c in chunks if c.strip()]


# ---------------------------------------------------------------------------
# Rendering


def render(passage: Passage, label_side: str = "left") -> str:
    """Write a passage back into the bracket dialect.

    Output is deterministic and reparses to an isomorphic passage.
    Non-contiguous units come out as dashed fragments, with digit indices
    added whenever two sibling units of the same category are both
    non-contiguous, whether or not their fragments interleave.
    Remote targets are written as the target's surface text, so passages
    in which that text picks out several units cannot round-trip and are
    reported as unrenderable, as are zero-width internal units.
    """
    if label_side not in ("left", "right"):
        raise ValueError(f"label_side must be 'left' or 'right', not {label_side!r}")
    return _Renderer(passage, label_side).render()


class _Renderer:
    def __init__(self, passage: Passage, label_side: str):
        self.p = passage
        self.side = label_side
        self.readers: dict[int, dict[tuple[str, ...], list[str]]] = {}  # by text length

    def render(self) -> str:
        """Write the passage in one left-to-right sweep over its tokens.

        Every fragment opens before its first token and closes after its
        last.  Fragments that open or close at the same token are nested,
        so pre-order opens the outer one first and the reverse order
        closes the inner one first.  Each token is written once, inside
        the innermost open fragment.
        """
        p = self.p
        tokens = p.tokens
        for tok in tokens:
            if _DELIMITED.search(tok.text):
                raise RenderError(f"token {tok.text!r} contains notation delimiters or spaces")
        frags = self._fragments()
        for uid, unit in p.units.items():
            if unit.kind == INTERNAL and not frags[uid] and uid != p.root:
                raise RenderError(f"unit {uid} covers no tokens and cannot be written")

        # Each bracketed unit's label and UNA mark, and the fragments that
        # open and close at each token, outer ones first.
        labels: dict[str, str] = {}
        una: set[str] = set()
        opens: list[list[tuple[str, int]]] = [[] for _ in tokens]
        closes: list[list[tuple[str, int]]] = [[] for _ in tokens]
        for uid, unit in p.units.items():
            if uid != p.root:
                for k, (first, last) in enumerate(frags[uid]):
                    opens[first].append((uid, k))
                    closes[last].append((uid, k))
            groups: dict[str, list[str]] = {}
            for e in unit.outgoing:
                if e.remote or not frags[e.child]:
                    continue
                labels[e.child] = label = self._label_text(e)
                if UNA_MARKER in e.categories:
                    una.add(e.child)
                if len(frags[e.child]) > 1:
                    groups.setdefault(label, []).append(e.child)
            for members in groups.values():
                if len(members) > 1:
                    members.sort(key=lambda cid: frags[cid][0][0])
                    for n, cid in enumerate(members, start=1):
                        labels[cid] += str(n)

        out: list[str] = []
        glue = ""  # opening brackets still waiting for their first piece
        unwritten: list[str | None] = []  # each open fragment's label, until written
        for pos, tok in enumerate(tokens):
            for uid, k in opens[pos]:
                label = labels[uid]
                if len(frags[uid]) > 1:
                    label = f"{label}-" if k == 0 else f"-{label}"
                # A leading label-shaped word would win label detection, so
                # such a terminal falls back to a left-side label.
                if self.side == "left" or (
                    p.units[uid].kind == TERMINAL and _classify(tok.text) == LABEL
                ):
                    out.append(f"{glue}[{label}")
                    glue, label = "", None
                else:
                    glue += "["
                unwritten.append(label)
            out.append(glue + tok.text)
            glue = ""
            for uid, k in reversed(closes[pos]):
                label = unwritten.pop()
                if k == 0 and uid in una:
                    out.append(UNA_MARKER)
                elif p.units[uid].kind == TERMINAL and tok.text == UNA_MARKER:
                    raise RenderError(
                        f"unit {uid} ends with the literal word 'UNA', which the notation reserves"
                    )
                elif label is None and out[-2] == UNA_MARKER and _classify(out[-1]) == LABEL:
                    # A terminal with its label written first would end "UNA <label>]".
                    raise RenderError(
                        f"unit {uid} ends with the literal words 'UNA {tok.text}', which the"
                        " notation reads as the unanalyzable mark and a label"
                    )
                if label is not None:
                    out.append(label)
                if k == len(frags[uid]) - 1:
                    out.extend(self._paren_texts(uid))
                out[-1] += "]"
        out.extend(self._paren_texts(p.root))
        return " ".join(out)

    def _fragments(self) -> dict[str, list[tuple[int, int]]]:
        """Each unit's fragments as (first, last) token positions.

        A fragment is a maximal run of the unit's tokens with only
        punctuation between them.  Pre-order ids put children before
        parents in reverse, so an internal unit merges the fragments of
        its primary children.
        """
        p = self.p
        words_before = list(accumulate((not t.is_punct for t in p.tokens), initial=0))
        frags: dict[str, list[tuple[int, int]]] = {}
        for uid in reversed(p.units):
            unit = p.units[uid]
            if unit.kind == TERMINAL:
                runs = [(pos, pos) for pos in sorted(unit.tokens)]
            else:
                runs = sorted(f for e in unit.outgoing if not e.remote for f in frags[e.child])
            merged = frags[uid] = []
            for first, last in runs:
                if merged and words_before[first] == words_before[merged[-1][1] + 1]:
                    merged[-1] = (merged[-1][0], last)
                else:
                    merged.append((first, last))
        return frags

    def _label_text(self, edge) -> str:
        plain = [l for l in edge.categories.labels if l != UNA_MARKER]
        # An edge carrying only UNA cannot be built, so plain is never empty.
        return "+".join(plain)

    def _paren_texts(self, uid: str) -> list[str]:
        p = self.p
        out = []
        for e in p.units[uid].outgoing:
            if e.remote:
                text = self._text(e.child)
                if not text:
                    raise RenderError(
                        f"remote target {e.child} has no surface text to refer to it by"
                    )
                if text == (IMPLICIT_MARKER,):
                    raise RenderError(
                        "remote target reads 'IMP', which the notation reserves"
                    )
                self._check_unambiguous(uid, e.child, text)
                out.append(f"({' '.join(text)} {e.categories.notation()})")
            elif p.units[e.child].kind == IMPLICIT:
                out.append(f"({IMPLICIT_MARKER} {e.categories.notation()})")
        return out

    def _check_unambiguous(self, owner: str, target: str, text: tuple[str, ...]) -> None:
        # Re-run the reference resolution a reader would apply; unless it
        # lands on exactly one unit, the remote cannot be written as text.
        p = self.p
        readers = self.readers.get(len(text))
        if readers is None:
            readers = self.readers[len(text)] = {}
            for uid in p.units:
                if len(p.extents[uid]) == len(text):
                    readers.setdefault(self._text(uid), []).append(uid)
        minimal = _minimal_readers(readers, text, owner, self._parent)
        if len(minimal) != 1:
            raise RenderError(
                f"{len(minimal)} units read {' '.join(text)!r}; the remote reference to"
                f" {target} would be ambiguous"
            )

    def _text(self, uid: str) -> tuple[str, ...]:
        return tuple(self.p.tokens[pos].text for pos in sorted(self.p.extents[uid]))

    def _parent(self, uid: str) -> str | None:
        edge = self.p.primary_parent_edge(uid)
        return edge and edge.parent
