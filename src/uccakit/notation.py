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
from itertools import accumulate, repeat
from operator import attrgetter

from .categories import ALL_LABELS, CategorySet, InvalidCategory, canonical_set
from .core import (
    Edge,
    IMPLICIT,
    INTERNAL,
    Passage,
    TERMINAL,
    Token,
    UccaError,
    _assemble,
    _extents,
    _gc_paused,
    _remote_cycle,
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
# A delimiter, or a run of anything else up to whitespace, captured so
# that `split` keeps it.  On str patterns `\s` matches exactly the
# characters for which str.isspace() is true.
_TOKEN = re.compile(r"([\[\]()]|[^\s\[\]()]+)")
_DELIMITED = re.compile(r"[\[\]()\s]")

_LABEL_SHAPE = re.compile(r"^(-)?([A-Z]+(?:\+[A-Z]+)*)(\d+)?(-)?$")
# The whole text of a label token: known categories joined by "+", an
# optional digit index, and a dash at one end at most.
_LABEL_TEXT = re.compile(r"(?!-.*-\Z)-?(?:{0})(?:\+(?:{0}))*\d*-?".format("|".join(ALL_LABELS)))

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


@_gc_paused
def lex(source: str) -> list[NotationToken]:
    """Split source into bracket, paren, label and word tokens.

    Brackets and parens are always single-character tokens; everything
    else splits on whitespace.  A token whose text matches the label
    pattern (category abbreviations joined by "+", optional digit index,
    at most one leading or trailing dash) gets the label kind; whether it
    acts as a label is decided by its position during parsing.
    """
    # Whitespace runs and tokens alternate; their running UTF-8 widths are
    # the byte offsets, and character counts are those widths in ASCII.
    parts = _TOKEN.split(source)
    if source.isascii():
        widths = map(len, parts)
    else:
        try:
            widths = list(map(len, map(str.encode, parts)))
        except UnicodeEncodeError:
            at = 0  # only a word can hold a lone surrogate; whitespace cannot
            for part in parts:
                try:
                    at += len(part.encode())
                except UnicodeEncodeError:
                    raise ParseError(
                        "not valid Unicode: a word holds a lone surrogate", position=at
                    ) from None
    offsets = list(accumulate(widths, initial=0))
    texts = parts[1::2]
    # Token text -> kind, for this source only; any other text is a word.
    kind_of = {**_DELIMS, **dict.fromkeys(filter(_LABEL_TEXT.fullmatch, set(texts)), LABEL)}
    kinds = map(kind_of.get, texts, repeat(WORD))
    return list(map(NotationToken, kinds, texts, offsets[1::2], offsets[2::2]))


def _is_punct_text(text: str) -> bool:
    # No alphanumeric character is Unicode punctuation (checked over all code points).
    return not text.isalnum() and all(unicodedata.category(ch).startswith("P") for ch in text)


@value_type
class _Label:
    """One label text, parsed once and shared by every group using it."""

    text: str
    cats: CategorySet
    index: str | None
    open_dash: bool
    close_dash: bool


class _RawParen:
    __slots__ = ("words", "cats", "start")

    def __init__(self, words: list[str], cats: CategorySet, start: int):
        self.words, self.cats, self.start = words, cats, start


class _Node:
    """One bracket group; after `_resolve`, one unit.  The root has no label.

    Nodes link only downwards, so a parse tree holds no reference cycle
    and is freed as soon as the parse is done with it.
    """

    __slots__ = ("start", "words", "children", "parens", "label", "label_at", "una",
                 "positions", "uid", "outgoing")

    def __init__(self, start: int):
        self.start = start
        self.words: list[NotationToken] = []
        self.children: list[_Node] = []
        self.parens: list[_RawParen] = []
        self.label: _Label | None = None
        self.label_at = 0  # the label token's byte offset
        self.una = False
        self.positions: tuple[int, ...] = ()  # a terminal's, never empty
        self.uid = ""  # the unit's pre-order id, and its `Edge`s, once numbered
        self.outgoing: list | None = None


# The labels that parses build, shared by the whole process and keyed by
# their text.  Only a label with no digit index, whose text with its one
# dash at most is its set's canonical notation, is stored, and a failing
# label never is: at most three entries per valid category set.
_LABELS: dict[str, _Label] = {}


def _parse_label_token(tok: NotationToken) -> _Label:
    """The label `tok` spells, from the process's label table if it is there."""
    label = _LABELS.get(tok.text)
    if label is None:
        m = _LABEL_SHAPE.match(tok.text)
        try:
            cats = canonical_set(m.group(2).split("+"))
        except InvalidCategory as exc:
            raise ParseError(str(exc), position=tok.start) from None
        label = _Label(tok.text, cats, m.group(3), bool(m.group(4)), bool(m.group(1)))
        if m.group(3) is None and m.group(2) == cats.notation():
            _LABELS[tok.text] = label
    return label


def _label_hint(picks) -> None:
    """Raise the most helpful error for a bracket whose end words, `picks`, hold no label."""
    for pick in picks:
        if pick is not None and pick.kind == WORD and _LABEL_SHAPE.match(pick.text):
            raise UnknownCategoryLabel(
                f"{pick.text!r} is not a known category label", position=pick.start
            )


def _parse_tree(source: str) -> _Node:
    """The unlabeled root over the bracket groups of `source`, unresolved.

    One pass per group: each open group, the root at the bottom of the
    stack, sorts its words, child groups and round-bracket groups into
    its own lists as they arrive, and `_finish_group` labels it at its ']'.
    """
    toks = iter(lex(source))
    node = _Node(0)
    stack: list[_Node] = []  # the groups enclosing `node`
    for tok in toks:
        kind = tok.kind
        if kind == WORD or kind == LABEL:
            node.words.append(tok)
        elif kind == LBRACKET:
            stack.append(node)
            node = _Node(tok.start)
            stack[-1].children.append(node)
        elif kind == RBRACKET:
            if not stack:
                raise UnbalancedBrackets(
                    "']' without a matching '['", position=tok.start, found="']'"
                )
            _finish_group(node)
            node = stack.pop()
        elif kind == LPAREN:
            node.parens.append(_read_paren(tok, toks))
        else:
            raise UnbalancedBrackets(
                "')' without a matching '('", position=tok.start, found="')'"
            )
    if stack:
        raise UnbalancedBrackets(
            "bracket opened here is never closed",
            position=node.start,
            expected="']'",
            found="end of input",
        )
    return node


def _finish_group(node: _Node) -> None:
    """Label the group `node` at its ']': one pass per group, so all that is
    left is the label and the UNA mark, words at either end of the group."""
    words, children, parens = node.words, node.children, node.parens
    # Words before the first child or after the last one sit at an end of
    # the group.  Only round-bracket groups may follow a round-bracket group.
    after = children[-1].start if children else -1
    if parens and max(after, words[-1].start if words else -1) > parens[0].start:
        raise MisplacedRemote(
            "round-bracket group must come at the end of its unit",
            position=parens[0].start,
        )

    # The word "UNA" always lexes as a label.
    if words and words[-1].start > after and words[-1].text == UNA_MARKER:
        words.pop()
        node.una = True
    elif len(words) > 1 and words[-2].start > after and words[-2].text == UNA_MARKER:
        if words[-1].kind == LABEL:
            del words[-2]
            node.una = True

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
            position=node.start,
            expected="a label just inside '[' or just before ']'",
        )
    node.label = label = _parse_label_token(label_tok)
    node.label_at = label_tok.start
    if not words and not children and not parens and not (label.open_dash or label.close_dash):
        raise ParseError(
            "category label without any text; write the label beside its text,"
            " as in [A apple]",
            position=label_tok.start,
        )


def _read_paren(open_tok: NotationToken, toks) -> _RawParen:
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
    label = _parse_label_token(label_tok)
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
                        f"'{lab.text}' opened while an earlier fragment with the"
                        " same label is still open; use digit indices such as A1- and A2-",
                        position=target.label_at,
                    )
                scope[key] = target
                unfinished[target] = target.label_at
            continue
        lab = g.label
        if lab.close_dash:
            node = scopes.get(target, {}).get((lab.cats.labels, lab.index))
            if node is None:
                raise OrphanContinuation(
                    f"continuation '-{lab.text.lstrip('-')}' has no open fragment"
                    " among its siblings",
                    position=g.label_at,
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


def _reader_index(texts, extents, widths) -> dict[tuple[str, ...], list[str]]:
    """Each surface text, a tuple of `texts` items, mapped to the units
    reading it, among the units whose extent has a width in `widths`."""
    readers: dict[tuple[str, ...], list[str]] = {}
    for uid, extent in extents.items():
        if len(extent) in widths:
            readers.setdefault(tuple([texts[pos] for pos in sorted(extent)]), []).append(uid)
    return readers


def _minimal_readers(readers, wanted, owner, parent):
    """The units a remote from `owner` reading `wanted` may resolve to.

    `readers` is the `_reader_index` of the passage's units, and `parent`
    gives a unit's primary parent id or None.
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
    `build_passage` checks but acyclicity, which is checked here by the
    same test over the remote edges and the pre-order subtree ranges.
    Like `build_passage`, the call pauses the cyclic garbage collector.
    """
    root = _parse_tree(source)
    parent = _resolve(root)
    start = attrgetter("start")
    word_toks = sorted([*root.words, *(t for n in parent for t in n.words)], key=start)
    punct = {text: _is_punct_text(text) for text in {t.text for t in word_toks}}
    stream = [Token(t.text, pos, punct[t.text]) for pos, t in enumerate(word_toks)]
    position_of = dict(zip(map(start, word_toks), range(len(word_toks))))

    for node in parent:
        if not (node.children or node.parens):
            node.positions = tuple([position_of[t.start] for t in node.words if not punct[t.text]])
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
                cats = canonical_set(cats.labels + (UNA_MARKER,))
            stack.append((child, cats, node))
    extents = _extents(units)
    if not remote_requests:
        return _assemble(passage_id, tuple(stream), units, extents)
    remote_requests.sort(key=lambda request: request[1].start)
    texts = [t.text for t in word_toks]
    readers = _reader_index(texts, extents, {len(paren.words) for _, paren in remote_requests})
    parent_of = {e.child: uid for uid, _, _, outgoing in units for e in outgoing}

    def resolve_remote(owner: _Node, paren: _RawParen) -> str:
        wanted = tuple(paren.words)
        minimal = _minimal_readers(readers, wanted, owner.uid, parent_of.get)
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
        ref = bisect_left(word_toks, paren.start, key=start)
        if on_warning is not None:
            on_warning(
                f"byte {paren.start}: {len(minimal)} units read {' '.join(wanted)!r};"
                " picking the nearest preceding one"
            )
        first = {uid: min(extents[uid]) for uid in minimal}
        before = [uid for uid in minimal if first[uid] < ref]
        return max(before, key=first.get) if before else min(minimal, key=first.get)

    remotes: dict[tuple[str, str], tuple[Edge, _RawParen]] = {}  # in source order
    for owner, paren in remote_requests:
        target = resolve_remote(owner, paren)
        if (owner.uid, target) in remotes:
            raise ParseError(
                f"a second remote group in one unit reads {' '.join(paren.words)!r}",
                position=paren.start,
            )
        edge = Edge(owner.uid, target, paren.cats, True)
        owner.outgoing.append(edge)
        remotes[owner.uid, target] = edge, paren

    pairs = [(int(owner), int(target)) for owner, target in remotes]
    if not _remote_cycle(pairs, units):
        return _assemble(passage_id, tuple(stream), units, extents)
    # Blame the first group, in source order, whose edge closes a cycle with
    # the primary edges and the groups before it: more groups keep a cycle,
    # so the first prefix with one is found by bisection.
    cyclic = bisect_left(range(len(pairs)), True, key=lambda k: _remote_cycle(pairs[:k + 1], units))
    paren = [*remotes.values()][cyclic][1]
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


@_gc_paused
def render(passage: Passage, label_side: str = "left") -> str:
    """Write a passage back into the bracket dialect.

    Output is deterministic and reparses to an isomorphic passage.
    Non-contiguous units come out as dashed fragments, with digit indices
    added whenever two sibling units of the same category are both
    non-contiguous, whether or not their fragments interleave.
    Remote targets are written as the target's surface text, so passages
    in which that text picks out several units cannot round-trip and are
    reported as unrenderable, as are zero-width internal units.

    The passage is written in one left-to-right sweep over its tokens.
    Every fragment opens before its first token and closes after its
    last.  Fragments that open or close at the same token are nested, so
    pre-order opens the outer one first and the reverse order closes the
    inner one first.  Each token is written once, inside the innermost
    open fragment.
    """
    if label_side not in ("left", "right"):
        raise ValueError(f"label_side must be 'left' or 'right', not {label_side!r}")
    p = passage
    tokens, units, extents = p.tokens, p.units, p.extents
    texts = [t.text for t in tokens]
    if _DELIMITED.search("".join(texts)):  # each delimiter is one character
        text = next(text for text in texts if _DELIMITED.search(text))
        raise RenderError(f"token {text!r} contains notation delimiters or spaces")
    frags = _fragments(p)
    for uid, unit in units.items():
        if unit.kind == INTERNAL and not frags[uid] and uid != p.root:
            raise RenderError(f"unit {uid} covers no tokens and cannot be written")

    # Each bracketed unit's label and UNA mark, and the fragments that
    # open and close at each token, outer ones first.
    labels: dict[str, str] = {}
    label_texts: dict[tuple[str, ...], str] = {}  # per label set
    una: set[str] = set()
    parens: set[str] = set()  # units with round-bracket groups
    opens: list[list[tuple[str, int]]] = [[] for _ in tokens]
    closes: list[list[tuple[str, int]]] = [[] for _ in tokens]
    for uid, unit in units.items():
        if uid != p.root:
            for k, (first, last) in enumerate(frags[uid]):
                opens[first].append((uid, k))
                closes[last].append((uid, k))
        groups: dict[str, list[str]] = {}
        for e in unit.outgoing:
            if e.remote or not frags[e.child]:  # a remote or implicit child
                parens.add(uid)
                continue
            cats = e.categories.labels
            label = label_texts.get(cats)
            if label is None:
                # An edge carrying only UNA cannot be built, so this is never empty.
                label = label_texts[cats] = "+".join([l for l in cats if l != UNA_MARKER])
            labels[e.child] = label
            if UNA_MARKER in cats:
                una.add(e.child)
            if len(frags[e.child]) > 1:
                groups.setdefault(label, []).append(e.child)
        for members in groups.values():
            if len(members) > 1:
                members.sort(key=lambda cid: frags[cid][0][0])
                for n, cid in enumerate(members, start=1):
                    labels[cid] += str(n)

    # A remote is written as its target's text, and only if the parser's
    # resolution of that text lands on exactly one unit; like the parser,
    # index the readers of every width the targets have, once.
    widths = {len(extents[e.child]) for uid in parens for e in units[uid].outgoing if e.remote}
    readers = _reader_index(texts, extents, widths) if widths else {}

    def parent(uid: str) -> str | None:
        edge = p.primary_parent_edge(uid)
        return edge and edge.parent

    def paren_texts(uid: str) -> list[str]:
        written = []
        read = set()  # a reader resolves two groups alike when they read alike
        for e in units[uid].outgoing:
            if e.remote:
                text = tuple([texts[pos] for pos in sorted(extents[e.child])])
                if not text:
                    raise RenderError(
                        f"remote target {e.child} has no surface text to refer to it by"
                    )
                if text == (IMPLICIT_MARKER,):
                    raise RenderError("remote target reads 'IMP', which the notation reserves")
                minimal = _minimal_readers(readers, text, uid, parent)
                if len(minimal) != 1:
                    raise RenderError(
                        f"{len(minimal)} units read {' '.join(text)!r}; the remote reference"
                        f" to {e.child} would be ambiguous"
                    )
                if text in read:
                    raise RenderError(f"two remote groups of unit {uid} read {' '.join(text)!r}")
                read.add(text)
                written.append(f"({' '.join(text)} {e.categories.notation()})")
            elif units[e.child].kind == IMPLICIT:
                written.append(f"({IMPLICIT_MARKER} {e.categories.notation()})")
        return written

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
            if label_side == "left" or (
                units[uid].kind == TERMINAL and _LABEL_TEXT.fullmatch(tok.text)
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
            elif units[uid].kind == TERMINAL and tok.text == UNA_MARKER:
                raise RenderError(
                    f"unit {uid} ends with the literal word 'UNA', which the notation reserves"
                )
            elif label is None and out[-2] == UNA_MARKER and _LABEL_TEXT.fullmatch(out[-1]):
                # A terminal with its label written first would end "UNA <label>]".
                raise RenderError(
                    f"unit {uid} ends with the literal words 'UNA {tok.text}', which the"
                    " notation reads as the unanalyzable mark and a label"
                )
            if label is not None:
                out.append(label)
            if k == len(frags[uid]) - 1 and uid in parens:
                out.extend(paren_texts(uid))
            out[-1] += "]"
    if p.root in parens:
        out.extend(paren_texts(p.root))
    return " ".join(out)


def _fragments(p: Passage) -> dict[str, list[tuple[int, int]]]:
    """Each unit's fragments as (first, last) token positions.

    A fragment is a maximal run of the unit's tokens with only
    punctuation between them.  Pre-order ids put children before
    parents in reverse, so an internal unit merges the fragments of
    its primary children.
    """
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
