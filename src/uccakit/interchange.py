"""Canonical JSON interchange for passages.

A document stores the token stream plus flat unit and edge tables; the
root and the order of children are both recoverable from unit ids, which
`build_passage` assigns densely in pre-order.  Serialization is
canonical: UTF-8, sorted keys, two-space indent, a single trailing
newline, tokens in position order, units and edges sorted by id.  Two
equal passages therefore serialize to identical bytes, and serializing a
just-deserialized document reproduces its bytes exactly.

A document whose units are already "0"..."n-1" in pre-order, as the writer
leaves them, loads in one checked pass; any other document goes through
`build_passage`, which renumbers it, and a document that fails a check
goes there too, so that every error is the one `build_passage` raises.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring
from operator import attrgetter

from .categories import InvalidCategory, canonical_set
from .core import (
    FILE_EXTENSION,  # re-exported: it names this module's files
    IMPLICIT,
    INTERNAL,
    TERMINAL,
    Edge,
    EdgeSpec,
    Passage,
    RemoteCycle,
    Token,
    UccaError,
    UnitSpec,
    _assemble,
    _check_dag,
    _extents,
    _gc_paused,
    build_passage,
    id_key,
)

FORMAT_VERSION = "1"


class MalformedDocument(UccaError):
    """The input is not a well-formed interchange document."""


class UnsupportedVersion(MalformedDocument):
    """The document declares a format version this code does not read."""


def canonical_json_bytes(obj) -> bytes:
    text = json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2)
    return (text + "\n").encode("utf-8")


def _array(items: list[str], indent: str) -> str:
    """Encoded items laid out as `json.dumps(indent=2)` lays out a list
    whose opening bracket sits at depth `indent`."""
    if not items:
        return "[]"
    step = "\n" + indent + "  "
    return "[" + step + ("," + step).join(items) + "\n" + indent + "]"


# The writer's fixed pieces: JSON booleans and token heads by flag, and
# each canonical label tuple's array, built on its first use.
_BOOLS = ("false", "true")
_TOKEN_HEADS = tuple(f'{{\n      "is_punct": {flag},\n      "text": ' for flag in _BOOLS)
_is_remote = attrgetter("remote")


class _LabelArrays(dict):
    def __missing__(self, labels: tuple[str, ...]) -> str:
        self[labels] = text = _array([encode_basestring(c) for c in labels], "      ")
        return text


_LABEL_ARRAYS = _LabelArrays()


def _positions(tokens: frozenset[int]) -> str:
    """A unit's token positions, laid out as `_array` would."""
    if not tokens:
        return "[]"
    return "[\n        " + ",\n        ".join(map(str, sorted(tokens))) + "\n      ]"


def _by_child(outgoing: tuple[Edge, ...]) -> tuple[Edge, ...] | list[Edge]:
    """A unit's edges by child id.  Every builder lists the primary children
    in id order, so only a unit with a remote edge needs sorting."""
    if True in map(_is_remote, outgoing):
        return sorted(outgoing, key=lambda e: id_key(e.child))
    return outgoing


def to_interchange(passage: Passage) -> bytes:
    """The canonical document of the passage.

    The result is `canonical_json_bytes` of the document's dict, but the
    fixed schema is laid out here directly: `json.dumps` only uses its C
    encoder without `indent`, and its pure-Python indenting encoder would
    dominate the cost.  Strings go through the same C escaper.  Edges are
    written unit by unit in id order, each unit's by child id.
    """
    enc = encode_basestring
    units = passage.units.values()
    tokens = [f"{_TOKEN_HEADS[t.is_punct]}{enc(t.text)}\n    }}" for t in passage.tokens]
    unit_texts = [
        f'{{\n      "id": {enc(u.id)},\n      "kind": {enc(u.kind)},\n'
        f'      "tokens": {_positions(u.tokens)}\n    }}'
        for u in units
    ]
    edges = [
        f'{{\n      "categories": {_LABEL_ARRAYS[e.categories.labels]},'
        f'\n      "child": {enc(e.child)},\n      "parent": {enc(e.parent)},'
        f'\n      "remote": {_BOOLS[e.remote]}\n    }}'
        for u in units
        for e in _by_child(u.outgoing)
    ]
    text = (
        f'{{\n  "edges": {_array(edges, "  ")},\n  "format_version": {enc(FORMAT_VERSION)},'
        f'\n  "id": {enc(passage.id)},\n  "tokens": {_array(tokens, "  ")},'
        f'\n  "units": {_array(unit_texts, "  ")}\n}}\n'
    )
    return text.encode("utf-8")


def _fail(message: str) -> None:
    raise MalformedDocument(message)


def _field(obj: dict, key: str, kind: type, what: str, index: int | None = None):
    """obj[key], checked to be of `kind`.  The failure message names the
    record as `what` or `what index`; it is only formatted on failure."""
    if key not in obj:
        _fail(f"{_where(what, index)} is missing {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        _fail(f"{_where(what, index)}: {key!r} must be {kind.__name__}")
    return value


def _where(what: str, index: int | None) -> str:
    return what if index is None else f"{what} {index}"


@_gc_paused
def from_interchange(data: bytes | str) -> Passage:
    """Parse interchange bytes into a passage.

    Structural problems in the decoded tables surface as the usual
    build errors; problems with the document itself (encoding, JSON,
    schema, version) raise MalformedDocument.  Like `build_passage`, the
    call pauses the cyclic garbage collector.
    """
    if isinstance(data, bytes):
        try:
            source = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            _fail(f"not valid UTF-8: {exc}")
    else:
        source = data
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        _fail(f"not valid JSON: {exc}")
    except RecursionError:
        _fail("not valid JSON: nested too deeply")
    # A lone surrogate, raw in a str or decoded from a \uXXXX escape, fits
    # no UTF-8 output.  Canonical documents are raw UTF-8 and skip this.
    if source is data or "\\ud" in source or "\\uD" in source:
        try:
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError:
            _fail("not valid Unicode: a string holds a lone surrogate")
    if not isinstance(doc, dict):
        _fail("document must be a JSON object")

    version = doc.get("format_version")
    if not isinstance(version, str):
        _fail("document is missing a format_version string")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(
            f"format_version {version!r} is not supported; this reader handles {FORMAT_VERSION!r}"
        )

    passage_id = doc.get("id", "passage")
    if not isinstance(passage_id, str):
        _fail("'id' must be a string")

    raw_tokens = _field(doc, "tokens", list, "document")
    tokens = []
    for i, entry in enumerate(raw_tokens):
        if not isinstance(entry, dict):
            _fail(f"token {i} must be an object")
        text = _field(entry, "text", str, "token", i)
        is_punct = entry.get("is_punct", False)
        if not isinstance(is_punct, bool):
            _fail(f"token {i}: 'is_punct' must be a boolean")
        tokens.append(Token(text, i, is_punct))

    # Decoded JSON holds exact types, so `type(x) is str` is the isinstance
    # test; `_field` is called only to raise its message.
    raw_units = _field(doc, "units", list, "document")
    units = []
    for i, entry in enumerate(raw_units):
        if not isinstance(entry, dict):
            _fail(f"unit {i} must be an object")
        uid, kind = entry.get("id"), entry.get("kind")
        if type(uid) is not str or kind not in (TERMINAL, INTERNAL, IMPLICIT):
            _field(entry, "id", str, "unit", i)
            _field(entry, "kind", str, "unit", i)
            _fail(f"unit {uid!r} has unknown kind {kind!r}")
        positions = entry.get("tokens", [])
        # The exact type test excludes bools too.
        if type(positions) is not list or positions and not all(type(p) is int for p in positions):
            _fail(f"unit {uid!r}: 'tokens' must be a list of integers")
        units.append((uid, kind, positions))

    raw_edges = _field(doc, "edges", list, "document")
    edges = []
    for i, entry in enumerate(raw_edges):
        if not isinstance(entry, dict):
            _fail(f"edge {i} must be an object")
        parent, child, labels = entry.get("parent"), entry.get("child"), entry.get("categories")
        if type(parent) is not str or type(child) is not str or type(labels) is not list:
            for key, kind in (("parent", str), ("child", str), ("categories", list)):
                _field(entry, key, kind, "edge", i)
        remote = entry.get("remote", False)
        if not isinstance(remote, bool):
            _fail(f"edge {i}: 'remote' must be a boolean")
        try:
            categories = canonical_set(labels)
        except InvalidCategory as exc:
            _fail(f"edge {i}: {exc}")
        edges.append((parent, child, categories, remote))

    tokens = tuple(tokens)
    passage = _load_in_preorder(passage_id, tokens, units, edges)
    if passage is not None:
        return passage
    # Sorting primary edges by child id recreates each unit's child order
    # for documents we wrote, since pre-order numbering follows it.
    edges.sort(key=lambda e: (id_key(e[0]), id_key(e[1])))
    units = [UnitSpec(uid, kind, tuple(positions)) for uid, kind, positions in units]
    edges = [EdgeSpec(*e) for e in edges]
    return build_passage(tokens, units, edges, passage_id=passage_id, require_coverage=False)


def _load_in_preorder(passage_id, tokens, units, edges) -> Passage | None:
    """The passage of a document whose units are "0"..."n-1" in pre-order,
    or None if they are not or if `build_passage` would raise: one pass over
    the edges and one over the units make every check it makes on them."""
    n = len(units)
    ids = [uid for uid, _, _ in units]
    if not n or ids != list(map(str, range(n))) or not all([t.text for t in tokens]):
        return None
    index = dict(zip(ids, range(n)))
    outgoing: list[list[Edge]] = [[] for _ in ids]
    parent_of: list[int | None] = [None] * n
    remotes = set()
    # The writer lists edges by parent, then child; other orders are sorted.
    last = unsorted = 0
    for parent, child, categories, remote in edges:
        p, c = index.get(parent), index.get(child)
        if p is None or c is None:
            return None
        if remote:
            if p == c or (p, c) in remotes:
                return None
            remotes.add((p, c))
        elif parent_of[c] is None:
            parent_of[c] = p
        else:
            return None
        key = p * n + c
        unsorted += key < last
        last = key
        outgoing[p].append(Edge(parent, child, categories, remote))
    if unsorted:
        for out in outgoing:
            out.sort(key=lambda e: index[e.child])
    if any(parent_of[c] in (None, p) for p, c in remotes):
        return None
    if units[0][1] != INTERNAL or parent_of[0] is not None:
        return None

    # Ids are in pre-order exactly when each unit's primary parent lies on
    # the path from the root to the unit before it.
    path: list[int] = []
    claimed = bytearray(len(tokens))
    for i, (_, kind, positions) in enumerate(units):
        parent = parent_of[i]
        while path and path[-1] != parent:
            path.pop()
        if i and not path:
            return None
        path.append(i)
        out = outgoing[i]
        if kind == TERMINAL:
            if out or not positions:
                return None
            for pos in positions:
                if not 0 <= pos < len(tokens) or tokens[pos].is_punct or claimed[pos]:
                    return None
                claimed[pos] = 1
        elif positions or (kind == IMPLICIT and out) or (kind == INTERNAL and i and not out):
            return None
    if remotes:
        try:
            _check_dag(ids, dict(zip(ids, outgoing)))
        except RemoteCycle:
            return None
    units = [(*unit, out) for unit, out in zip(units, outgoing)]
    return _assemble(passage_id, tokens, units, _extents(units))
