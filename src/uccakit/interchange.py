"""Canonical JSON interchange for passages.

A document stores the token stream plus flat unit and edge tables; the
root and the order of children are both recoverable from unit ids, which
`build_passage` assigns densely in pre-order.  Serialization is
canonical: UTF-8, sorted keys, two-space indent, a single trailing
newline, tokens in position order, units and edges sorted by id.  Two
equal passages therefore serialize to identical bytes, and serializing a
just-deserialized document reproduces its bytes exactly.

Loading checks the decoded tables with the checker behind `build_passage`,
so a document fails with the error `build_passage` raises for the same
tables.  Units already "0"..."n-1" in pre-order, as the writer leaves them,
keep their ids; any others are renumbered.
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
    Passage,
    Token,
    UccaError,
    _build,
    _gc_paused,
    build_passage,  # unused here; bench/tracing.py patches this name
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


@_gc_paused
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
    record as `what` or `what index`."""
    where = what if index is None else f"{what} {index}"
    if key not in obj:
        _fail(f"{where} is missing {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        _fail(f"{where}: {key!r} must be {kind.__name__}")
    return value


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

    # Decoded JSON holds exact types, so `type(x) is str` is the isinstance
    # test; `_field` is called only to raise its message.
    raw_tokens = _field(doc, "tokens", list, "document")
    tokens = []
    for i, entry in enumerate(raw_tokens):
        if type(entry) is not dict:
            _fail(f"token {i} must be an object")
        text, is_punct = entry.get("text"), entry.get("is_punct", False)
        if type(text) is not str:
            _field(entry, "text", str, "token", i)
        if type(is_punct) is not bool:
            _fail(f"token {i}: 'is_punct' must be a boolean")
        tokens.append(Token(text, i, is_punct))

    raw_units = _field(doc, "units", list, "document")
    units = []
    for i, entry in enumerate(raw_units):
        if type(entry) is not dict:
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
        if type(entry) is not dict:
            _fail(f"edge {i} must be an object")
        parent, child, labels = entry.get("parent"), entry.get("child"), entry.get("categories")
        if type(parent) is not str or type(child) is not str or type(labels) is not list:
            for key, kind in (("parent", str), ("child", str), ("categories", list)):
                _field(entry, key, kind, "edge", i)
        remote = entry.get("remote", False)
        if type(remote) is not bool:
            _fail(f"edge {i}: 'remote' must be a boolean")
        try:
            categories = canonical_set(labels)
        except InvalidCategory as exc:
            _fail(f"edge {i}: {exc}")
        edges.append((parent, child, categories, remote))
    tokens = tuple(tokens)
    # Children come in id order.  Edges out of the writer's order are sorted
    # by parent, then child id, which puts each unit's children in order.
    passage = _build(passage_id, tokens, units, edges, False, writer_order=True)
    if passage is None:
        edges.sort(key=lambda e: (id_key(e[0]), id_key(e[1])))
        passage = _build(passage_id, tokens, units, edges, False)
    return passage
