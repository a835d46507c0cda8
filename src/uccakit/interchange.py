"""Canonical JSON interchange for passages.

A document stores the token stream plus flat unit and edge tables; the
root and the order of children are both recoverable from unit ids, which
`build_passage` assigns densely in pre-order.  Serialization is
canonical: UTF-8, sorted keys, two-space indent, a single trailing
newline, tokens in position order, units and edges sorted by id.  Two
equal passages therefore serialize to identical bytes, and serializing a
just-deserialized document reproduces its bytes exactly.
"""

from __future__ import annotations

import json

from .categories import CategorySet, InvalidCategory
from .core import (
    IMPLICIT,
    INTERNAL,
    TERMINAL,
    EdgeSpec,
    Passage,
    Token,
    UccaError,
    UnitSpec,
    build_passage,
    id_key,
)

FORMAT_VERSION = "1"
FILE_EXTENSION = ".ucca.json"


class MalformedDocument(UccaError):
    """The input is not a well-formed interchange document."""


class UnsupportedVersion(MalformedDocument):
    """The document declares a format version this code does not read."""


def canonical_json_bytes(obj) -> bytes:
    text = json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2)
    return (text + "\n").encode("utf-8")


def to_interchange(passage: Passage) -> bytes:
    units = [
        {
            "id": unit.id,
            "kind": unit.kind,
            "tokens": sorted(unit.tokens),
        }
        for unit in sorted(passage.units.values(), key=lambda u: id_key(u.id))
    ]
    edges = [
        {
            "parent": e.parent,
            "child": e.child,
            "categories": list(e.categories.labels),
            "remote": e.remote,
        }
        for e in sorted(passage.edges(), key=lambda e: (id_key(e.parent), id_key(e.child)))
    ]
    doc = {
        "format_version": FORMAT_VERSION,
        "id": passage.id,
        "tokens": [{"text": t.text, "is_punct": t.is_punct} for t in passage.tokens],
        "units": units,
        "edges": edges,
    }
    return canonical_json_bytes(doc)


def _fail(message: str) -> None:
    raise MalformedDocument(message)


def _field(obj: dict, key: str, kind: type, where: str):
    if key not in obj:
        _fail(f"{where} is missing {key!r}")
    value = obj[key]
    if kind is bool:
        if not isinstance(value, bool):
            _fail(f"{where}: {key!r} must be a boolean")
    elif not isinstance(value, kind) or isinstance(value, bool):
        _fail(f"{where}: {key!r} must be {kind.__name__}")
    return value


def from_interchange(data: bytes | str) -> Passage:
    """Parse interchange bytes into a passage.

    Structural problems in the decoded tables surface as the usual
    build errors; problems with the document itself (encoding, JSON,
    schema, version) raise MalformedDocument.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            _fail(f"not valid UTF-8: {exc}")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        _fail(f"not valid JSON: {exc}")
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
        text = _field(entry, "text", str, f"token {i}")
        is_punct = entry.get("is_punct", False)
        if not isinstance(is_punct, bool):
            _fail(f"token {i}: 'is_punct' must be a boolean")
        tokens.append(Token(text, i, is_punct))

    raw_units = _field(doc, "units", list, "document")
    units = []
    for i, entry in enumerate(raw_units):
        if not isinstance(entry, dict):
            _fail(f"unit {i} must be an object")
        uid = _field(entry, "id", str, f"unit {i}")
        kind = _field(entry, "kind", str, f"unit {i}")
        if kind not in (TERMINAL, INTERNAL, IMPLICIT):
            _fail(f"unit {uid!r} has unknown kind {kind!r}")
        positions = entry.get("tokens", [])
        if not isinstance(positions, list) or not all(
            isinstance(p, int) and not isinstance(p, bool) for p in positions
        ):
            _fail(f"unit {uid!r}: 'tokens' must be a list of integers")
        units.append(UnitSpec(uid, kind, tuple(positions)))

    raw_edges = _field(doc, "edges", list, "document")
    edges = []
    for i, entry in enumerate(raw_edges):
        if not isinstance(entry, dict):
            _fail(f"edge {i} must be an object")
        parent = _field(entry, "parent", str, f"edge {i}")
        child = _field(entry, "child", str, f"edge {i}")
        labels = _field(entry, "categories", list, f"edge {i}")
        remote = entry.get("remote", False)
        if not isinstance(remote, bool):
            _fail(f"edge {i}: 'remote' must be a boolean")
        try:
            categories = CategorySet(labels)
        except InvalidCategory as exc:
            _fail(f"edge {i}: {exc}")
        edges.append(EdgeSpec(parent, child, categories, remote))

    # Sorting primary edges by child id recreates each unit's child order
    # for documents we wrote, since pre-order numbering follows it.
    edges.sort(key=lambda e: (id_key(e.parent), id_key(e.child)))
    return build_passage(
        tokens, units, edges, passage_id=passage_id, require_coverage=False
    )
