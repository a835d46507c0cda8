import json
import os
import subprocess
import sys

import pytest
from hypothesis import given

from uccakit import (
    FILE_EXTENSION,
    FORMAT_VERSION,
    IMPLICIT,
    INTERNAL,
    TERMINAL,
    EdgeSpec,
    InvalidCategory,
    InvalidUnit,
    MalformedDocument,
    Token,
    UccaError,
    UnitSpec,
    UnsupportedVersion,
    build_passage,
    canonical_json_bytes,
    from_interchange,
    isomorphic,
    parse_passage,
    split_passages,
    to_interchange,
    validate,
)
from uccakit.core import id_key

from conftest import CORPUS, FIXTURES, SRC, corpus_ids, layer_memory, long_source
from strategies import passages
from test_notation import renumbered

EXPECTED_SMALL = """\
{
  "edges": [
    {
      "categories": [
        "H"
      ],
      "child": "1",
      "parent": "0",
      "remote": false
    },
    {
      "categories": [
        "A"
      ],
      "child": "2",
      "parent": "1",
      "remote": false
    }
  ],
  "format_version": "1",
  "id": "passage",
  "tokens": [
    {
      "is_punct": false,
      "text": "apple"
    }
  ],
  "units": [
    {
      "id": "0",
      "kind": "internal",
      "tokens": []
    },
    {
      "id": "1",
      "kind": "internal",
      "tokens": []
    },
    {
      "id": "2",
      "kind": "terminal",
      "tokens": [
        0
      ]
    }
  ]
}
"""


def small_doc(**replace):
    doc = json.loads(EXPECTED_SMALL)
    doc.update(replace)
    return canonical_json_bytes(doc)


class TestCanonicalBytes:
    def test_golden_small_passage(self):
        data = to_interchange(parse_passage("[H [A apple] ]"))
        assert data.decode("utf-8") == EXPECTED_SMALL

    def test_trailing_newline_and_no_ascii_escapes(self):
        data = canonical_json_bytes({"text": "café"})
        assert data.endswith(b"\n")
        assert "café".encode("utf-8") in data

    def test_keys_sorted(self):
        data = canonical_json_bytes({"b": 1, "a": 2})
        assert data.index(b'"a"') < data.index(b'"b"')

    def test_non_ascii_token_survives(self):
        p = parse_passage("[H [A café] [P closed] ]")
        q = from_interchange(to_interchange(p))
        assert [t.text for t in q.tokens] == ["café", "closed"]

    def test_extension_constant(self):
        assert FILE_EXTENSION == ".ucca.json"
        assert FORMAT_VERSION == "1"


def oracle_bytes(passage):
    """The document as a dict, serialized by `canonical_json_bytes`: the
    reference the hand-laid-out writer must match byte for byte."""
    doc = {
        "format_version": FORMAT_VERSION,
        "id": passage.id,
        "tokens": [{"text": t.text, "is_punct": t.is_punct} for t in passage.tokens],
        "units": [
            {"id": u.id, "kind": u.kind, "tokens": sorted(u.tokens)}
            for u in sorted(passage.units.values(), key=lambda u: id_key(u.id))
        ],
        "edges": [
            {
                "parent": e.parent,
                "child": e.child,
                "categories": list(e.categories.labels),
                "remote": e.remote,
            }
            for e in sorted(passage.edges(), key=lambda e: (id_key(e.parent), id_key(e.child)))
        ],
    }
    return canonical_json_bytes(doc)


def fixture_passages(path):
    found = []
    for i, chunk in enumerate(split_passages(path.read_text(encoding="utf-8"))):
        try:
            found.append(parse_passage(chunk, passage_id=f"{path.stem}.{i}", lenient_remotes=True))
        except UccaError:
            pass  # the edge fixtures include deliberately unparsable text
    return found


FIXTURE_FILES = [path for path in sorted(FIXTURES.rglob("*.txt")) if fixture_passages(path)]

AWKWARD_TEXTS = [
    'say "hi"',
    "back\\slash",
    "tab\there",
    "nul\x00bell\x07esc\x1bdel\x7f",
    "line\u2028para\u2029",
    "café",
    "日本語",
    "\U0001f600",
]


class TestWriterMatchesOracle:
    @pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.name)
    def test_fixtures(self, path):
        for p in fixture_passages(path):
            assert to_interchange(p) == oracle_bytes(p)

    def test_every_corpus_fixture_is_checked(self):
        assert set(CORPUS) <= set(FIXTURE_FILES)

    @given(passages())
    def test_generated_passages(self, p):
        assert to_interchange(p) == oracle_bytes(p)

    def test_escaped_and_non_ascii_text(self):
        tokens = [Token(text, i) for i, text in enumerate(AWKWARD_TEXTS)]
        units = [UnitSpec("r", "internal")] + [
            UnitSpec(f"t{i}", "terminal", (i,)) for i in range(len(tokens))
        ]
        edges = [EdgeSpec("r", f"t{i}", "A") for i in range(len(tokens))]
        p = build_passage(tokens, units, edges, passage_id='id "\\" \u2028 é')
        data = to_interchange(p)
        assert data == oracle_bytes(p)
        assert [t.text for t in from_interchange(data).tokens] == AWKWARD_TEXTS

    def test_no_edges(self):
        p = build_passage(
            [Token("stray", 0)], [UnitSpec("r", "internal")], [], require_coverage=False
        )
        data = to_interchange(p)
        assert data == oracle_bytes(p)
        assert b'"edges": []' in data and b'"tokens": []' in data

    def test_no_tokens(self):
        p = build_passage(
            [], [UnitSpec("r", "internal"), UnitSpec("i", "implicit")], [EdgeSpec("r", "i", "A")]
        )
        data = to_interchange(p)
        assert data == oracle_bytes(p)
        assert b'"tokens": []' in data and b'"edges": [' in data



class TestWriterEdgeOrder:
    """A remote edge may target a lower id than its parent's primary
    children; the writer still lists each parent's edges by child id."""

    def edge_pairs(self, data):
        return [(e["parent"], e["child"]) for e in json.loads(data)["edges"]]

    def test_remote_spec_before_the_primary_ones(self):
        tokens = [Token(w, i) for i, w in enumerate(["x", "y", "z"])]
        units = [UnitSpec("r", "internal"), UnitSpec("s1", "internal"), UnitSpec("s2", "internal")]
        units += [UnitSpec(w, "terminal", (i,)) for i, w in enumerate(["x", "y", "z"])]
        edges = [
            EdgeSpec("r", "s1", "H"), EdgeSpec("r", "s2", "H"),
            EdgeSpec("s1", "x", "A"), EdgeSpec("s1", "y", "P"),
            EdgeSpec("s2", "x", "A", True), EdgeSpec("s2", "z", "P"),
        ]
        p = build_passage(tokens, units, edges)
        data = to_interchange(p)
        assert data == oracle_bytes(p)
        # s2 is "4" and its primary child z is "5"; the remote target x is "2".
        assert [c for parent, c in self.edge_pairs(data) if parent == "4"] == ["2", "5"]

    def test_parsed_remote_to_an_earlier_unit(self):
        p = parse_passage("[H [A x] [P y]] [H [P z] (x A)]")
        data = to_interchange(p)
        assert data == oracle_bytes(p)
        assert [c for parent, c in self.edge_pairs(data) if parent == "4"] == ["2", "5"]
        assert to_interchange(from_interchange(data)) == data


class TestUnitOrder:
    """The writer lays units out as `Passage.units` iterates them."""

    @pytest.mark.parametrize("path", FIXTURE_FILES, ids=lambda p: p.name)
    def test_parsed_and_reloaded_units_iterate_in_id_order(self, path):
        for p in fixture_passages(path):
            for q in (p, from_interchange(to_interchange(p))):
                assert list(q.units) == [str(i) for i in range(len(q.units))]


class TestRoundTrip:
    @pytest.mark.parametrize("path", CORPUS, ids=corpus_ids())
    def test_corpus_bytes_idempotent(self, path):
        first = to_interchange(parse_passage(path.read_text()))
        assert to_interchange(from_interchange(first)) == first

    @pytest.mark.parametrize("path", CORPUS, ids=corpus_ids())
    def test_corpus_bytes_survive_notation_detour(self, path):
        from uccakit import render

        pid = path.name.removesuffix(".txt")
        data = to_interchange(parse_passage(path.read_text(), passage_id=pid))
        text = render(from_interchange(data))
        assert to_interchange(parse_passage(text, passage_id=pid)) == data

    @pytest.mark.parametrize("path", CORPUS, ids=corpus_ids())
    def test_corpus_graph_preserved(self, path):
        p = parse_passage(path.read_text())
        q = from_interchange(to_interchange(p))
        assert isomorphic(p, q)
        assert validate(q) == validate(p)

    def test_passage_id_preserved(self):
        p = parse_passage("[H [A apple] ]", passage_id="sample-7")
        assert from_interchange(to_interchange(p)).id == "sample-7"

    def test_accepts_str_input(self):
        p = parse_passage("[H [A apple] ]")
        assert isomorphic(p, from_interchange(to_interchange(p).decode("utf-8")))

    def test_coverage_gap_tolerated(self):
        # A document may cover only part of its tokens; the validator,
        # not the reader, reports the gap.
        doc = json.loads(EXPECTED_SMALL)
        doc["tokens"].append({"is_punct": False, "text": "stray"})
        p = from_interchange(canonical_json_bytes(doc))
        assert [d.rule for d in validate(p)] == ["R10"]


class TestRejects:
    def test_bad_utf8(self):
        with pytest.raises(MalformedDocument, match="UTF-8"):
            from_interchange(b"\xff\xfe{}")

    def test_bad_json(self):
        with pytest.raises(MalformedDocument, match="JSON"):
            from_interchange(b"{nope")

    def test_too_deeply_nested_json(self):
        with pytest.raises(MalformedDocument) as info:
            from_interchange("[" * 100_000 + "]" * 100_000)
        assert str(info.value) == "not valid JSON: nested too deeply"

    def test_non_object_document(self):
        with pytest.raises(MalformedDocument, match="object"):
            from_interchange(b"[1, 2]")

    def test_missing_version(self):
        doc = json.loads(EXPECTED_SMALL)
        del doc["format_version"]
        with pytest.raises(MalformedDocument, match="format_version"):
            from_interchange(canonical_json_bytes(doc))

    def test_future_version(self):
        with pytest.raises(UnsupportedVersion, match="'99'"):
            from_interchange(small_doc(format_version="99"))

    def test_future_version_is_malformed_subclass(self):
        assert issubclass(UnsupportedVersion, MalformedDocument)

    def test_missing_tables(self):
        for key in ("tokens", "units", "edges"):
            doc = json.loads(EXPECTED_SMALL)
            del doc[key]
            with pytest.raises(MalformedDocument, match=key):
                from_interchange(canonical_json_bytes(doc))

    def test_non_string_id(self):
        with pytest.raises(MalformedDocument, match="'id'"):
            from_interchange(small_doc(id=3))

    def test_token_not_object(self):
        with pytest.raises(MalformedDocument, match="token 0"):
            from_interchange(small_doc(tokens=["apple"]))

    def test_token_missing_text(self):
        with pytest.raises(MalformedDocument, match="text"):
            from_interchange(small_doc(tokens=[{"is_punct": False}]))

    def test_unknown_unit_kind(self):
        doc = json.loads(EXPECTED_SMALL)
        doc["units"][2]["kind"] = "leaf"
        with pytest.raises(MalformedDocument, match="leaf"):
            from_interchange(canonical_json_bytes(doc))

    def test_unit_tokens_must_be_ints(self):
        doc = json.loads(EXPECTED_SMALL)
        doc["units"][2]["tokens"] = ["0"]
        with pytest.raises(MalformedDocument, match="integers"):
            from_interchange(canonical_json_bytes(doc))

    def test_edge_missing_field(self):
        doc = json.loads(EXPECTED_SMALL)
        del doc["edges"][0]["child"]
        with pytest.raises(MalformedDocument, match="child"):
            from_interchange(canonical_json_bytes(doc))

    def test_edge_bad_category(self):
        doc = json.loads(EXPECTED_SMALL)
        doc["edges"][1]["categories"] = ["A", "ZZ"]
        with pytest.raises(MalformedDocument, match="edge 1"):
            from_interchange(canonical_json_bytes(doc))

    def test_edge_remote_must_be_bool(self):
        doc = json.loads(EXPECTED_SMALL)
        doc["edges"][1]["remote"] = "yes"
        with pytest.raises(MalformedDocument, match="remote"):
            from_interchange(canonical_json_bytes(doc))

    @pytest.mark.parametrize(
        "doc, message",
        [
            (small_doc(units=[], edges=[]), "passage has no units; expected one internal root"),
            (small_doc(units=[{"id": "0", "kind": "internal", "tokens": []},
                              {"id": "1", "kind": "internal", "tokens": []},
                              {"id": "2", "kind": "terminal", "tokens": [0, 0]}]),
             "terminal unit '2' lists token position 0 twice"),
        ],
        ids=["no-units", "position-listed-twice"],
    )
    def test_unit_table_faults(self, doc, message):
        with pytest.raises(InvalidUnit) as info:
            from_interchange(doc)
        assert type(info.value) is InvalidUnit
        assert str(info.value) == message

    def test_structural_problems_use_build_errors(self):
        from uccakit import BuildError

        doc = json.loads(EXPECTED_SMALL)
        doc["edges"][1]["child"] = "9"
        with pytest.raises(BuildError):
            from_interchange(canonical_json_bytes(doc))


_DELETE = object()


def with_field(table, index, key, value=_DELETE):
    """EXPECTED_SMALL plus a punctuation token, with one field deleted or
    replaced; key None replaces the whole record."""
    doc = json.loads(EXPECTED_SMALL)
    doc["tokens"].append({"is_punct": True, "text": "."})
    record = doc if table is None else doc[table]
    if key is None:
        record[index] = value
        return canonical_json_bytes(doc)
    if table is not None:
        record = record[index]
    if value is _DELETE:
        del record[key]
    else:
        record[key] = value
    return canonical_json_bytes(doc)


NOT_INTEGERS = "unit '2': 'tokens' must be a list of integers"

READER_FAILURES = [
    (b"[1, 2]", "document must be a JSON object"),
    (with_field(None, None, "format_version"), "document is missing a format_version string"),
    (with_field(None, None, "format_version", 1), "document is missing a format_version string"),
    (with_field(None, None, "id", 3), "'id' must be a string"),
    (with_field(None, None, "tokens"), "document is missing 'tokens'"),
    (with_field(None, None, "tokens", {}), "document: 'tokens' must be list"),
    (with_field(None, None, "units"), "document is missing 'units'"),
    (with_field(None, None, "units", "0"), "document: 'units' must be list"),
    (with_field(None, None, "edges"), "document is missing 'edges'"),
    (with_field(None, None, "edges", None), "document: 'edges' must be list"),
    (with_field("tokens", 1, None, "."), "token 1 must be an object"),
    (with_field("tokens", 1, "text"), "token 1 is missing 'text'"),
    (with_field("tokens", 1, "text", 7), "token 1: 'text' must be str"),
    (with_field("tokens", 1, "text", True), "token 1: 'text' must be str"),
    (with_field("tokens", 1, "is_punct", "no"), "token 1: 'is_punct' must be a boolean"),
    (with_field("tokens", 1, "is_punct", 0), "token 1: 'is_punct' must be a boolean"),
    (with_field("units", 2, None, []), "unit 2 must be an object"),
    (with_field("units", 2, "id"), "unit 2 is missing 'id'"),
    (with_field("units", 2, "id", 2), "unit 2: 'id' must be str"),
    (with_field("units", 2, "kind"), "unit 2 is missing 'kind'"),
    (with_field("units", 2, "kind", ["terminal"]), "unit 2: 'kind' must be str"),
    (with_field("units", 2, "kind", "leaf"), "unit '2' has unknown kind 'leaf'"),
    (with_field("units", 2, "tokens", "0"), NOT_INTEGERS),
    (with_field("units", 2, "tokens", [True]), NOT_INTEGERS),
    (with_field("units", 2, "tokens", [0.0]), NOT_INTEGERS),
    (with_field("edges", 1, None, 5), "edge 1 must be an object"),
    (with_field("edges", 1, "parent"), "edge 1 is missing 'parent'"),
    (with_field("edges", 1, "parent", 0), "edge 1: 'parent' must be str"),
    (with_field("edges", 1, "child"), "edge 1 is missing 'child'"),
    (with_field("edges", 1, "child", None), "edge 1: 'child' must be str"),
    (with_field("edges", 1, "categories"), "edge 1 is missing 'categories'"),
    (with_field("edges", 1, "categories", "A"), "edge 1: 'categories' must be list"),
    (with_field("edges", 1, "categories", []), "edge 1: a category set must contain at least one label"),
    (with_field("edges", 1, "categories", ["A", "ZZ"]), "edge 1: unknown category label 'ZZ'"),
    (with_field("edges", 1, "categories", ["A", ["A"]]), "edge 1: unknown category label ['A']"),
    (with_field("edges", 1, "categories", ["P", "S"]), "edge 1: P and S cannot appear on the same edge"),
    (with_field("edges", 1, "remote", "yes"), "edge 1: 'remote' must be a boolean"),
    (
        EXPECTED_SMALL.replace('"apple"', '"\\ud800"').encode("utf-8"),
        "not valid Unicode: a string holds a lone surrogate",
    ),
]


class TestReaderMessages:
    @pytest.mark.parametrize(
        "data, message", [pytest.param(d, m, id=m) for d, m in READER_FAILURES]
    )
    def test_exact_message(self, data, message):
        with pytest.raises(MalformedDocument) as info:
            from_interchange(data)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "data, context",
        [
            (b"\xff\xfe{}", UnicodeDecodeError),
            (b"{nope", json.JSONDecodeError),
            ("[" * 100_000 + "]" * 100_000, RecursionError),
            (with_field("tokens", 1, "text", 7), type(None)),
            (with_field("edges", 1, "categories", ["A", "ZZ"]), InvalidCategory),
        ],
        ids=["utf-8", "json", "nested", "field-type", "label"],
    )
    def test_error_keeps_its_context(self, data, context):
        # The decoder's error stays attached as the context, not as a cause.
        with pytest.raises(MalformedDocument) as info:
            from_interchange(data)
        assert type(info.value.__context__) is context
        assert (info.value.__cause__, info.value.__suppress_context__) == (None, False)

    def test_optional_fields_default(self):
        doc = json.loads(EXPECTED_SMALL)
        del doc["tokens"][0]["is_punct"]
        del doc["units"][0]["tokens"]
        del doc["edges"][0]["remote"]
        p = from_interchange(canonical_json_bytes(doc))
        assert to_interchange(p).decode("utf-8") == EXPECTED_SMALL

    def test_repeated_labels_checked_per_edge(self):
        doc = json.loads(EXPECTED_SMALL)
        doc["edges"][1]["categories"] = ["H"]
        p = from_interchange(canonical_json_bytes(doc))
        assert [e.categories.labels for e in p.edges()] == [("H",), ("H",)]
        doc["edges"][0]["categories"] = doc["edges"][1]["categories"] = ["ZZ"]
        with pytest.raises(MalformedDocument) as info:
            from_interchange(canonical_json_bytes(doc))
        assert str(info.value) == "edge 0: unknown category label 'ZZ'"

    def test_label_cache_holds_canonical_lists_only(self):
        from uccakit import categories

        doc = json.loads(EXPECTED_SMALL)
        for labels in (["A", "P"], ["P", "A"], ["A", "A", "P"], ["P", "A"]):
            doc["edges"][1]["categories"] = labels
            p = from_interchange(canonical_json_bytes(doc))
            assert p.units["1"].outgoing[0].categories.labels == ("P", "A")
        cache = categories._CANONICAL_SETS
        assert ("P", "A") in cache and ("A", "P") not in cache
        assert all(categories.labels == key for key, categories in cache.items())
        # Lists that fail are never cached, so they fail the same way every time.
        for labels, message in (
            (["ZZ"], "edge 1: unknown category label 'ZZ'"),
            (["P", "S"], "edge 1: P and S cannot appear on the same edge"),
            ([["A"]], "edge 1: unknown category label ['A']"),
        ):
            doc["edges"][1]["categories"] = labels
            for _ in range(2):
                with pytest.raises(MalformedDocument) as info:
                    from_interchange(canonical_json_bytes(doc))
                assert str(info.value) == message


class TestLoneSurrogates:
    @pytest.mark.parametrize("escape", ["\\ud800", "\\uDBFF", "\\udc00", "\\uDfFf"])
    def test_escape_rejected(self, escape):
        data = EXPECTED_SMALL.replace('"apple"', f'"ap{escape}ple"').encode("utf-8")
        with pytest.raises(MalformedDocument, match="lone surrogate"):
            from_interchange(data)

    def test_escape_in_passage_id_rejected(self):
        data = EXPECTED_SMALL.replace('"passage"', '"p\\ud800"').encode("utf-8")
        with pytest.raises(MalformedDocument, match="lone surrogate"):
            from_interchange(data)

    def test_raw_surrogate_in_str_input_rejected(self):
        with pytest.raises(MalformedDocument, match="lone surrogate"):
            from_interchange(EXPECTED_SMALL.replace("apple", "ap\ud800ple"))

    def test_surrogate_pair_accepted(self):
        data = EXPECTED_SMALL.replace('"apple"', '"\\ud83d\\ude00"').encode("utf-8")
        p = from_interchange(data)
        assert p.tokens[0].text == "\U0001f600"
        assert to_interchange(p) == EXPECTED_SMALL.replace("apple", "\U0001f600").encode("utf-8")

    def test_escaped_backslash_is_plain_text(self):
        data = EXPECTED_SMALL.replace('"apple"', '"\\\\ud800"').encode("utf-8")
        assert from_interchange(data).tokens[0].text == "\\ud800"


# Loads a document of 7,000 scenes (21,001 units) after a one-scene
# document has filled the first-use caches, drops it, and prints how many
# bytes the load left allocated.
_RETAINED = """
import gc, tracemalloc
from uccakit import from_interchange, parse_passage, to_interchange
data = to_interchange(parse_passage("[H [A w] [P w]] " * 7000))
from_interchange(to_interchange(parse_passage("[H [A w] [P w]]")))
gc.collect()
tracemalloc.start()
passage = from_interchange(data)
assert len(passage.units) == 21001
del passage
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_loading_retains_nothing():
    # In a fresh interpreter, so that no earlier load has filled anything,
    # on the package this process imported.
    child = subprocess.run(
        [sys.executable, "-c", _RETAINED],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert int(child.stdout) < 64 * 1024


@pytest.mark.parametrize("renumber", [False, True], ids=["in-writer-order", "renumbered"])
def test_loaded_edges_share_their_units_ids(renumber):
    # One string per unit id: ids of two characters or more are distinct
    # objects in the decoded JSON, and every edge takes its units' own.
    data = to_interchange(parse_passage(long_source(6)))
    if renumber:
        data = renumbered(data)
    passage = from_interchange(data)
    assert len(passage.units) > 10
    for edge in passage.edges():
        assert edge.parent is passage.units[edge.parent].id
        assert edge.child is passage.units[edge.child].id


@pytest.mark.parametrize("renumber", [False, True], ids=["in-writer-order", "renumbered"])
def test_loaded_kinds_are_the_module_constants(renumber):
    # The decoded JSON holds one "kind" string per unit; a loaded unit
    # holds the module's own, as a parsed one does.
    data = to_interchange(parse_passage(long_source(6) + " [H [P left] (IMP A)]"))
    if renumber:
        data = renumbered(data)
    passage = from_interchange(data)
    kinds = {TERMINAL: TERMINAL, INTERNAL: INTERNAL, IMPLICIT: IMPLICIT}
    assert {unit.kind for unit in passage.units.values()} == set(kinds)
    assert all(unit.kind is kinds[unit.kind] for unit in passage.units.values())


# The bounds below are on tests/memory.py's ratios for conftest's
# `long_source()`, 1,408 units with 87 remote edges.  The figures in the
# comments held on CPython 3.11.7, 3.12.1 and 3.13.0 alike.


def test_reader_frees_text_and_tree_before_building():
    # The decoded text dies before the schema checks, and the JSON tree
    # before `_build` allocates the passage: the peak passes what the passage
    # keeps by 2.4 to 2.5 bytes per document byte, and by 5.5 while both
    # stayed alive.
    assert layer_memory()["from_interchange"]["ratio"] < 3.5


def test_writer_joins_each_table_as_it_goes():
    # One table's records at most are alive at a time, and all are gone
    # before the text is encoded: the peak is 2.0 bytes per result byte, and
    # 3.5 while every record lasted until encoding.
    assert layer_memory()["to_interchange"]["ratio"] < 2.4
