import ast
import gc
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uccakit
from uccakit import notation
from uccakit import (
    AmbiguousContinuation,
    AmbiguousRemote,
    DanglingContinuation,
    DuplicateId,
    EdgeSpec,
    MalformedDocument,
    MisplacedRemote,
    OrphanContinuation,
    ParseError,
    Passage,
    RemoteCycle,
    RenderError,
    Token,
    UccaError,
    UnbalancedBrackets,
    UnitSpec,
    UnknownCategoryLabel,
    UnresolvedRemote,
    CategoryCounts,
    ScoreReport,
    TokenMismatch,
    build_passage,
    canonical_json_bytes,
    from_interchange,
    isomorphic,
    lex,
    parse_passage,
    render,
    score,
    signatures,
    split_passages,
    stats,
    to_interchange,
    validate,
    yield_of,
)

from conftest import CORPUS, EDGE_DIR, SRC, corpus_ids
from test_validation import minimal_wrapper_passage


def kinds(source):
    return [(t.kind, t.text) for t in lex(source)]


class TestLexer:
    def test_smallest_unit(self):
        assert kinds("[A John]") == [
            ("lbracket", "["),
            ("label", "A"),
            ("word", "John"),
            ("rbracket", "]"),
        ]

    def test_dash_label(self):
        assert kinds("[P- took]") == [
            ("lbracket", "["),
            ("label", "P-"),
            ("word", "took"),
            ("rbracket", "]"),
        ]

    def test_implicit_group(self):
        assert kinds("(IMP A)") == [
            ("lparen", "("),
            ("word", "IMP"),
            ("label", "A"),
            ("rparen", ")"),
        ]

    def test_spans_reconstruct_source(self):
        source = "[H [A John] , [P- took] ]"
        raw = source.encode("utf-8")
        for tok in lex(source):
            assert raw[tok.start:tok.end].decode("utf-8") == tok.text

    def test_double_dash_is_a_word(self):
        (tok,) = lex("-A-")
        assert tok.kind == "word"

    def test_combined_label(self):
        (tok,) = lex("CMR+P")
        assert tok.kind == "label"

    def test_unknown_shape_is_word(self):
        (tok,) = lex("hello")
        assert tok.kind == "word"

    @pytest.mark.parametrize(
        "source, position",
        [("[A a\ud800b]", 3), ("[A xé] [A a\udfffb]", 11), ("\ud800", 0)],
    )
    def test_lone_surrogate_is_a_parse_error(self, source, position):
        with pytest.raises(ParseError) as info:
            lex(source)
        assert type(info.value) is ParseError
        assert info.value.position == position
        assert str(info.value) == (
            f"byte {position}: not valid Unicode: a word holds a lone surrogate"
        )

    @pytest.mark.parametrize("lenient", [False, True])
    def test_lone_surrogate_fails_parse_at_its_word(self, lenient):
        with pytest.raises(ParseError) as info:
            parse_passage("[H [A John] [P a\ud800b] ]", lenient_remotes=lenient)
        assert info.value.position == 15
        assert "not valid Unicode" in str(info.value)


class TestParseBasics:
    def test_label_left(self):
        p = parse_passage("[H [A apple] ]")
        scene = p.units[p.units[p.root].outgoing[0].child]
        edge = scene.outgoing[0]
        assert str(edge.categories) == "A"
        assert p.text_of(edge.child) == "apple"

    def test_label_side_indifference(self):
        assert isomorphic(parse_passage("[H [A John] ]"), parse_passage("[H [John A] ]"))

    def test_first_label_wins_when_both_sides_match(self):
        # Interior and trailing tokens of a labeled bracket are text.
        p = parse_passage("[H [P thank A] ]")
        scene = p.units[p.units[p.root].outgoing[0].child]
        edge = scene.outgoing[0]
        assert str(edge.categories) == "P"
        assert p.text_of(edge.child) == "thank A"

    def test_single_label_token_bracket_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_passage("[A]")
        assert "[A apple]" in str(err.value)

    def test_unlabeled_group_rejected(self):
        with pytest.raises(ParseError):
            parse_passage("[hello world]")

    def test_unknown_category(self):
        with pytest.raises(UnknownCategoryLabel):
            parse_passage("[Z apple]")

    def test_apa_transcription(self):
        p = parse_passage("[H [A John] [P kicked] [A [F the] [C ball] ] ]")
        assert [t.text for t in p.tokens] == ["John", "kicked", "the", "ball"]
        scene = p.units[p.units[p.root].outgoing[0].child]
        assert [str(e.categories) for e in scene.outgoing] == ["A", "P", "A"]
        for e in scene.outgoing:
            ys = sorted(yield_of(p, e.child))
            assert ys == list(range(ys[0], ys[-1] + 1))

    def test_punctuation_in_stream_but_unowned(self):
        p = parse_passage("[H [P Come] [A here] , (IMP A) ]")
        assert [t.text for t in p.tokens] == ["Come", "here", ","]
        assert p.tokens[2].is_punct
        for unit in p.units.values():
            assert 2 not in unit.tokens

    def test_punctuation_inside_a_terminal_unowned(self):
        p = parse_passage("[H [A John , Smith] [P ran] ]")
        assert p.tokens[1].is_punct
        terminal = next(u for u in p.units.values() if 0 in u.tokens)
        assert terminal.tokens == frozenset({0, 2})
        assert all(1 not in unit.tokens for unit in p.units.values())

    def test_top_level_wrapped_in_fresh_root(self):
        p = parse_passage("[H [A John] [P slept] ] [L and] [H [A Mary] [P left] ]")
        root_edges = p.units[p.root].outgoing
        assert [str(e.categories) for e in root_edges] == ["H", "L", "H"]

    def test_stray_close_bracket(self):
        source = "[H [A John] ] ]"
        with pytest.raises(UnbalancedBrackets) as err:
            parse_passage(source)
        assert err.value.position == source.rindex("]")

    def test_stray_close_paren(self):
        with pytest.raises(UnbalancedBrackets) as err:
            parse_passage("[H [A John] ) ]")
        assert str(err.value) == "byte 12: ')' without a matching '(' (found ')')"

    def test_invalid_combination_fails_at_its_label(self):
        with pytest.raises(ParseError) as err:
            parse_passage("[H [P+S x] ]")
        assert type(err.value) is ParseError
        assert str(err.value) == "byte 4: P and S cannot appear on the same edge"

    def test_punctuation_only_unit_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_passage("[H [P x] [A ,] ]")
        assert type(err.value) is ParseError
        assert str(err.value) == "byte 9: unit covers no text"

    def test_unclosed_bracket_points_at_opener(self):
        source = "[H [A John] [P slept]"
        with pytest.raises(UnbalancedBrackets) as err:
            parse_passage(source)
        assert err.value.position == 0

    def test_parsing_leaves_no_reference_cycles(self):
        # Reference counting alone frees a parse tree and its passage.
        source = "[H [A John] [P- took] [A [F a] [C shower] ] [-P up] (IMP D)] [H [P left] (John A)]"
        gc.collect()
        gc.disable()
        try:
            for lenient in (False, True):
                parse_passage(source, lenient_remotes=lenient)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_errors_carry_byte_offsets(self):
        source = "café [Z x]"
        with pytest.raises(UnknownCategoryLabel) as err:
            parse_passage(source)
        assert err.value.position == source.encode("utf-8").index(b"Z")


# Parsing, loading, building and reading a passage run with the cyclic
# collector paused, which is safe only while they create no reference cycles.
CYCLE_FREE_SOURCE = "[H [A John] [P- took] [A [F a] [C shower] ] [-P up] (IMP D)] [H [P left] (John A)]"


def renumbered(data: bytes) -> bytes:
    """The document with its unit ids renamed, so that loading renumbers it."""
    doc = json.loads(data)
    for unit in doc["units"]:
        unit["id"] = "u" + unit["id"]
    for edge in doc["edges"]:
        edge["parent"], edge["child"] = "u" + edge["parent"], "u" + edge["child"]
    return canonical_json_bytes(doc)


def spec_tables(passage):
    units = [UnitSpec(u.id, u.kind, tuple(sorted(u.tokens))) for u in passage.units.values()]
    edges = [EdgeSpec(e.parent, e.child, e.categories, e.remote) for e in passage.edges()]
    return passage.tokens, units, edges


def outcome(func, *args, **kwargs):
    """The class of the result or of the `UccaError` or `ValueError` raised,
    keeping neither alive: a caught exception held in a local is a cycle of
    its own."""
    try:
        return type(func(*args, **kwargs))
    except (UccaError, ValueError) as exc:
        return type(exc)


def remote_cycle_document() -> bytes:
    doc = json.loads(renumbered(to_interchange(parse_passage("[H [A a] [P b]] [H [A c] [P d]]"))))
    scenes = [e["child"] for e in doc["edges"] if e["parent"] == "u0"]
    for parent, child in (scenes, scenes[::-1]):
        doc["edges"].append({"categories": ["A"], "child": child, "parent": parent, "remote": True})
    return canonical_json_bytes(doc)


def one_token_passage(text):
    return build_passage(
        [Token(text, 0)], [UnitSpec("r", "internal"), UnitSpec("t", "terminal", (0,))],
        [EdgeSpec("r", "t", "H")],
    )


def table_passage(words, edges):
    """A passage over `words` from (parent, child, label[, remote]) edges:
    "r" is the root, "t<i>" the terminal over word i, a name starting with
    "i" an implicit unit and any other name an internal unit."""
    names = dict.fromkeys(name for edge in edges for name in edge[:2])

    def spec(name):
        if name[0] == "t":
            return UnitSpec(name, "terminal", (int(name[1:]),))
        return UnitSpec(name, "implicit" if name[0] == "i" else "internal")

    return build_passage(
        [Token(w, i) for i, w in enumerate(words)],
        [spec(name) for name in names],
        [EdgeSpec(*edge) for edge in edges],
    )


# Passages with two faults render can report, or with one for contrast, and
# the message of the fault it reports: delimiters first, then zero-width
# units, then the faults of the sweep in token order.  A unit's remote
# groups are checked in turn, each for empty text, IMP and ambiguity, in
# that order, and then against the groups before it.
RENDER_PRECEDENCE = {
    "ambiguous-before-una": (
        "John slept left John woke UNA",
        [("r", "h1", "H"), ("h1", "t0", "A"), ("h1", "t1", "P"), ("r", "h3", "H"),
         ("h3", "t2", "P"), ("h3", "t0", "A", True), ("r", "h2", "H"), ("h2", "t3", "A"),
         ("h2", "t4", "P"), ("r", "h4", "H"), ("h4", "t5", "P")],
        "2 units read 'John'; the remote reference to 2 would be ambiguous",
    ),
    "una-before-ambiguous": (
        "UNA John slept John woke left",
        [("r", "h4", "H"), ("h4", "t0", "P"), ("r", "h1", "H"), ("h1", "t1", "A"),
         ("h1", "t2", "P"), ("r", "h2", "H"), ("h2", "t3", "A"), ("h2", "t4", "P"),
         ("r", "h3", "H"), ("h3", "t5", "P"), ("h3", "t1", "A", True)],
        "unit 2 ends with the literal word 'UNA', which the notation reserves",
    ),
    "imp-target": (
        "IMP slept woke ran",
        [("r", "h1", "H"), ("h1", "t0", "A"), ("h1", "t1", "P"), ("r", "h2", "H"),
         ("h2", "t2", "P"), ("h2", "t0", "A", True), ("r", "h3", "H"), ("h3", "t3", "P")],
        "remote target reads 'IMP', which the notation reserves",
    ),
    "zero-width-before-imp-target": (
        "IMP slept woke ran",
        [("r", "h1", "H"), ("h1", "t0", "A"), ("h1", "t1", "P"), ("r", "h2", "H"),
         ("h2", "t2", "P"), ("h2", "t0", "A", True), ("r", "h3", "H"), ("h3", "t3", "P"),
         ("h3", "e", "A"), ("e", "i", "A")],
        "unit 8 covers no tokens and cannot be written",
    ),
    "empty-before-ambiguous": (
        "slept woke John ran John left",
        [("r", "h1", "H"), ("h1", "t0", "P"), ("h1", "i", "A"), ("r", "h2", "H"),
         ("h2", "t1", "P"), ("h2", "i", "A", True), ("r", "h3", "H"), ("h3", "t2", "A"),
         ("h3", "t3", "P"), ("r", "h5", "H"), ("h5", "t4", "A"), ("r", "h4", "H"),
         ("h4", "t5", "P"), ("h4", "t2", "A", True)],
        "remote target 3 has no surface text to refer to it by",
    ),
    "imp-before-ambiguous-in-one-group": (
        "IMP slept IMP woke left",
        [("r", "h1", "H"), ("h1", "t0", "A"), ("h1", "t1", "P"), ("r", "h2", "H"),
         ("h2", "t2", "A"), ("h2", "t3", "P"), ("r", "h3", "H"), ("h3", "t4", "P"),
         ("h3", "t0", "A", True)],
        "remote target reads 'IMP', which the notation reserves",
    ),
    "empty-before-ambiguous-in-one-group": (
        "slept woke left",
        [("r", "h1", "H"), ("h1", "t0", "P"), ("h1", "i1", "A"), ("r", "h2", "H"),
         ("h2", "t1", "P"), ("h2", "i2", "A"), ("r", "h3", "H"), ("h3", "t2", "P"),
         ("h3", "i1", "A", True)],
        "remote target 3 has no surface text to refer to it by",
    ),
    "ambiguous-before-alike": (
        "a b John c John",
        [("r", "s1", "H"), ("s1", "w", "A"), ("w", "t0", "C"), ("r", "s2", "H"),
         ("s2", "t1", "P"), ("s2", "t2", "A", True), ("s2", "w", "A", True),
         ("s2", "t0", "D", True), ("r", "s3", "H"), ("s3", "t2", "A"), ("s3", "t3", "P"),
         ("r", "s4", "H"), ("s4", "t4", "A")],
        "2 units read 'John'; the remote reference to 7 would be ambiguous",
    ),
    "delimiter-before-zero-width": (
        "a(b slept",
        [("r", "h", "H"), ("h", "t0", "A"), ("h", "t1", "P"), ("h", "e", "D"),
         ("e", "i", "A")],
        "token 'a(b' contains notation delimiters or spaces",
    ),
}


class TestNoReferenceCycles:
    """Every way in or out of the paused functions frees all it made by
    reference counting alone."""

    @pytest.fixture(autouse=True)
    def collector_off(self):
        gc.disable()
        try:
            yield
        finally:
            gc.enable()

    def test_loading_a_canonical_document(self):
        data = to_interchange(parse_passage(CYCLE_FREE_SOURCE))
        gc.collect()  # what the test runner left
        assert outcome(from_interchange, data) is Passage
        assert outcome(from_interchange, data.decode("utf-8")) is Passage
        assert gc.collect() == 0

    def test_loading_a_renumbered_document(self):
        data = renumbered(to_interchange(parse_passage(CYCLE_FREE_SOURCE)))
        gc.collect()  # what the test runner left
        assert outcome(from_interchange, data) is Passage
        assert gc.collect() == 0

    def test_lexing_a_source(self):
        gc.collect()  # what the test runner left
        assert outcome(lex, CYCLE_FREE_SOURCE) is list
        assert gc.collect() == 0

    def test_building_from_spec_tables(self):
        tables = spec_tables(parse_passage(CYCLE_FREE_SOURCE))
        gc.collect()  # what the test runner left
        assert outcome(build_passage, *tables) is Passage
        assert outcome(build_passage, *tables, require_coverage=False) is Passage
        assert gc.collect() == 0

    @pytest.mark.parametrize(
        "func, arg, error",
        [
            (parse_passage, "[H [Z x]]", UnknownCategoryLabel),
            (parse_passage, "[H [A John] [P slept]", UnbalancedBrackets),
            (parse_passage, "[H [P [C a] [E b] (c d A)] [S [C c] [E d] (a b A)]]", ParseError),
            (lex, "[A a\ud800b]", ParseError),
            (from_interchange, b"{nope", MalformedDocument),
            (from_interchange, b"\xff", MalformedDocument),
            (from_interchange, b'{"format_version": "1", "tokens": [1]}', MalformedDocument),
            (from_interchange, remote_cycle_document(), RemoteCycle),
        ],
        ids=["parse", "unbalanced", "remote-cycle-blame", "lex-surrogate", "json", "utf-8",
             "schema", "build"],
    )
    def test_error_exits(self, func, arg, error):
        gc.collect()  # what the test runner left
        assert outcome(func, arg) is error
        assert gc.collect() == 0

    @pytest.mark.parametrize("error", [DuplicateId, RemoteCycle])
    def test_build_error_exits(self, error):
        tokens, units, edges = spec_tables(parse_passage("[H [A a] [P b]] [H [A c] [P d]]"))
        if error is DuplicateId:
            units.append(units[-1])
        else:
            scenes = [e.child for e in edges if e.parent == "0"]
            a = edges[1].categories
            edges += [EdgeSpec(*scenes, a, True), EdgeSpec(*reversed(scenes), a, True)]
        gc.collect()  # what the test runner left
        assert outcome(build_passage, tokens, units, edges) is error
        assert gc.collect() == 0

    @pytest.mark.parametrize(
        "func, args, result",
        [
            (render, lambda p: (p,), str),
            (render, lambda p: (p, "right"), str),
            (to_interchange, lambda p: (p,), bytes),
            (isomorphic, lambda p: (p, parse_passage(render(p, "right"))), bool),
            # Equal counts, one label changed: the walk stops at that shape.
            (isomorphic, lambda p: (p, parse_passage(CYCLE_FREE_SOURCE.replace("F", "E"))), bool),
            (isomorphic, lambda p: (p, parse_passage("[H [A John] [P left]]")), bool),
            (score, lambda p: (p, parse_passage(render(p))), ScoreReport),
            (signatures, lambda p: (p,), list),
            (validate, lambda p: (p,), list),
            (validate, lambda p: (p, {"R1": "off", "R10": "warning"}), list),
            (stats, lambda p: (p,), CategoryCounts),
        ],
        ids=["render", "render-right", "to_interchange", "isomorphic", "isomorphic-stops",
             "isomorphic-counts", "score", "signatures", "validate", "validate-config", "stats"],
    )
    def test_reading_a_passage(self, func, args, result):
        args = args(parse_passage(CYCLE_FREE_SOURCE))
        gc.collect()  # what the test runner left
        assert outcome(func, *args) is result
        assert gc.collect() == 0

    @pytest.mark.parametrize(
        "func, args, error",
        [
            (render, lambda: (one_token_passage("a b"),), RenderError),
            (render, lambda: (one_token_passage("UNA"),), RenderError),
            (render, lambda: (parse_passage("[H [A John] [P slept (John A)]]"),), RenderError),
            (
                render,
                lambda: (parse_passage((EDGE_DIR / "ambiguous-remote.txt").read_text(),
                                       lenient_remotes=True, on_warning=lambda _: None),),
                RenderError,
            ),
            (render, lambda: (parse_passage(CYCLE_FREE_SOURCE), "top"), ValueError),
            (score, lambda: (one_token_passage("a"), one_token_passage("b")), TokenMismatch),
            (
                score,
                lambda: (parse_passage("[H [A a] [P b]]"), parse_passage("[H [A a] [P b] ,]")),
                TokenMismatch,
            ),
        ],
        ids=["render-delimiter", "render-una", "render-zero-width", "render-ambiguous",
             "render-side", "score-token", "score-count"],
    )
    def test_reading_error_exits(self, func, args, error):
        args = args()
        gc.collect()  # what the test runner left
        assert outcome(func, *args) is error
        assert gc.collect() == 0


class Probe(Exception):
    pass


def passage_args(*more):
    return lambda: (parse_passage(CYCLE_FREE_SOURCE), *more)


def pair_args():
    p = parse_passage(CYCLE_FREE_SOURCE)
    return p, parse_passage(render(p))


# (function, arguments, the module and name of a function it calls inside
# the pause, and how many times it calls it)
PAUSED = {
    "lex": (lex, lambda: (CYCLE_FREE_SOURCE,), "notation", "accumulate", 1),
    "parse_passage": (parse_passage, lambda: (CYCLE_FREE_SOURCE,), "notation", "lex", 1),
    "from_interchange": (
        from_interchange,
        lambda: (to_interchange(parse_passage(CYCLE_FREE_SOURCE)),),
        "interchange",
        "_build",
        1,
    ),
    "build_passage": (
        build_passage,
        lambda: spec_tables(parse_passage(CYCLE_FREE_SOURCE)),
        "core",
        "_assemble",
        1,
    ),
    "render": (render, passage_args(), "notation", "_fragments", 1),
    "render-right": (render, passage_args("right"), "notation", "_fragments", 1),
    # The edges, tokens and units arrays, and the positions of 5 terminals.
    "to_interchange": (to_interchange, passage_args(), "interchange", "_array", 8),
    "isomorphic": (isomorphic, pair_args, "core", "_shape_class", 2),
    "score": (score, pair_args, "scoring", "_edge_keys", 2),
    "signatures": (signatures, passage_args(), "scoring", "_edge_keys", 1),
    "validate": (validate, passage_args(), "validation", "_Checker", 1),
    "stats": (stats, passage_args(), "core", "CategoryCounts", 1),
}


class TestCollectorPause:
    @pytest.fixture
    def collector(self):
        """Restores the collector's state after the test."""
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    @pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
    @pytest.mark.parametrize("name", list(PAUSED))
    def test_paused_inside_and_restored_after(self, monkeypatch, collector, name, raises, enabled):
        func, args, module, seam, calls = PAUSED[name]
        args = args()
        returns = type(func.__wrapped__(*args))
        real = getattr(getattr(uccakit, module), seam)
        inside = []

        def probe(*a, **kw):
            inside.append(gc.isenabled())
            if raises:
                raise Probe
            return real(*a, **kw)

        monkeypatch.setattr(getattr(uccakit, module), seam, probe)
        (gc.enable if enabled else gc.disable)()
        if raises:
            with pytest.raises(Probe):
                func(*args)
        else:
            assert type(func(*args)) is returns
        assert gc.isenabled() is enabled
        assert inside == [False] * (1 if raises else calls)

    def test_renumbering_keeps_the_pause(self, monkeypatch, collector):
        data = renumbered(to_interchange(parse_passage(CYCLE_FREE_SOURCE)))
        real = uccakit.interchange._build
        seen = []

        def probe(*a, **kw):
            seen.append(gc.isenabled())
            passage = real(*a, **kw)
            seen.append(gc.isenabled())
            return passage

        monkeypatch.setattr(uccakit.interchange, "_build", probe)
        gc.enable()
        assert isinstance(from_interchange(data), Passage)
        assert seen == [False] * 4  # the writer-order check, then the sorted build
        assert gc.isenabled()

    @pytest.mark.parametrize("name", list(PAUSED))
    def test_every_pause_keeps_name_and_docstring(self, name):
        func = PAUSED[name][0]
        original = func.__wrapped__
        assert func is not original
        assert (func.__name__, func.__qualname__, func.__module__, func.__doc__) == (
            original.__name__, original.__qualname__, original.__module__, original.__doc__
        )
        assert inspect.signature(func) == inspect.signature(original, follow_wrapped=False)

    @pytest.mark.parametrize(
        "func, signature",
        [
            (
                parse_passage,
                "(source: 'str', *, passage_id: 'str' = 'passage',"
                " lenient_remotes: 'bool' = False, on_warning=None) -> 'Passage'",
            ),
            (from_interchange, "(data: 'bytes | str') -> 'Passage'"),
            (
                build_passage,
                "(tokens: 'Sequence[Token]', units: 'Iterable[UnitSpec]',"
                " edges: 'Iterable[EdgeSpec]', *, passage_id: 'str' = 'passage',"
                " require_coverage: 'bool' = True) -> 'Passage'",
            ),
        ],
        ids=["parse_passage", "from_interchange", "build_passage"],
    )
    def test_pause_keeps_name_signature_and_docstring(self, func, signature):
        original = func.__wrapped__
        assert str(inspect.signature(func)) == signature
        assert (func.__name__, func.__qualname__, func.__module__) == (
            original.__name__, original.__qualname__, original.__module__
        )
        assert func.__doc__ == original.__doc__
        assert "pauses the cyclic garbage collector" in func.__doc__


class TestNonContiguity:
    def test_dash_merges_fragments(self):
        p = parse_passage("[H [A John] [P- let] [A Mary] [-P down] ]")
        scene = p.units[p.units[p.root].outgoing[0].child]
        p_unit = next(e.child for e in scene.outgoing if "P" in e.categories)
        assert yield_of(p, p_unit) == frozenset({1, 3})
        assert len(scene.outgoing) == 3

    def test_appendix_took_up_on(self):
        p = parse_passage(
            "[H [John A] [P- took] [Mary A] [up on -P] [ [her A] [promise P ] A] ]"
        )
        scene = p.units[p.units[p.root].outgoing[0].child]
        p_unit = next(e.child for e in scene.outgoing if "P" in e.categories)
        assert yield_of(p, p_unit) == frozenset({1, 3, 4})

    def test_interleaved_indices(self):
        p = parse_passage((EDGE_DIR / "interleaved.txt").read_text())
        scene = p.units[p.units[p.root].outgoing[0].child]
        a_yields = sorted(
            tuple(sorted(yield_of(p, e.child)))
            for e in scene.outgoing
            if "A" in e.categories
        )
        assert a_yields == [(0, 3), (1, 4)]

    def test_continuation_can_carry_children(self):
        p = parse_passage("[H [A John] [S- [F has] ] [D no] [-S [C siblings] ] ]")
        scene = p.units[p.units[p.root].outgoing[0].child]
        s_unit = next(e.child for e in scene.outgoing if "S" in e.categories)
        assert yield_of(p, s_unit) == frozenset({1, 3})
        assert [str(e.categories) for e in p.units[s_unit].outgoing] == ["F", "C"]

    def test_dangling_continuation_offset(self):
        source = (EDGE_DIR / "dangling.txt").read_text()
        with pytest.raises(DanglingContinuation) as err:
            parse_passage(source)
        assert err.value.position == source.encode("utf-8").index(b"P-")

    def test_orphan_continuation(self):
        with pytest.raises(OrphanContinuation):
            parse_passage("[H [A John] [-P down] ]")
        # Each group reports the error at its own label's offset.
        with pytest.raises(OrphanContinuation) as err:
            parse_passage("[H [A John] [-P down] [P- x] ]")
        assert err.value.position == 13

    def test_nested_same_label_dashes_need_indices(self):
        # Both fragments share one label text; the error is at the second.
        with pytest.raises(AmbiguousContinuation) as err:
            parse_passage("[H [A- w1] [A- w2] [-A w4] [-A w5] ]")
        assert "indices" in str(err.value)
        assert err.value.position == 12

    def test_orphan_found_before_later_ambiguity(self):
        # Continuations are resolved depth-first: the orphan inside the
        # second A- fragment comes before that fragment's label clashes
        # with the still-open first one.
        with pytest.raises(OrphanContinuation) as err:
            parse_passage("[H [A- x] [A- [-C y]] ]")
        assert err.value.position == 15

    def test_continuations_are_sibling_scoped(self):
        # A fragment opened under one parent cannot be continued inside
        # a nested bracket; the dash only pairs with siblings.
        with pytest.raises(OrphanContinuation):
            parse_passage("[H [A- John] [P slept] [A [E the] [-A boy] ] ]")


# Parses a passage of 1,000 indexed fragment pairs and some non-canonical
# spellings after a small passage has filled the first-use tables, drops
# it, and prints how many bytes the parse left allocated.
_RETAINED = """
import gc, tracemalloc
from uccakit import parse_passage
parse_passage("[H [A w] [P w] [S+A w]]")
source = " ".join(f"[H [A{k}- a{k}] [P b] [-A{k} c{k}]]" for k in range(1, 1001))
source += " [H [A+A a] [P b] [A+S c] [S+A+A- d] [-A+S+A e]] [H [A+A- f] [P g] [-A+A h]]"
gc.collect()
tracemalloc.start()
passage = parse_passage(source)
assert len(passage.tokens) == 3008
del passage
gc.collect()
print(tracemalloc.get_traced_memory()[0])
"""


def test_label_table_stays_bounded():
    # Only unindexed labels spelled in canonical order are kept between
    # parses, so indices and other spellings leave nothing behind.  In a
    # fresh interpreter, on the package this process imported.
    child = subprocess.run(
        [sys.executable, "-c", _RETAINED],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert int(child.stdout) < 64 * 1024


class TestParens:
    def test_remote_resolution(self):
        p = parse_passage(
            "[H [A John] [P got] [A home] ] [L and] "
            "[H [P took] [A [F a] [C shower] ] (John A) ]"
        )
        remotes = [e for e in p.edges() if e.remote]
        assert len(remotes) == 1
        assert p.text_of(remotes[0].child) == "John"
        assert str(remotes[0].categories) == "A"

    def test_forward_remote(self):
        p = parse_passage(
            "[L To] [H [P win] (you A) ] [H [A you] [P find] [A it] ]"
        )
        (remote,) = [e for e in p.edges() if e.remote]
        assert p.text_of(remote.child) == "you"

    def test_remote_matches_full_surface_text(self):
        # "ball" names the bare terminal, not the wrapper that also
        # covers "the".
        p = parse_passage(
            "[H [A John] [P kicked] [A [F the] [C ball] ] ] [L and] "
            "[H [A Mary] [P caught] (ball A) ]"
        )
        (remote,) = [e for e in p.edges() if e.remote]
        assert p.units[remote.child].kind == "terminal"

    def test_remote_prefers_minimal_unit(self):
        # Wrapper and center cover the same single word, so both read
        # "ball"; resolution drops the wrapper rather than reporting an
        # ambiguity.
        p = parse_passage(
            "[H [A [C ball] ] [P flew] ] [L and] [H [P bounced] (ball A) ]"
        )
        (remote,) = [e for e in p.edges() if e.remote]
        assert p.units[remote.child].kind == "terminal"

    def test_unresolved_remote(self):
        with pytest.raises(UnresolvedRemote):
            parse_passage("[H [A John] [P slept] (Mary A) ]")

    @pytest.mark.parametrize("lenient", [False, True])
    def test_first_remote_in_source_reported(self, lenient):
        # Neither remote resolves; the one that comes first in the source,
        # inside the nested unit, is the one reported.
        with pytest.raises(UnresolvedRemote) as err:
            parse_passage("[H [A x y (x D)] [P ran] (john A)]", lenient_remotes=lenient)
        assert err.value.position == 10
        assert str(err.value) == "byte 10: no unit reads 'x'"

    @pytest.mark.parametrize("lenient", [False, True])
    def test_first_remote_in_source_reported_across_fragments(self, lenient):
        # '(s A)' belongs to a unit inside the continuation '[-A ...]', so a
        # walk over the merged units meets it before '[P ...]'; the groups
        # resolve in source order all the same.
        source = "[H [A- [E [C x] (y A)]] [P [C y] (r A)] [-A [E [C z] (s A)]]]"
        with pytest.raises(UnresolvedRemote) as err:
            parse_passage(source, lenient_remotes=lenient)
        assert str(err.value) == "byte 33: no unit reads 'r'"

    def test_words_beside_round_bracket_group_are_a_coverage_gap(self):
        # The group makes '[P ...]' a non-terminal, so 'slept' belongs to no unit.
        p = parse_passage("[H [A John] [P slept (John A)]]")
        assert [t.text for t in p.tokens] == ["John", "slept"]
        assert p.extents[p.root] == frozenset({0})
        assert [(d.rule, d.unit) for d in validate(p)] == [("R10", "0"), ("R6", "3")]
        with pytest.raises(RenderError) as err:
            render(p)
        assert str(err.value) == "unit 3 covers no tokens and cannot be written"

    def test_ambiguous_remote_strict_and_lenient(self):
        source = (EDGE_DIR / "ambiguous-remote.txt").read_text()
        with pytest.raises(AmbiguousRemote):
            parse_passage(source)
        warnings = []
        p = parse_passage(source, lenient_remotes=True, on_warning=warnings.append)
        assert len(warnings) == 1
        (remote,) = [e for e in p.edges() if e.remote]
        # nearest preceding "John" is the second one
        assert yield_of(p, remote.child) == frozenset({4})

    def test_many_ambiguous_remotes_lenient(self):
        # All eight scenes have a "john" and re-attach "john": each picks
        # the nearest preceding one, and the first, with none before it,
        # the nearest following one.
        verbs = ["ran", "sat", "ate", "hid", "won", "met", "saw", "cry"]
        source = " ".join(f"[H [A john] [P {v}] (john A)]" for v in verbs)
        warnings = []
        p = parse_passage(source, lenient_remotes=True, on_warning=warnings.append)
        remotes = [
            (min(p.extents[e.parent]), min(p.extents[e.child])) for e in p.edges() if e.remote
        ]
        assert remotes == [
            (0, 2), (2, 0), (4, 2), (6, 4), (8, 6), (10, 8), (12, 10), (14, 12)
        ]
        assert warnings == [
            f"byte {20 + 30 * i}: 7 units read 'john'; picking the nearest preceding one"
            for i in range(8)
        ]

    @pytest.mark.parametrize("lenient", [False, True])
    def test_repeated_remote_group(self, lenient):
        for source in ("[H [A x] [P y (x A) (x A)]]", "[H [A x] [P y (x A) (x D)]]"):
            with pytest.raises(ParseError) as err:
                parse_passage(source, lenient_remotes=lenient)
            assert type(err.value) is ParseError
            assert str(err.value) == "byte 20: a second remote group in one unit reads 'x'"

    @pytest.mark.parametrize("lenient", [False, True])
    def test_remote_cycle(self, lenient):
        # Each scene re-attaches the other: the second group closes the cycle.
        source = "[H [P [C a] [E b] (c d A)] [S [C c] [E d] (a b A)]]"
        with pytest.raises(ParseError) as err:
            parse_passage(source, lenient_remotes=lenient)
        assert type(err.value) is ParseError
        assert str(err.value) == "byte 42: the remote group reading 'a b' closes a cycle of edges"

    @pytest.mark.parametrize("lenient", [False, True])
    def test_remote_cycle_blames_first_closing_group(self, lenient):
        # The groups at byte 50 and at byte 74 each close a cycle with the
        # first scene; the first of them in source order is named.
        source = (
            "[H [P [C a] [E b] (c d A) (e f A)] [S [C c] [E d] (a b A)]"
            " [S [C e] [E f] (a b A)]]"
        )
        with pytest.raises(ParseError) as err:
            parse_passage(source, lenient_remotes=lenient)
        assert type(err.value) is ParseError
        assert str(err.value) == "byte 50: the remote group reading 'a b' closes a cycle of edges"

    def test_remote_cycle_blame_with_a_later_remote_only_unit(self):
        # '[D f (a b A)]' has only its remote edge, and its group comes after
        # the one that closes the cycle.
        source = (
            "[H [P [C a] [E b] (c d A)] [S [C c] [E d] (a b A)]] [H [A e] [D f (a b A)]]"
        )
        with pytest.raises(ParseError) as err:
            parse_passage(source)
        assert str(err.value) == "byte 42: the remote group reading 'a b' closes a cycle of edges"

    def test_remote_cycle_through_a_primary_edge(self):
        # The first scene's participant re-attaches the second scene, whose
        # participant re-attaches the first scene's participant.
        p = parse_passage("[H [A [P x] [A y] (z w A)]] [H [P z] [A [C w]]]")
        assert sum(e.remote for e in p.edges()) == 1
        with pytest.raises(ParseError) as err:
            parse_passage("[H [A [P x] [A y] (z w A)]] [H [P z] [A [C w] (x y A)]]")
        assert str(err.value) == "byte 46: the remote group reading 'x y' closes a cycle of edges"

    def test_remote_group_must_trail(self):
        with pytest.raises(MisplacedRemote):
            parse_passage("[H (John A) [P slept] ]")
        # Reported at its unit's ']', at the first round-bracket group ...
        for source in ("[H [A John] [P ran (John A) x]]", "[H [A John] [P ran (John A) [A x] ]]"):
            with pytest.raises(MisplacedRemote) as err:
                parse_passage(source)
            assert str(err.value) == "byte 19: round-bracket group must come at the end of its unit"
        # ... so an error inside a later child group comes first.
        with pytest.raises(ParseError) as err:
            parse_passage("[H [A John] [P ran (John A) [Q]]]")
        assert type(err.value) is ParseError
        assert str(err.value).startswith("byte 29: category label without any text")

    def test_implicit_unit(self):
        p = parse_passage("[H [P Come] [A here] , (IMP A) ]")
        implicit = [u for u in p.units.values() if u.kind == "implicit"]
        assert len(implicit) == 1
        edge = p.primary_parent_edge(implicit[0].id)
        assert str(edge.categories) == "A"
        assert not edge.remote

    def test_several_trailing_parens(self):
        p = parse_passage("[H [A I] [P went] ] [L for] [H [A eggs] (I A) (IMP P) ]")
        second_h = p.units[p.root].outgoing[2].child
        cats = sorted(str(e.categories) for e in p.units[second_h].outgoing)
        assert cats == ["A", "A", "P"]

    def test_nested_brackets_inside_parens_rejected(self):
        with pytest.raises(ParseError):
            parse_passage("[H [A John] [P slept] ([A Mary] A) ]")

    @pytest.mark.parametrize(
        "tail, error, message",
        [
            ("(John ] A) ]", UnbalancedBrackets,
             "byte 28: ']' inside a round-bracket group (found ']')"),
            ("(John A", UnbalancedBrackets,
             "byte 22: round bracket opened here is never closed"
             " (expected ')', found end of input)"),
            ("(A) ]", ParseError,
             "byte 22: round-bracket group needs words and a category, as in (John A)"),
            ("(John Mary) ]", ParseError,
             "byte 22: round-bracket group has no category label"
             " (expected a label first or last, as in (John A))"),
            ("(John Z) ]", UnknownCategoryLabel, "byte 28: 'Z' is not a known category label"),
            ("(Z John) ]", UnknownCategoryLabel, "byte 23: 'Z' is not a known category label"),
        ],
        ids=["close-bracket", "unclosed", "one-word", "no-label", "unknown-last", "unknown-first"],
    )
    def test_malformed_round_bracket_group(self, tail, error, message):
        with pytest.raises(error) as err:
            parse_passage(f"[H [A John] [P slept] {tail}")
        assert type(err.value) is error
        assert str(err.value) == message

    def test_label_first_remote_group(self):
        first = parse_passage("[H [A John] [P slept] ] [H [P woke] (A John) ]")
        last = parse_passage("[H [A John] [P slept] ] [H [P woke] (John A) ]")
        assert any(e.remote for e in first.edges())
        assert to_interchange(first) == to_interchange(last)

    @pytest.mark.parametrize("label", ["A-", "-A", "A1"])
    def test_continuation_marks_rejected_in_round_brackets(self, label):
        with pytest.raises(ParseError) as err:
            parse_passage(f"[H [A John] [P slept] ] [H [P woke] (John {label}) ]")
        assert str(err.value) == (
            "byte 42: continuation marks are not allowed on remote or implicit units"
        )


class TestReaderIndex:
    """The parser and the renderer resolve remote text through one index,
    `notation._reader_index`, built only when a remote needs it."""

    # Remote groups reading one word and two words.
    TWO_WIDTHS = (
        "[H [A John] [P ran] ] [H [A the dog] [P barked] ] "
        "[H [P saw] (John A) (the dog A) ] [H [P left] (John A) ]"
    )
    NO_REMOTES = "[H [A John] [P kicked] [A [F the] [C ball] ] (IMP D) ]"

    @pytest.fixture
    def builds(self, monkeypatch):
        """The widths asked of each index built during the test."""
        original = notation._reader_index
        widths = []

        def counting(tokens, extents, wanted):
            widths.append(set(wanted))
            return original(tokens, extents, wanted)

        monkeypatch.setattr(notation, "_reader_index", counting)
        return widths

    def test_parse_builds_one_index_for_all_widths(self, builds):
        p = parse_passage(self.TWO_WIDTHS)
        assert sum(e.remote for e in p.edges()) == 3
        assert builds == [{1, 2}]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_render_builds_one_index_per_target_width(self, builds, side):
        p = parse_passage(self.TWO_WIDTHS)
        builds.clear()
        text = render(p, side)
        assert builds == [{1, 2}]
        assert isomorphic(parse_passage(text), p)

    def test_no_remotes_build_no_index(self, builds):
        render(parse_passage(self.NO_REMOTES))
        assert builds == []

    @pytest.mark.parametrize("how", ["parse", "interchange", "build"])
    def test_terminal_tokens_are_their_extent(self, how):
        p = parse_passage(self.TWO_WIDTHS)
        if how == "interchange":
            p = from_interchange(to_interchange(p))
        elif how == "build":
            p = build_passage(*spec_tables(p))
        terminals = [u for u in p.units.values() if u.kind == "terminal"]
        assert terminals
        assert all(u.tokens is p.extents[u.id] for u in terminals)


class TestDeepNesting:
    def test_any_depth_parses_in_preorder(self):
        depth = 5000
        p = parse_passage("[H [P ran] " + "[A " * depth + "x" + " ]" * (depth + 1))
        assert len(p.units) == depth + 3
        assert p.units["2"].tokens == frozenset({0})
        for i in range(3, depth + 2):
            (edge,) = p.units[str(i)].outgoing
            assert (edge.child, edge.categories.labels) == (str(i + 1), ("A",))
        assert p.units[str(depth + 2)].tokens == frozenset({1})
        assert validate(p) == []

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_any_depth_renders(self, side):
        depth = 5000
        p = parse_passage("[H [P ran] " + "[A " * depth + "x" + " ]" * (depth + 1))
        assert isomorphic(parse_passage(render(p, side)), p)


def _callee(call: ast.Call) -> str | None:
    """The name a call invokes directly or as self.<name>, if either."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "self":
        return func.attr
    return None


def test_no_function_in_src_calls_itself():
    # A recursive walk would bound its command by the recursion limit.
    calls_itself = []
    for path in sorted(Path(uccakit.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls_itself += [
                    f"{path.name}:{call.lineno} {fn.name}"
                    for call in ast.walk(fn)
                    if isinstance(call, ast.Call) and _callee(call) == fn.name
                ]
    assert calls_itself == []


class TestUnanalyzable:
    def test_final_una_word_marks_unit(self):
        p = parse_passage("[H [P Thank you UNA] [A everyone] ]")
        scene = p.units[p.units[p.root].outgoing[0].child]
        p_edge = next(e for e in scene.outgoing if "P" in e.categories)
        assert "UNA" in p_edge.categories
        assert p.text_of(p_edge.child) == "Thank you"

    def test_una_with_right_side_label(self):
        p = parse_passage("[H [Thank you UNA P] [A everyone] ]")
        scene = p.units[p.units[p.root].outgoing[0].child]
        p_edge = next(e for e in scene.outgoing if "P" in e.categories)
        assert "UNA" in p_edge.categories
        assert p.text_of(p_edge.child) == "Thank you"


class TestMultiPassage:
    def test_split_on_blank_lines(self):
        chunks = split_passages((EDGE_DIR / "multi.txt").read_text())
        assert len(chunks) == 2
        assert all(parse_passage(c) for c in chunks)

    def test_split_on_crlf_blank_lines(self):
        text = "[H [A Mary] [P left] ]\r\n \r\n[H [A John] [P came] ]\r\n"
        assert split_passages(text) == ["[H [A Mary] [P left] ]", "[H [A John] [P came] ]\r\n"]

    def test_empty_text_has_no_passages(self):
        assert split_passages("") == []
        assert split_passages("\n\n\n") == []


class TestRender:
    def test_fixpoint_on_canonical_output(self):
        source = "[H [A apple]]"
        assert render(parse_passage("[H [A apple] ]"), "left") == source
        assert render(parse_passage(source), "left") == source

    def test_right_side_style(self):
        p = parse_passage("[H [A John] [P slept] ]")
        assert render(p, "right") == "[[John A] [slept P] H]"

    def test_invalid_side_rejected(self):
        with pytest.raises(ValueError):
            render(parse_passage("[H [A x] ]"), "up")

    @pytest.mark.parametrize("path", CORPUS, ids=corpus_ids())
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_corpus_roundtrip(self, path, side):
        p = parse_passage(path.read_text())
        assert isomorphic(p, parse_passage(render(p, side)))

    def test_renders_dashes_for_non_contiguous(self):
        p = parse_passage("[H [A John] [P- let] [A Mary] [-P down] ]")
        out = render(p, "left")
        assert "[P- let]" in out and "[-P down]" in out

    def test_indices_only_when_needed(self):
        p = parse_passage((EDGE_DIR / "interleaved.txt").read_text())
        out = render(p, "left")
        assert "A1-" in out and "A2-" in out
        q = parse_passage("[H [A John] [P- let] [A Mary] [-P down] ]")
        assert "P1" not in render(q, "left")

    def test_renders_remote_and_implicit_parens(self):
        p = parse_passage("[H [A I] [P went] ] [L for] [H [A eggs] (I A) (IMP P) ]")
        out = render(p, "left")
        assert "(I A)" in out and "(IMP P)" in out

    def test_remote_target_reading_imp_unrenderable(self):
        # "(IMP A)" always re-parses as an implicit unit, so a remote
        # whose target happens to read "IMP" has no written form.
        p = build_passage(
            [Token("IMP", 0), Token("slept", 1)],
            [
                UnitSpec("r", "internal"),
                UnitSpec("h1", "internal"),
                UnitSpec("h2", "internal"),
                UnitSpec("imp", "terminal", (0,)),
                UnitSpec("slept", "terminal", (1,)),
            ],
            [
                EdgeSpec("r", "h1", "H"),
                EdgeSpec("r", "h2", "H"),
                EdgeSpec("h1", "imp", "A"),
                EdgeSpec("h2", "slept", "P"),
                EdgeSpec("h2", "imp", "A", remote=True),
            ],
        )
        with pytest.raises(RenderError):
            render(p)

    def test_remote_to_implicit_unit_unrenderable(self):
        p = build_passage(
            [Token("slept", 0), Token("woke", 1)],
            [
                UnitSpec("r", "internal"),
                UnitSpec("h1", "internal"),
                UnitSpec("h2", "internal"),
                UnitSpec("imp", "implicit"),
                UnitSpec("slept", "terminal", (0,)),
                UnitSpec("woke", "terminal", (1,)),
            ],
            [
                EdgeSpec("r", "h1", "H"),
                EdgeSpec("r", "h2", "H"),
                EdgeSpec("h1", "slept", "P"),
                EdgeSpec("h1", "imp", "A"),
                EdgeSpec("h2", "woke", "P"),
                EdgeSpec("h2", "imp", "A", remote=True),
            ],
        )
        with pytest.raises(RenderError) as err:
            render(p)
        assert str(err.value) == "remote target 3 has no surface text to refer to it by"

    def test_literal_final_una_word_unrenderable(self):
        # A terminal whose last word is the bare string "UNA" would gain
        # the category on re-parse, so rendering refuses it.
        p = build_passage(
            [Token("thank", 0), Token("UNA", 1)],
            [UnitSpec("r", "internal"), UnitSpec("t", "terminal", (0, 1))],
            [EdgeSpec("r", "t", "H")],
        )
        with pytest.raises(RenderError):
            render(p)

    @pytest.mark.parametrize(
        "source, side, expected",
        [
            ("[H [x UNA C A] [P y]]", "right", "[[x UNA C A] [y P] H]"),
            ("[H [x UNA C UNA A] [P y]]", "left", "[H [A x UNA C UNA] [P y]]"),
            ("[H [x UNA C UNA A] [P y]]", "right", "[[x UNA C UNA A] [y P] H]"),
        ],
    )
    def test_literal_una_before_label_word_renders_when_unambiguous(
        self, source, side, expected
    ):
        p = parse_passage(source)
        assert render(p, side) == expected
        assert isomorphic(p, parse_passage(expected))

    @pytest.mark.parametrize(
        "source, side, unit, words",
        [
            ("[H [x UNA C A] [P y]]", "left", "2", "UNA C"),
            # A label-shaped first word puts the label first on either side.
            ("C [P+A UNA A , ,]", "left", "1", "UNA A"),
            ("C [P+A UNA A , ,]", "right", "1", "UNA A"),
        ],
    )
    def test_literal_una_before_label_word_unrenderable(self, source, side, unit, words):
        # Written "[A x UNA C]", the last two words would read back as the
        # unanalyzable mark and the label.
        p = parse_passage(source)
        assert p.text_of(unit).endswith(words)
        with pytest.raises(RenderError) as err:
            render(p, side)
        assert str(err.value) == (
            f"unit {unit} ends with the literal words {words!r}, which the notation"
            " reads as the unanalyzable mark and a label"
        )

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_remote_group_keeps_una(self, side):
        p = parse_passage("[H [A John] [P slept]] [H [P woke] (John A+UNA)]")
        out = render(p, side)
        assert "(John A+UNA)" in out
        assert isomorphic(p, parse_passage(out))

    @pytest.mark.parametrize(
        "make",
        [
            # "John" also names the owner's own child, which is no target.
            lambda: parse_passage("[H [A John] [P slept] ] [H [A John] [P woke] (John A) ]"),
            # "ball" also names the owner's parent, which is no target either.
            lambda: parse_passage(
                "[H [A ball] [P flew] ] [H [P bounced] [A [E [C ball] (ball A) ] ] ]"
            ),
            # The wrapper and its center read the same word.
            lambda: parse_passage(
                "[H [A [C ball] ] [P flew] ] [L and] [H [P bounced] (ball A) ]"
            ),
            minimal_wrapper_passage,
            lambda: parse_passage("[L To] [H [P win] (you A) ] [H [A you] [P find] [A it] ]"),
            lambda: parse_passage("[H [A John] [P slept] ] (John A)"),
        ],
        ids=["owner-child", "owner-ancestor", "parsed-wrapper", "built-wrapper", "forward", "root-owner"],
    )
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_renderer_resolves_remotes_as_parser_does(self, make, side):
        p = make()
        assert any(e.remote for e in p.edges())
        assert isomorphic(p, parse_passage(render(p, side)))

    def test_ambiguous_remote_reference_unrenderable(self):
        # Leniently parsed, the passage holds a remote whose target text
        # names two different units; writing it back would lose the
        # choice, so rendering refuses.
        source = (EDGE_DIR / "ambiguous-remote.txt").read_text()
        p = parse_passage(source, lenient_remotes=True, on_warning=lambda _: None)
        with pytest.raises(RenderError, match="ambiguous"):
            render(p)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_two_remote_groups_reading_alike_unrenderable(self, side):
        # w and its only child t both read 'a', so a reader would resolve
        # both of the second scene's groups to t and refuse the second.
        p = build_passage(
            [Token("a", 0), Token("b", 1)],
            [UnitSpec("r", "internal"), UnitSpec("s1", "internal"), UnitSpec("w", "internal"),
             UnitSpec("t", "terminal", (0,)), UnitSpec("s2", "internal"),
             UnitSpec("t2", "terminal", (1,))],
            [EdgeSpec("r", "s1", "H"), EdgeSpec("s1", "w", "A"), EdgeSpec("w", "t", "C"),
             EdgeSpec("r", "s2", "H"), EdgeSpec("s2", "t2", "P"),
             EdgeSpec("s2", "w", "A", True), EdgeSpec("s2", "t", "D", True)],
        )
        with pytest.raises(RenderError) as caught:
            render(p, side)
        assert str(caught.value) == "two remote groups of unit 4 read 'a'"
        with pytest.raises(ParseError, match="a second remote group in one unit reads 'a'"):
            parse_passage("[H [A [C a]]] [H [P b] (a A) (a D)]")

    def test_token_with_delimiter_unrenderable(self):
        p = build_passage(
            [Token("a[b", 0)],
            [UnitSpec("r", "internal"), UnitSpec("t", "terminal", (0,))],
            [EdgeSpec("r", "t", "H")],
        )
        with pytest.raises(RenderError):
            render(p)

    @pytest.mark.parametrize(
        "char",
        ["[", "]", "(", ")", " ", "\t", "\u00a0", "\u3000", "\u001c"],
        ids=["lbracket", "rbracket", "lparen", "rparen", "space", "tab", "nbsp",
             "ideographic-space", "file-separator"],
    )
    def test_token_with_delimiter_or_space_unrenderable(self, char):
        text = f"a{char}b"
        p = build_passage(
            [Token("ok", 0), Token(text, 1)],
            [UnitSpec("r", "internal"), UnitSpec("t", "terminal", (0, 1))],
            [EdgeSpec("r", "t", "H")],
        )
        with pytest.raises(RenderError) as caught:
            render(p)
        assert str(caught.value) == f"token {text!r} contains notation delimiters or spaces"

    @pytest.mark.parametrize("case", list(RENDER_PRECEDENCE))
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_first_fault_wins(self, case, side):
        words, edges, message = RENDER_PRECEDENCE[case]
        p = table_passage(words.split(), edges)
        with pytest.raises(RenderError) as caught:
            render(p, side)
        assert str(caught.value) == message

    def test_zero_width_internal_unit_unrenderable(self):
        p = build_passage(
            [Token("slept", 0)],
            [
                UnitSpec("r", "internal"),
                UnitSpec("h", "internal"),
                UnitSpec("empty", "internal"),
                UnitSpec("imp", "implicit"),
                UnitSpec("t", "terminal", (0,)),
            ],
            [
                EdgeSpec("r", "h", "H"),
                EdgeSpec("h", "t", "P"),
                EdgeSpec("h", "empty", "A"),
                EdgeSpec("empty", "imp", "A"),
            ],
        )
        with pytest.raises(RenderError):
            render(p)
