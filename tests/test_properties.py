import contextlib
import io
import json
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uccakit import (
    IMPLICIT,
    INTERNAL,
    CategoryCounts,
    CategorySet,
    EdgeSpec,
    RemoteCycle,
    RenderError,
    Token,
    UccaError,
    UnitSpec,
    build_passage,
    from_interchange,
    is_scene_unit,
    isomorphic,
    lex,
    parse_passage,
    render,
    score,
    stats,
    to_interchange,
    validate,
    yield_of,
)
from uccakit import core
from uccakit.cli import main
from uccakit.core import id_key
from uccakit.notation import LABEL, WORD, ParseError
from uccakit.validation import list_rules

import reference_build
from conftest import CORPUS, corpus_ids
from strategies import (
    COMBO_LABELS,
    PLAIN_LABELS,
    bracket_sources,
    mutated_documents,
    mutated_tables,
    passages,
    unicode_bracket_sources,
)


@given(passages())
def test_render_round_trip_left(p):
    assert isomorphic(p, parse_passage(render(p, "left")))


@given(passages())
def test_render_round_trip_right(p):
    assert isomorphic(p, parse_passage(render(p, "right")))


@given(passages())
def test_interchange_round_trip(p):
    data = to_interchange(p)
    q = from_interchange(data)
    assert isomorphic(p, q)
    assert to_interchange(q) == data


@given(passages())
def test_interchange_keeps_unit_ids(p):
    q = from_interchange(to_interchange(p))
    assert set(q.units) == set(p.units)


@given(passages())
def test_root_yield_covers_all_non_punct_tokens(p):
    expected = {t.position for t in p.tokens if not t.is_punct}
    assert yield_of(p, p.root) == frozenset(expected)


@given(passages())
def test_primary_edges_form_a_tree(p):
    for uid in p.units:
        if uid == p.root:
            assert p.primary_parent_edge(uid) is None
            continue
        seen = set()
        cur = uid
        while cur != p.root:
            assert cur not in seen
            seen.add(cur)
            cur = p.primary_parent_edge(cur).parent


@given(passages())
def test_validate_is_deterministic(p):
    first = validate(p)
    assert validate(p) == first
    assert validate(p, {}) == first


@given(passages(), st.randoms())
def test_validate_ignores_unit_order(p, rng):
    units = [UnitSpec(u.id, u.kind, tuple(sorted(u.tokens))) for u in p.units.values()]
    edges = [EdgeSpec(e.parent, e.child, e.categories, e.remote) for e in p.edges()]
    rng.shuffle(units)
    rng.shuffle(edges)
    q = build_passage(p.tokens, units, edges)

    def found(passage):
        return sorted(
            (d.rule, tuple(sorted(yield_of(passage, d.unit))))
            for d in validate(passage)
        )

    assert found(q) == found(p)


@given(
    passages(),
    st.dictionaries(
        st.sampled_from([r.id for r in list_rules()]),
        st.sampled_from(["error", "warning", "off"]),
    ),
)
def test_overrides_never_change_violation_set(p, config):
    default = {(d.rule, d.unit) for d in validate(p)}
    silenced = {rule for rule, sev in config.items() if sev == "off"}
    overridden = {(d.rule, d.unit) for d in validate(p, config)}
    assert overridden == {pair for pair in default if pair[0] not in silenced}


@given(passages())
def test_self_score_is_perfect(p):
    report = score(p, p)
    assert report.labeled_primary.f1 == 1.0
    assert report.labeled_remote.f1 == 1.0
    assert report.unlabeled_primary.f1 == 1.0
    assert report.unlabeled_remote.f1 == 1.0


@given(passages(), passages())
def test_stats_addition_matches_fields(p, q):
    total = stats(p) + stats(q)
    assert total.tokens == stats(p).tokens + stats(q).tokens
    assert total.edges == stats(p).edges + stats(q).edges
    for label, count in total.categories.items():
        assert count == stats(p).categories.get(label, 0) + stats(q).categories.get(
            label, 0
        )


def reference_stats(passage):
    """The per-unit `stats` that a single pass over the edges replaced,
    built only from public accessors and kept as its oracle."""
    counts = CategoryCounts(tokens=len(passage.tokens))
    cats = Counter()
    for edge in passage.edges():
        counts.edges += 1
        cats.update(edge.categories)
        if edge.remote:
            counts.remote_edges += 1
    for unit in passage.units.values():
        if unit.kind == IMPLICIT:
            counts.implicit_units += 1
        if unit.kind == INTERNAL and is_scene_unit(passage, unit.id):
            counts.scene_units += 1
        if any("UNA" in e.categories for e in passage.incoming(unit.id)):
            counts.una_units += 1
    counts.categories = dict(cats)
    return counts


def assert_stats_match_reference(p):
    got, expected = stats(p), reference_stats(p)
    assert got.to_dict() == expected.to_dict()
    assert list(got.categories) == list(expected.categories)


@settings(max_examples=300)
@given(passages(max_tokens=12))
def test_stats_match_per_unit_reference(p):
    assert_stats_match_reference(p)


@pytest.mark.parametrize("path", CORPUS, ids=corpus_ids())
def test_stats_match_per_unit_reference_on_corpus(path):
    assert_stats_match_reference(parse_passage(path.read_text()))


@settings(max_examples=200)
@given(st.sampled_from(PLAIN_LABELS + COMBO_LABELS), st.randoms())
def test_category_notation_round_trip(text, rng):
    cats = CategorySet.from_notation(text)
    assert CategorySet.from_notation(cats.notation()) == cats
    shuffled = list(cats.labels)
    rng.shuffle(shuffled)
    assert CategorySet(shuffled) == cats


def reference_signature(passage, unit_id):
    """The recursive shape `isomorphic` compared before it became
    iterative, kept as the oracle for the iterative version."""
    unit = passage.units[unit_id]
    children = []
    remotes = []
    for e in unit.outgoing:
        if e.remote:
            remotes.append((e.categories.labels, tuple(sorted(passage.extents[e.child]))))
        elif passage.units[e.child].kind == "implicit":
            children.append(((), e.categories.labels, "implicit"))
        else:
            child_min = min(passage.extents[e.child], default=-1)
            children.append(
                ((child_min,), e.categories.labels, reference_signature(passage, e.child))
            )
    return (
        unit.kind,
        tuple(sorted(unit.tokens)),
        tuple(sorted(children)),
        tuple(sorted(remotes)),
    )


def reference_isomorphic(a, b):
    if [(t.text, t.is_punct) for t in a.tokens] != [(t.text, t.is_punct) for t in b.tokens]:
        return False
    return reference_signature(a, a.root) == reference_signature(b, b.root)


@given(passages(), passages(), st.randoms())
def test_isomorphic_matches_recursive_reference(p, other, rng):
    units = [UnitSpec(u.id, u.kind, tuple(sorted(u.tokens))) for u in p.units.values()]
    edges = [EdgeSpec(e.parent, e.child, e.categories, e.remote) for e in p.edges()]
    rng.shuffle(units)
    rng.shuffle(edges)

    def rebuilt(tokens_of={}, replaced={}):
        """`p` shuffled, with some terminals' tokens and some edges replaced."""
        return build_passage(
            p.tokens,
            [UnitSpec(u.id, u.kind, tokens_of.get(u.id, u.tokens)) for u in units],
            [replaced.get(k, e) for k, e in enumerate(edges)],
        )

    candidates = [other, rebuilt()]
    if edges:
        k = rng.randrange(len(edges))
        e = edges[k]
        label = rng.choice([l for l in PLAIN_LABELS if (l,) != e.categories.labels])
        candidates.append(rebuilt(replaced={k: EdgeSpec(e.parent, e.child, label, e.remote)}))
    # The candidates below keep every unit and edge count and change one shape.
    primary = [(k, e) for k, e in enumerate(edges) if not e.remote]
    siblings = [(i, a, j, b) for i, a in primary for j, b in primary
                if i != j and a.parent == b.parent]
    terminals = {u.id: u.tokens for u in units if u.kind == "terminal"}
    moves = [(a.child, b.child) for _, a, _, b in siblings
             if a.child in terminals and b.child in terminals and len(terminals[a.child]) > 1]
    if moves:
        src, dst = rng.choice(moves)
        token = rng.choice(terminals[src])
        candidates.append(rebuilt(tokens_of={
            src: tuple(t for t in terminals[src] if t != token),
            dst: tuple(sorted(terminals[dst] + (token,))),
        }))
    swaps = [(i, a, j, b) for i, a, j, b in siblings if a.categories != b.categories]
    if swaps:
        i, a, j, b = rng.choice(swaps)
        candidates.append(rebuilt(replaced={
            i: EdgeSpec(a.parent, a.child, b.categories),
            j: EdgeSpec(b.parent, b.child, a.categories),
        }))
    remotes = [(k, e) for k, e in enumerate(edges) if e.remote]
    if remotes:
        k, e = rng.choice(remotes)
        targets = [u.id for u in units if u.kind != IMPLICIT and u.id != e.child]
        rng.shuffle(targets)
        for target in targets:  # the first that still builds
            with contextlib.suppress(UccaError):
                retargeted = EdgeSpec(e.parent, target, e.categories, True)
                candidates.append(rebuilt(replaced={k: retargeted}))
                break
    for q in candidates:
        assert isomorphic(p, q) == reference_isomorphic(p, q)
        assert isomorphic(q, p) == reference_isomorphic(q, p)


def parse_text(source, lenient):
    """The passage `source` spells, or None if it raises a `UccaError`;
    any other exception fails the test."""
    try:
        return parse_passage(source, lenient_remotes=lenient, on_warning=lambda _: None)
    except UccaError:
        return None


@settings(max_examples=400)
@given(bracket_sources(), st.booleans())
def test_text_gives_a_passage_or_ucca_error(source, lenient):
    p = parse_text(source, lenient)
    if p is not None:
        validate(p)
        stats(p)
        score(p, p)
        data = to_interchange(p)
        assert to_interchange(from_interchange(data)) == data


@settings(max_examples=400)
@given(bracket_sources(), st.sampled_from(["left", "right"]))
def test_text_renders_back_isomorphic_or_raises(source, side):
    p = parse_text(source, lenient=True)
    if p is not None:
        try:
            text = render(p, side)
        except RenderError:
            return
        assert isomorphic(p, parse_passage(text))


def reference_load(data):
    """The reference checker on a document's tables in document order, edges
    sorted by id: the oracle for `from_interchange`, which checks documents
    in the writer's pre-order in a pass of its own."""
    doc = json.loads(data)
    tokens = [Token(t["text"], i, t["is_punct"]) for i, t in enumerate(doc["tokens"])]
    units = [UnitSpec(u["id"], u["kind"], tuple(u["tokens"])) for u in doc["units"]]
    edges = [EdgeSpec(e["parent"], e["child"], e["categories"], e["remote"]) for e in doc["edges"]]
    edges.sort(key=lambda e: (id_key(e.parent), id_key(e.child)))
    return reference_build_passage(tokens, units, edges, doc["id"], require_coverage=False)


def reference_build_passage(tokens, units, edges, passage_id="passage", require_coverage=True):
    """`build_passage` on tokens at their positions, over the reference checker."""
    units = [(u.id, u.kind, u.tokens) for u in units]
    edges = [(e.parent, e.child, e.categories, e.remote) for e in edges]
    return reference_build._build(passage_id, tuple(tokens), units, edges, require_coverage)


def load_outcome(load, data):
    try:
        p = load(data)
    except UccaError as exc:
        return type(exc), str(exc)
    return (
        to_interchange(p),
        list(p.units.items()),
        {uid: p.incoming(uid) for uid in p.units},
        dict(p.extents),
    )


@settings(max_examples=400)
@given(mutated_documents())
def test_interchange_loads_as_build_passage_does(data):
    assert load_outcome(from_interchange, data) == load_outcome(reference_load, data)


@settings(max_examples=400)
@given(mutated_tables(), st.booleans())
def test_build_passage_matches_reference_checker(tables, require_coverage):
    # Tables in any unit and edge order, edited, with any ids: the checker
    # gives the reference's passage, or its first fault with its message.
    def outcome(build):
        return load_outcome(lambda _: build(*tables, require_coverage=require_coverage), None)

    assert outcome(build_passage) == outcome(reference_build_passage)


@settings(max_examples=300)
@given(passages(max_tokens=6, remote_only=True), st.randoms())
def test_cycle_search_runs_only_on_a_cycle(p, rng):
    # A generated passage has no cycle, so its subtree ranges must show none
    # and the search that names a unit on one never runs: in the writer's
    # order, and renumbered from shuffled tables.
    units = [UnitSpec("u" + u.id, u.kind, tuple(sorted(u.tokens))) for u in p.units.values()]
    edges = [EdgeSpec("u" + e.parent, "u" + e.child, e.categories, e.remote) for e in p.edges()]
    rng.shuffle(units)
    rng.shuffle(edges)
    with mock.patch.object(core, "_check_dag", side_effect=AssertionError("the search ran")):
        assert to_interchange(from_interchange(to_interchange(p))) == to_interchange(p)
        build_passage(p.tokens, units, edges)
    # A remote edge from a remote edge's target, or from an internal unit
    # under it, back to that edge's owner closes a cycle, which the ranges
    # must find as the reference does, also where the target has no
    # primary child and so is its own range.  (No edge may lead to the root.)
    remote = [e for e in p.edges() if e.remote and e.parent != p.root]
    if remote:
        e = rng.choice(remote)
        under, stack = [], [e.child]
        while stack:
            under.append(stack.pop())
            stack += [c.child for c in p.units[under[-1]].outgoing if not c.remote]
        starts = [uid for uid in under if p.units[uid].kind == INTERNAL]
        if starts:
            closing = EdgeSpec("u" + rng.choice(starts), "u" + e.parent, "A", True)
            edges.insert(rng.randrange(len(edges) + 1), closing)

            def outcome(build):
                return load_outcome(lambda _: build(p.tokens, units, edges), None)

            assert outcome(build_passage) == outcome(reference_build_passage)
            assert outcome(build_passage)[0] is RemoteCycle


def table_outcome(p):
    return (
        to_interchange(p),
        {uid: p.incoming(uid) for uid in p.units},
        [unit.outgoing for unit in p.units.values()],
        dict(p.extents),
    )


@settings(max_examples=400)
@given(bracket_sources(), st.booleans())
def test_parsed_tables_pass_build_passage(source, lenient):
    # The parser assembles its passage without `build_passage`'s checks;
    # every passage it returns must still pass them, unchanged.
    p = parse_text(source, lenient)
    if p is not None:
        units = [UnitSpec(u.id, u.kind, tuple(sorted(u.tokens))) for u in p.units.values()]
        edges = [EdgeSpec(e.parent, e.child, e.categories, e.remote) for e in p.edges()]
        q = build_passage(p.tokens, units, edges, passage_id=p.id, require_coverage=False)
        assert table_outcome(q) == table_outcome(p)


@settings(max_examples=150)
@given(bracket_sources())
def test_cli_convert_exits_0_or_2(source):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "source.txt"
        path.write_text(source, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["convert", str(path), "--to", "text"])
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


@settings(max_examples=300)
@given(unicode_bracket_sources())
def test_lex_spans_are_the_utf8_bytes_of_each_token(source):
    raw = source.encode("utf-8")
    end = 0
    for tok in lex(source):
        assert raw[tok.start:tok.end].decode("utf-8") == tok.text
        # Only whitespace lies between tokens.
        assert raw[end:tok.start].decode("utf-8").isspace() or end == tok.start
        end = tok.end
    assert not raw[end:].strip()


@settings(max_examples=300)
@given(unicode_bracket_sources(), st.sampled_from(["\ud800", "\udce9", "\udfff"]), st.data())
def test_lex_reports_a_lone_surrogate_at_its_words_byte(source, surrogate, data):
    words = [tok for tok in lex(source) if tok.kind in (WORD, LABEL)]
    if not words:
        return
    tok = data.draw(st.sampled_from(words))
    at = len(source.encode("utf-8")[:tok.start].decode("utf-8")) + data.draw(
        st.integers(0, len(tok.text))
    )
    with pytest.raises(ParseError) as info:
        lex(source[:at] + surrogate + source[at:])
    assert type(info.value) is ParseError
    assert info.value.position == tok.start
