import pytest

import uccakit.core
from uccakit import (
    DanglingEdge,
    DuplicateId,
    EdgeSpec,
    InvalidRemote,
    InvalidToken,
    InvalidUnit,
    MultiplePrimaryParents,
    MultipleRoots,
    NotInternal,
    PrimaryCycle,
    RemoteCycle,
    Token,
    TokenCoverageGap,
    UnitSpec,
    UnknownUnit,
    build_passage,
    canonical_json_bytes,
    from_interchange,
    is_scene_unit,
    isomorphic,
    parse_passage,
    render,
    stats,
    to_interchange,
    yield_of,
)


def toks(text):
    return [Token(t, i) for i, t in enumerate(text.split())]


def apa():
    tokens = toks("John kicked the ball")
    units = [
        UnitSpec("r", "internal"),
        UnitSpec("h", "internal"),
        UnitSpec("john", "terminal", (0,)),
        UnitSpec("kicked", "terminal", (1,)),
        UnitSpec("ball", "terminal", (2, 3)),
    ]
    edges = [
        EdgeSpec("r", "h", "H"),
        EdgeSpec("h", "john", "A"),
        EdgeSpec("h", "kicked", "P"),
        EdgeSpec("h", "ball", "A"),
    ]
    return build_passage(tokens, units, edges)


def test_build_renumbers_preorder():
    p = apa()
    assert list(p.units) == ["0", "1", "2", "3", "4"]
    assert p.root == "0"
    assert p.units["1"].kind == "internal"
    assert sorted(p.units["4"].tokens) == [2, 3]


def test_empty_trivial_passage():
    p = build_passage([], [UnitSpec("r", "internal")], [])
    assert p.root == "0"
    assert len(p.units) == 1
    assert yield_of(p, p.root) == frozenset()


def test_duplicate_id_rejected():
    with pytest.raises(DuplicateId):
        build_passage([], [UnitSpec("r", "internal"), UnitSpec("r", "internal")], [])


def test_dangling_edge_rejected():
    with pytest.raises(DanglingEdge):
        build_passage([], [UnitSpec("r", "internal")], [EdgeSpec("r", "ghost", "A")])


def test_double_coverage_rejected():
    tokens = toks("hi")
    units = [
        UnitSpec("r", "internal"),
        UnitSpec("a", "terminal", (0,)),
        UnitSpec("b", "terminal", (0,)),
    ]
    edges = [EdgeSpec("r", "a", "H"), EdgeSpec("r", "b", "H")]
    with pytest.raises(TokenCoverageGap):
        build_passage(tokens, units, edges)


def test_coverage_gap_rejected_and_relaxed():
    tokens = toks("hi there")
    units = [UnitSpec("r", "internal"), UnitSpec("a", "terminal", (0,))]
    edges = [EdgeSpec("r", "a", "H")]
    with pytest.raises(TokenCoverageGap):
        build_passage(tokens, units, edges)
    p = build_passage(tokens, units, edges, require_coverage=False)
    assert yield_of(p, p.root) == frozenset({0})


def test_multiple_primary_parents_rejected():
    tokens = toks("hi")
    units = [
        UnitSpec("r", "internal"),
        UnitSpec("x", "internal"),
        UnitSpec("t", "terminal", (0,)),
    ]
    edges = [
        EdgeSpec("r", "x", "H"),
        EdgeSpec("r", "t", "A"),
        EdgeSpec("x", "t", "A"),
    ]
    with pytest.raises(MultiplePrimaryParents):
        build_passage(tokens, units, edges)


def test_primary_cycle_rejected():
    units = [UnitSpec("a", "internal"), UnitSpec("b", "internal")]
    edges = [EdgeSpec("a", "b", "H"), EdgeSpec("b", "a", "H")]
    with pytest.raises(PrimaryCycle):
        build_passage([], units, edges)


def test_unreachable_primary_cycle_rejected_without_remotes():
    tokens = toks("a")
    units = [
        UnitSpec("r", "internal"),
        UnitSpec("t", "terminal", (0,)),
        UnitSpec("x", "internal"),
        UnitSpec("y", "internal"),
    ]
    edges = [EdgeSpec("r", "t", "A"), EdgeSpec("x", "y", "H"), EdgeSpec("y", "x", "H")]
    with pytest.raises(PrimaryCycle, match=r"\['x', 'y'\] are not reachable"):
        build_passage(tokens, units, edges)


def test_deep_chain_builds_in_preorder():
    # Internal unit u<i> has children u<i+1> and terminal t<i>, so pre-order
    # visits the whole internal chain first, then the terminals bottom-up.
    depth = 3000
    tokens = [Token(f"w{i}", i) for i in range(depth)]
    units = [UnitSpec(f"u{i}", "internal") for i in range(depth)]
    units += [UnitSpec(f"t{i}", "terminal", (i,)) for i in range(depth)]
    edges = [EdgeSpec(f"u{i}", f"u{i + 1}", "A") for i in range(depth - 1)]
    edges += [EdgeSpec(f"u{i}", f"t{i}", "C") for i in range(depth)]
    p = build_passage(tokens, units[::-1], edges)
    assert p.root == "0"
    assert all(p.units[str(i)].kind == "internal" for i in range(depth))
    assert all(
        p.units[str(2 * depth - 1 - i)].tokens == frozenset({i}) for i in range(depth)
    )
    assert p.extents[p.root] == frozenset(range(depth))
    data = to_interchange(p)
    assert to_interchange(from_interchange(data)) == data


def test_remote_cycle_rejected():
    tokens = toks("a b")
    units = [
        UnitSpec("r", "internal"),
        UnitSpec("x", "internal"),
        UnitSpec("y", "internal"),
        UnitSpec("t1", "terminal", (0,)),
        UnitSpec("t2", "terminal", (1,)),
    ]
    edges = [
        EdgeSpec("r", "x", "H"),
        EdgeSpec("r", "y", "H"),
        EdgeSpec("x", "t1", "A"),
        EdgeSpec("y", "t2", "A"),
        EdgeSpec("x", "y", "A", True),
        EdgeSpec("y", "x", "A", True),
    ]
    assert_remote_cycle(tokens, units, edges, "remote edges create a cycle through unit 'x'")


def assert_remote_cycle(tokens, units, edges, message):
    """The tables fail with `message`, as spec tables and as a document."""
    for build in (
        lambda: build_passage(tokens, units, edges),
        lambda: from_interchange(as_document(tokens, units, edges)),
    ):
        with pytest.raises(RemoteCycle) as caught:
            build()
        assert str(caught.value) == message


# Two scenes over "a b c d": root r; scene a over s (over t1) and v (over
# t2); scene b over u (over t3) and t4.  s, v and u can own remote edges.
_TWO_SCENES = [
    UnitSpec("r", "internal"), UnitSpec("a", "internal"), UnitSpec("s", "internal"),
    UnitSpec("t1", "terminal", (0,)), UnitSpec("v", "internal"),
    UnitSpec("t2", "terminal", (1,)), UnitSpec("b", "internal"), UnitSpec("u", "internal"),
    UnitSpec("t3", "terminal", (2,)), UnitSpec("t4", "terminal", (3,)),
]
_TWO_SCENE_EDGES = [
    EdgeSpec("r", "a", "H"), EdgeSpec("a", "s", "A"), EdgeSpec("s", "t1", "C"),
    EdgeSpec("a", "v", "P"), EdgeSpec("v", "t2", "C"), EdgeSpec("r", "b", "H"),
    EdgeSpec("b", "u", "A"), EdgeSpec("u", "t3", "C"), EdgeSpec("b", "t4", "P"),
]


def remotes(*pairs):
    return [EdgeSpec(owner, target, "A", True) for owner, target in pairs]


@pytest.mark.parametrize(
    "tokens, units, edges, message",
    [
        # s -> b remotely, down b -> u, u -> a remotely, down a -> s: neither
        # remote edge leads to an ancestor of its own owner.
        (toks("a b c d"), _TWO_SCENES, _TWO_SCENE_EDGES + remotes(("s", "b"), ("u", "a")),
         "remote edges create a cycle through unit 'a'"),
        # x, with no primary child, is the last unit under its own target.
        (toks("a"), [UnitSpec("r", "internal"), UnitSpec("a", "internal"),
                     UnitSpec("t", "terminal", (0,)), UnitSpec("x", "internal")],
         [EdgeSpec("r", "a", "H"), EdgeSpec("a", "t", "P"), EdgeSpec("a", "x", "A")]
         + remotes(("x", "a")),
         "remote edges create a cycle through unit 'a'"),
    ],
    ids=["two-remote-edges", "owner-ends-its-targets-subtree"],
)
def test_remote_cycle_through_primary_edges(tokens, units, edges, message):
    assert_remote_cycle(tokens, units, edges, message)


@pytest.mark.parametrize(
    "pairs",
    [(("s", "b"), ("u", "t1")), (("s", "b"), ("u", "t2")), (("v", "b"), ("u", "s"))],
    ids=["into-a-targets-child", "into-a-targets-sibling", "up-to-just-before-an-owner"],
)
def test_remote_chain_without_cycle_builds(monkeypatch, pairs):
    # A chain of two remote edges, each from one scene into the other, that
    # closes no cycle: the second ends below or beside the first's owner,
    # or (u -> s) just before v, which owns the first.  The depth-first
    # search that names a cycle's unit never runs.
    def no_search(*args):
        raise AssertionError("the cycle search ran on an acyclic passage")

    monkeypatch.setattr(uccakit.core, "_check_dag", no_search)
    tokens, edges = toks("a b c d"), _TWO_SCENE_EDGES + remotes(*pairs)
    document = as_document(tokens, _TWO_SCENES, edges)
    for p in (
        build_passage(tokens, _TWO_SCENES, edges),
        from_interchange(document),
        from_interchange(to_interchange(from_interchange(document))),
        parse_passage(render(from_interchange(document))),
    ):
        assert p.root == "0"
        assert sum(e.remote for e in p.edges()) == 2


def _no_search(*args):
    raise AssertionError("the cycle search ran on an acyclic passage")


@pytest.mark.parametrize(
    "units, message",
    [(_TWO_SCENES[1:] + _TWO_SCENES[:1], "remote edges create a cycle through unit 'a'"),
     (_TWO_SCENES[::-1], "remote edges create a cycle through unit 'u'")],
    ids=["root-last", "reversed"],
)
def test_off_order_tables_decide_cycles_in_preorder_ids(monkeypatch, units, message):
    # Each table lists its units off pre-order, so a remote edge's unit
    # indices name other units than its pre-order ids do: only the renamed
    # pairs find the cycle of two remote edges and none in the chains.
    tokens = toks("a b c d")
    assert_remote_cycle(tokens, units, _TWO_SCENE_EDGES + remotes(("s", "b"), ("u", "a")), message)
    monkeypatch.setattr(uccakit.core, "_check_dag", _no_search)
    for pairs in [(("u", "a"),), (("s", "b"), ("u", "t1")), (("v", "b"), ("u", "s")), (("b", "s"),)]:
        edges = _TWO_SCENE_EDGES + remotes(*pairs)
        for p in (build_passage(tokens, units, edges),
                  from_interchange(as_document(tokens, units, edges))):
            assert sum(e.remote for e in p.edges()) == len(pairs)


def test_cycle_search_starts_past_units_it_reached():
    # The search that names the cycle's unit starts at v, listed first, and
    # reaches t2, listed next, so it skips t2 as a start before it finds the
    # cycle from r.
    units = [_TWO_SCENES[i] for i in (4, 5, 0, 1, 2, 3, 6, 7, 8, 9)]
    edges = _TWO_SCENE_EDGES + remotes(("s", "b"), ("u", "a"))
    message = "remote edges create a cycle through unit 'a'"
    assert_remote_cycle(toks("a b c d"), units, edges, message)


def test_last_edge_remote_past_the_subtree(monkeypatch):
    # v's last edge is remote, to u after v's subtree, and b, between the
    # two, reaches v remotely: v's subtree ends at t2, before b, whatever
    # its remote edge reaches, so no cycle closes.
    tokens, edges = toks("a b c d"), _TWO_SCENE_EDGES + remotes(("v", "u"), ("b", "v"))
    assert [e.child for e in edges if e.parent == "v"] == ["t2", "u"]
    monkeypatch.setattr(uccakit.core, "_check_dag", _no_search)
    document = as_document(tokens, _TWO_SCENES, edges)
    for p in (build_passage(tokens, _TWO_SCENES, edges), from_interchange(document),
              parse_passage(render(from_interchange(document)))):
        assert sum(e.remote for e in p.edges()) == 2


def test_subtree_ends_step_over_each_unit_once(monkeypatch):
    # One unit reaches every unit of a 200-level chain remotely, the top one
    # first: the search reads each chain unit's row at most once.
    depth = 200
    units = [UnitSpec("r", "internal"), UnitSpec("x", "internal"), UnitSpec("tx", "terminal", (0,))]
    units += [UnitSpec(f"c{i}", "internal") for i in range(depth)]
    units.append(UnitSpec("tc", "terminal", (1,)))
    edges = [EdgeSpec("r", "x", "H"), EdgeSpec("x", "tx", "P"), EdgeSpec("r", "c0", "H")]
    edges += [EdgeSpec(f"c{i}", f"c{i + 1}", "A") for i in range(depth - 1)]
    edges += [EdgeSpec(f"c{depth - 1}", "tc", "P")]
    edges += remotes(*[("x", f"c{i}") for i in range(depth)])
    reads = []

    class Rows(list):
        def __getitem__(self, i):
            reads.append(i)
            return super().__getitem__(i)

    search = uccakit.core._remote_cycle
    monkeypatch.setattr(uccakit.core, "_remote_cycle", lambda pairs, rows: search(pairs, Rows(rows)))
    for build in (lambda: build_passage(toks("a b"), units, edges),
                  lambda: from_interchange(as_document(toks("a b"), units, edges))):
        reads.clear()
        assert sum(e.remote for e in build().edges()) == depth
        assert len(reads) == len(set(reads)) == depth + 1


def test_remote_needs_primary_parent_elsewhere():
    tokens = toks("a")
    units = [UnitSpec("r", "internal"), UnitSpec("t", "terminal", (0,))]
    edges = [EdgeSpec("r", "t", "A"), EdgeSpec("r", "t", "A", True)]
    with pytest.raises(InvalidRemote):
        build_passage(tokens, units, edges)


def test_terminal_with_children_rejected():
    tokens = toks("a b")
    units = [
        UnitSpec("r", "internal"),
        UnitSpec("t", "terminal", (0,)),
        UnitSpec("u", "terminal", (1,)),
    ]
    edges = [EdgeSpec("r", "t", "H"), EdgeSpec("t", "u", "A")]
    with pytest.raises(InvalidUnit):
        build_passage(tokens, units, edges)


def test_punctuation_cannot_be_owned():
    tokens = [Token("hi", 0), Token(".", 1, True)]
    units = [UnitSpec("r", "internal"), UnitSpec("t", "terminal", (0, 1))]
    edges = [EdgeSpec("r", "t", "H")]
    with pytest.raises(InvalidUnit):
        build_passage(tokens, units, edges)



# A scene over "a b": root r, scene h, terminals t and u.
_UNITS = [
    UnitSpec("r", "internal"),
    UnitSpec("h", "internal"),
    UnitSpec("t", "terminal", (0,)),
    UnitSpec("u", "terminal", (1,)),
]
_EDGES = [EdgeSpec("r", "h", "H"), EdgeSpec("h", "t", "P"), EdgeSpec("h", "u", "A")]


@pytest.mark.parametrize(
    "tokens, units, edges, error, message",
    [
        (["a"], [], [], InvalidToken, "token 0 is not a Token"),
        ([Token("a", 1)], [], [], InvalidToken, "token 'a' has position 1, expected 0"),
        ([Token("", 0)], [], [], InvalidToken, "token 0 has empty text"),
        (toks("a b"), _UNITS + [UnitSpec("x", "leaf")], _EDGES,
         InvalidUnit, "unit 'x' has unknown kind 'leaf'"),
        (toks("a b"), _UNITS, _EDGES + [EdgeSpec("ghost", "t", "A")],
         DanglingEdge, "edge parent 'ghost' is not a declared unit"),
        (toks("a b"), _UNITS, _EDGES + [EdgeSpec("r", "u", "A", True)] * 2,
         InvalidRemote, "duplicate remote edge 'r' -> 'u'"),
        (toks("a b"), _UNITS, _EDGES + [EdgeSpec("h", "h", "A", True)],
         InvalidRemote, "remote edge from 'h' to itself"),
        (toks("a b"), _UNITS + [UnitSpec("s", "internal")], _EDGES,
         MultipleRoots, "units ['r', 's'] all lack a primary parent; expected exactly one root"),
        (toks("a b"), _UNITS[:3] + [UnitSpec("u", "terminal")], _EDGES,
         InvalidUnit, "terminal unit 'u' owns no tokens"),
        (toks("a b"), _UNITS[:3] + [UnitSpec("u", "terminal", (5,))], _EDGES,
         InvalidUnit, "unit 'u' claims token position 5, out of range"),
        (toks("a b"), [_UNITS[0], UnitSpec("h", "internal", (1,))] + _UNITS[2:], _EDGES,
         InvalidUnit, "internal unit 'h' must not own tokens"),
        (toks("a b"), _UNITS + [UnitSpec("i", "implicit")],
         _EDGES[:2] + [EdgeSpec("h", "i", "A"), EdgeSpec("i", "u", "A")],
         InvalidUnit, "implicit unit 'i' has outgoing edges"),
        (toks("a b"), _UNITS + [UnitSpec("e", "internal")], _EDGES + [EdgeSpec("h", "e", "A")],
         InvalidUnit, "internal unit 'e' has no children"),
        (toks("a"), [UnitSpec("t", "terminal", (0,))], [],
         InvalidUnit, "root unit 't' must be internal, not terminal"),
        (toks("a b"), _UNITS, _EDGES + [EdgeSpec("h", "r", "A", True)],
         InvalidRemote, "remote edge to 'r', which has no primary parent"),
        ([], [], [], InvalidUnit, "passage has no units; expected one internal root"),
        (toks("a b"), _UNITS[:2] + [UnitSpec("t", "terminal", (0, 0)), _UNITS[3]], _EDGES,
         InvalidUnit, "terminal unit 't' lists token position 0 twice"),
        # Types the interchange format cannot hold, or `to_interchange` cannot write.
        ([Token(5, 0)], [], [], InvalidToken,
         "token 0 has text 5 and is_punct False; expected a str and a bool"),
        (toks("a b") + [Token(".", 2, 2)], _UNITS, _EDGES, InvalidToken,
         "token 2 has text '.' and is_punct 2; expected a str and a bool"),
        (toks("a b"), _UNITS[:2] + [UnitSpec("t", "terminal", (False,)), _UNITS[3]], _EDGES,
         InvalidUnit, "unit 't' claims token position False, not an int"),
        (toks("a b"), _UNITS[:2] + [UnitSpec("t", "terminal", ("0",)), _UNITS[3]], _EDGES,
         InvalidUnit, "unit 't' claims token position '0', not an int"),
        (toks("a b"), _UNITS, _EDGES[:2] + [EdgeSpec("h", "u", "A", 2)],
         InvalidRemote, "edge 'h' -> 'u' has remote 2, not a bool"),
    ],
    ids=[
        "not-a-token", "wrong-position", "empty-text", "unknown-kind", "dangling-parent",
        "duplicate-remote", "remote-to-itself", "several-roots", "terminal-without-tokens",
        "position-out-of-range", "internal-owns-tokens", "implicit-with-children",
        "internal-without-children", "terminal-root", "remote-to-root", "no-units",
        "position-listed-twice", "text-not-str", "is-punct-not-bool", "position-bool",
        "position-str", "remote-not-bool",
    ],
)
def test_build_error_message(tokens, units, edges, error, message):
    with pytest.raises(error) as caught:
        build_passage(tokens, units, edges)
    assert type(caught.value) is error
    assert str(caught.value) == message


def as_document(tokens, units, edges) -> bytes:
    """The tables as an interchange document, in their own order."""
    return canonical_json_bytes({
        "format_version": "1",
        "id": "passage",
        "tokens": [{"is_punct": t.is_punct, "text": t.text} for t in tokens],
        "units": [{"id": u.id, "kind": u.kind, "tokens": list(u.tokens)} for u in units],
        "edges": [
            {"categories": [e.categories], "child": e.child, "parent": e.parent, "remote": e.remote}
            for e in edges
        ],
    })


# A scene "a b" whose scene h also holds an internal unit s over "a", so that
# a remote edge s -> h closes a cycle: root r, then h, s, t and u.
_NESTED = [_UNITS[0], _UNITS[1], UnitSpec("s", "internal"), _UNITS[2], _UNITS[3]]
_NESTED_EDGES = [
    EdgeSpec("r", "h", "H"), EdgeSpec("h", "s", "A"),
    EdgeSpec("h", "u", "P"), EdgeSpec("s", "t", "C"),
]
_REMOTE_CYCLE = [EdgeSpec("s", "h", "A", True)]
_UNREACHABLE = [UnitSpec("x", "internal"), UnitSpec("y", "internal")]
_UNREACHABLE_EDGES = [EdgeSpec("x", "y", "A"), EdgeSpec("y", "x", "A")]
# The same nested scene with the writer's ids, "0"..."4" in pre-order.
_PREORDER = [UnitSpec(str(i), u.kind, u.tokens) for i, u in enumerate(_NESTED)]
_PREORDER_EDGES = [EdgeSpec("0", "1", "H"), EdgeSpec("1", "2", "A"), EdgeSpec("1", "4", "P"),
                   EdgeSpec("2", "1", "A", True), EdgeSpec("2", "3", "C")]


@pytest.mark.parametrize(
    "tokens, units, edges, error, message",
    [
        ([Token("a", 0), Token("", 1)], _UNITS + [UnitSpec("t", "terminal", (0,))], _EDGES,
         InvalidToken, "token 1 has empty text"),
        (toks("a b"), _UNITS + [UnitSpec("h", "internal")], [EdgeSpec("ghost", "t", "A")] + _EDGES,
         DuplicateId, "unit id 'h' appears twice"),
        (toks("a b"), _UNITS,
         [EdgeSpec("r", "u", "A", True)] * 2 + _EDGES + [EdgeSpec("h", "ghost", "A")],
         DanglingEdge, "edge child 'ghost' is not a declared unit"),
        (toks("a b"), _UNITS,
         [EdgeSpec("r", "t", "A")] + _EDGES + [EdgeSpec("h", "h", "A", True)],
         InvalidRemote, "remote edge from 'h' to itself"),
        (toks("a b"), _UNITS + [UnitSpec("s", "internal")], _EDGES + [EdgeSpec("r", "u", "A")],
         MultiplePrimaryParents, "unit 'u' has primary parents 'h', 'r'"),
        (toks("a b"),
         _UNITS[:2] + [UnitSpec("t", "terminal"), _UNITS[3], UnitSpec("s", "internal")],
         _EDGES, MultipleRoots,
         "units ['r', 's'] all lack a primary parent; expected exactly one root"),
        (toks("a b"), _UNITS[:3] + [UnitSpec("u", "terminal", (5,))],
         [EdgeSpec("h", "r", "A", True)] + _EDGES,
         InvalidUnit, "unit 'u' claims token position 5, out of range"),
        (toks("a b"),
         [_UNITS[0], UnitSpec("e", "internal")] + _UNITS[1:3] + [UnitSpec("u", "terminal")],
         [EdgeSpec("r", "e", "A")] + _EDGES,
         InvalidUnit, "internal unit 'e' has no children"),
        (toks("a b"), _UNITS + _UNREACHABLE,
         _EDGES + _UNREACHABLE_EDGES + [EdgeSpec("h", "t", "A", True)],
         InvalidRemote, "remote edge 'h' -> 't' duplicates the primary edge"),
        (toks("a b"), _NESTED + _UNREACHABLE, _NESTED_EDGES + _UNREACHABLE_EDGES + _REMOTE_CYCLE,
         PrimaryCycle, "units ['x', 'y'] are not reachable from the root"),
        (toks("a b"), (_NESTED + _UNREACHABLE)[::-1],
         _NESTED_EDGES + _UNREACHABLE_EDGES + _REMOTE_CYCLE,
         PrimaryCycle, "units ['x', 'y'] are not reachable from the root"),
        (toks("a b"), _NESTED[:3] + [UnitSpec("t", "terminal", (0, 1)), _NESTED[4]],
         _NESTED_EDGES + _REMOTE_CYCLE,
         RemoteCycle, "remote edges create a cycle through unit 'h'"),
        (toks("a b"), _PREORDER[:3] + [UnitSpec("3", "terminal", (0, 1)), _PREORDER[4]],
         _PREORDER_EDGES, RemoteCycle, "remote edges create a cycle through unit '1'"),
    ],
    ids=[
        "empty-text-before-duplicate-id", "duplicate-id-before-dangling-edge",
        "dangling-edge-before-duplicate-remote", "remote-to-itself-before-second-parent",
        "second-parent-before-several-roots", "several-roots-before-tokenless-terminal",
        "out-of-range-before-remote-to-root", "earlier-unit-first",
        "remote-copy-before-unreachable-units", "unreachable-before-remote-cycle",
        "shuffled-units", "remote-cycle-before-double-claim", "preorder-ids",
    ],
)
def test_first_fault_in_check_order(tokens, units, edges, error, message):
    """Two faults from adjacent steps of the check order: the earlier step
    wins wherever its fault sits, from spec tables and from a document."""
    for build in (
        lambda: build_passage(tokens, units, edges),
        lambda: from_interchange(as_document(tokens, units, edges)),
    ):
        with pytest.raises(error) as caught:
            build()
        assert type(caught.value) is error
        assert str(caught.value) == message


def test_yield_non_contiguous():
    # "John took Mary up on her promise": the main relation owns
    # positions 1, 3 and 4.
    p = parse_passage(
        "[H [John A] [P- took] [Mary A] [up on -P] [ [her A] [promise P ] A] ]"
    )
    scene = p.units[p.units[p.root].outgoing[0].child]
    p_unit = next(e.child for e in scene.outgoing if "P" in e.categories)
    assert yield_of(p, p_unit) == frozenset({1, 3, 4})


def test_yield_includes_remote_when_asked():
    p = parse_passage(
        "[H [A John] [P got] [A home] ] [L and] [H [P took] [A [F a] [C shower] ] (John A) ]"
    )
    second_h = p.units[p.root].outgoing[2].child
    plain = yield_of(p, second_h)
    wide = yield_of(p, second_h, include_remote=True)
    assert 0 not in plain
    assert 0 in wide
    assert plain < wide


def test_yield_with_remote_into_own_subtree():
    # The remote target "dog" is also reached through the scene's own A.
    p = parse_passage("[H [A [E big] [C dog]] [P barked] (dog A)]")
    scene = p.units[p.root].outgoing[0].child
    assert any(e.remote for e in p.units[scene].outgoing)
    assert yield_of(p, scene, include_remote=True) == yield_of(p, scene) == frozenset({0, 1, 2})


def test_extents_are_public_and_read_only():
    p = apa()
    assert set(p.extents) == set(p.units)
    assert all(p.extents[uid] == yield_of(p, uid) for uid in p.units)
    with pytest.raises(TypeError):
        p.extents[p.root] = frozenset()


@pytest.mark.parametrize("limit", [None, 0, 1, 4, 5, 12, 40, 1000])
def test_text_of_cuts_the_full_text(limit):
    # Deep, discontiguous and punctuated units, with words of mixed lengths.
    deep = "".join(f"[E [E {'w' * (i % 4 + 1)}{i}] " for i in range(60)) + "[C x]" + "]" * 60
    source = f"[H [P go] [A {deep}] , [A- up] [D so] [-A on .]]"
    p = parse_passage(source)
    for uid in p.units:
        full = " ".join(p.tokens[pos].text for pos in sorted(p.extents[uid]))
        assert p.text_of(uid, limit) == (full if limit is None else full[:limit])


@pytest.mark.parametrize(
    "limit, text",
    [(None, "John kicked the ball"), (0, ""), (1, "J"), (19, "John kicked the bal"),
     (20, "John kicked the ball")],
)
def test_text_of_literal_cuts(limit, text):
    p = parse_passage("[H [A John] [P kicked] [A [F the] [C ball] ] ]")
    assert p.text_of(p.root, limit) == text


@pytest.mark.parametrize("limit", [-3, -1])
def test_text_of_negative_limit_raises(limit):
    # A negative limit would cut characters off the end instead.
    p = parse_passage("[H [A John] [P kicked] [A [F the] [C ball] ] ]")
    with pytest.raises(ValueError) as err:
        p.text_of(p.root, limit)
    assert str(err.value) == f"limit must not be negative, not {limit}"


@pytest.mark.parametrize("limit", [None, 3])
def test_text_of_unknown_unit(limit):
    with pytest.raises(UnknownUnit) as err:
        apa().text_of("x", limit)
    assert str(err.value) == "no unit with id 'x'"


def test_yield_unknown_unit():
    with pytest.raises(UnknownUnit):
        yield_of(apa(), "99")


def test_scene_detection():
    p = apa()
    assert is_scene_unit(p, "1")
    assert not is_scene_unit(p, "0")
    with pytest.raises(NotInternal):
        is_scene_unit(p, "2")


def test_scene_via_combined_main_relation():
    p = parse_passage("[H [A John] [CMR+P [C wrote] [N and] [C recorded] ] [A it] ]")
    scene = p.units[p.root].outgoing[0].child
    assert is_scene_unit(p, scene)


def test_scene_via_remote_main_relation():
    p = parse_passage("[H [A John] [P came] [A home] ] [L and] [H [P ate] (John A) ]")
    second_h = p.units[p.root].outgoing[2].child
    assert is_scene_unit(p, second_h)


def test_stats_apa_counts():
    counts = stats(apa())
    assert counts.categories == {"H": 1, "A": 2, "P": 1}
    assert counts.edges == 4
    assert counts.scene_units == 1
    assert counts.remote_edges == 0
    assert counts.implicit_units == 0
    assert counts.tokens == 4


def test_stats_empty_passage():
    counts = stats(build_passage([], [UnitSpec("r", "internal")], []))
    assert counts.categories == {}
    assert counts.edges == 0
    assert counts.scene_units == 0


def test_stats_remote_counts_label_twice():
    p = parse_passage(
        "[H [A John] [P got] [A home] ] [L and] [H [P took] [A [F a] [C shower] ] (John A) ]"
    )
    counts = stats(p)
    assert counts.remote_edges == 1
    # "John" carries a primary A and a remote A.
    assert counts.categories["A"] == 4


def test_stats_addition():
    a, b = stats(apa()), stats(apa())
    both = a + b
    assert both.edges == a.edges + b.edges
    assert both.categories["A"] == 4
    assert both.tokens == 8


def test_combined_label_counts_each_member():
    p = parse_passage("[H [A [E This] [C book] ] [F is] [S+A mine] ]")
    counts = stats(p)
    assert counts.categories["S"] == 1
    assert counts.categories["A"] == 2


def test_isomorphic_ignores_input_ids_and_sibling_spec_order():
    tokens = toks("John kicked the ball")
    units = [
        UnitSpec("zz", "internal"),
        UnitSpec("qq", "internal"),
        UnitSpec("w1", "terminal", (0,)),
        UnitSpec("w2", "terminal", (1,)),
        UnitSpec("w3", "terminal", (2, 3)),
    ]
    edges = [
        EdgeSpec("zz", "qq", "H"),
        EdgeSpec("qq", "w3", "A"),
        EdgeSpec("qq", "w2", "P"),
        EdgeSpec("qq", "w1", "A"),
    ]
    assert isomorphic(apa(), build_passage(tokens, units, edges))


def test_isomorphic_orders_children_by_least_position():
    # Positions 1 and 9 share a slot of a small set's table, so on CPython a
    # frozenset of them iterates in the order they were listed in; the two
    # numberings list them in opposite orders.
    tokens = toks("a b c d e f g h i j")
    rest = (0, 2, 3, 4, 5, 6, 7, 8)
    p = build_passage(
        tokens,
        [UnitSpec("r", "internal"), UnitSpec("x", "terminal", (1, 9)),
         UnitSpec("y", "terminal", rest)],
        [EdgeSpec("r", "x", "A"), EdgeSpec("r", "y", "P")],
    )
    q = build_passage(
        tokens,
        [UnitSpec("c", "terminal", rest), UnitSpec("b", "terminal", (9, 1)),
         UnitSpec("a", "internal")],
        [EdgeSpec("a", "c", "P"), EdgeSpec("a", "b", "A")],
    )
    assert isomorphic(p, q) and isomorphic(q, p)


def test_isomorphic_distinguishes_labels():
    p = parse_passage("[H [A John] [P slept] ]")
    q = parse_passage("[H [A John] [S slept] ]")
    assert not isomorphic(p, q)


def test_isomorphic_distinguishes_tokens():
    p = parse_passage("[H [A John] [P slept] ]")
    q = parse_passage("[H [A Mary] [P slept] ]")
    assert not isomorphic(p, q)


def deep_chain_source(depth, deep_label="A"):
    # The innermost unit but one carries deep_label.
    return "[H [P ran] " + "[A " * (depth - 2) + f"[{deep_label} [A x" + " ]" * (depth + 1)


def test_isomorphic_at_any_depth():
    p = parse_passage(deep_chain_source(5000))
    assert isomorphic(p, parse_passage(deep_chain_source(5000)))
    assert not isomorphic(p, parse_passage(deep_chain_source(5000, deep_label="E")))
