import pytest

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
    from_interchange,
    is_scene_unit,
    isomorphic,
    parse_passage,
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
    with pytest.raises(RemoteCycle):
        build_passage(tokens, units, edges)


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
    ],
    ids=[
        "not-a-token", "wrong-position", "empty-text", "unknown-kind", "dangling-parent",
        "duplicate-remote", "remote-to-itself", "several-roots", "terminal-without-tokens",
        "position-out-of-range", "internal-owns-tokens", "implicit-with-children",
        "internal-without-children", "terminal-root", "remote-to-root", "no-units",
        "position-listed-twice",
    ],
)
def test_build_error_message(tokens, units, edges, error, message):
    with pytest.raises(error) as caught:
        build_passage(tokens, units, edges)
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


def test_extents_are_public_and_read_only():
    p = apa()
    assert set(p.extents) == set(p.units)
    assert all(p.extents[uid] == yield_of(p, uid) for uid in p.units)
    with pytest.raises(TypeError):
        p.extents[p.root] = frozenset()


@pytest.mark.parametrize("limit", [None, -3, 0, 1, 4, 5, 12, 40, 1000])
def test_text_of_cuts_the_full_text(limit):
    # Deep, discontiguous and punctuated units, with words of mixed lengths.
    deep = "".join(f"[E [E {'w' * (i % 4 + 1)}{i}] " for i in range(60)) + "[C x]" + "]" * 60
    source = f"[H [P go] [A {deep}] , [A- up] [D so] [-A on .]]"
    p = parse_passage(source)
    for uid in p.units:
        full = " ".join(p.tokens[pos].text for pos in sorted(p.extents[uid]))
        assert p.text_of(uid, limit) == (full if limit is None else full[:limit])


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
