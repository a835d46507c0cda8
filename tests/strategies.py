"""Hypothesis generators for random well-formed passages, and for bracket text.

Passages are built top-down by partitioning token positions among
children, so primary edges always form a tree and every build succeeds.
Token texts within a passage are distinct, which keeps remote-target
references unambiguous when a passage is rendered back to text.

`mutated_documents` edits the interchange documents of such passages, and
`mutated_tables` gives the edited tables to `build_passage` directly.
`bracket_sources` draws text instead: token soup, or nested groups with
dashed, indexed, `UNA` and `IMP` pieces and round-bracket groups, over a
few words that also spell labels and markers, so that much of it parses.
`unicode_bracket_sources` spells some of its words and spaces past ASCII.
"""

import json
import re

from hypothesis import strategies as st

from uccakit import (
    CategorySet,
    EdgeSpec,
    Token,
    UnitSpec,
    build_passage,
    canonical_json_bytes,
    to_interchange,
)

WORD_POOL = [
    "alder", "birch", "cedar", "dogwood", "elm", "fir", "ginkgo", "hazel",
    "ivy", "juniper", "kapok", "larch", "maple", "nutmeg", "oak", "pine",
    "quince", "rowan", "spruce", "teak",
]

PLAIN_LABELS = ["A", "P", "S", "C", "E", "D", "T", "G", "R", "F", "N", "Q", "H", "L"]
COMBO_LABELS = ["P+A", "S+A", "G+A", "A+D", "CMR+P", "CMR+S", "C+UNA", "P+UNA"]

labels = st.sampled_from(PLAIN_LABELS + COMBO_LABELS)


def _chunk(seq, k, cuts):
    # cuts: k-1 strictly increasing indices into seq
    out = []
    prev = 0
    for c in list(cuts) + [len(seq)]:
        out.append(seq[prev:c])
        prev = c
    return [c for c in out if c]


@st.composite
def token_streams(draw, max_tokens=9):
    n = draw(st.integers(min_value=1, max_value=max_tokens))
    words = draw(st.permutations(WORD_POOL))[:n]
    tokens = []
    for w in words:
        tokens.append(Token(w, len(tokens)))
        if draw(st.integers(0, 4)) == 0:
            tokens.append(Token(draw(st.sampled_from([",", ".", "!"])), len(tokens), True))
    return tuple(tokens)


@st.composite
def passages(draw, max_tokens=9, allow_remotes=True, tokens=None, remote_only=False):
    """A passage over `tokens`, or over drawn ones.  With `remote_only`, it
    sometimes holds an internal unit whose only edge is remote, which
    covers no token and so cannot be rendered."""
    if tokens is None:
        tokens = draw(token_streams(max_tokens=max_tokens))
    positions = [t.position for t in tokens if not t.is_punct]

    units: list[UnitSpec] = []
    edges: list[EdgeSpec] = []
    internal_ids: list[str] = []
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"n{counter[0]}"

    def grow(pos_set: list[int], depth: int) -> str:
        uid = fresh()
        if depth >= 3 or len(pos_set) == 1 or draw(st.integers(0, 2)) == 0:
            units.append(UnitSpec(uid, "terminal", tuple(sorted(pos_set))))
            return uid
        units.append(UnitSpec(uid, "internal"))
        internal_ids.append(uid)
        k = draw(st.integers(2, min(3, len(pos_set))))
        shuffled = list(draw(st.permutations(sorted(pos_set))))
        cuts = sorted(draw(
            st.lists(
                st.integers(1, len(shuffled) - 1),
                min_size=k - 1,
                max_size=k - 1,
                unique=True,
            )
        ))
        for chunk in _chunk(shuffled, k, cuts):
            child = grow(chunk, depth + 1)
            label = draw(labels)
            if draw(st.integers(0, 4)) == 0:
                # A unary chain: a unit whose only child has its extent and
                # the label of its own edge, so both edges score alike.
                wrapper = fresh()
                units.append(UnitSpec(wrapper, "internal"))
                internal_ids.append(wrapper)
                edges.append(EdgeSpec(wrapper, child, label))
                child = wrapper
            edges.append(EdgeSpec(uid, child, label))
        if draw(st.integers(0, 3)) == 0:
            iid = fresh()
            units.append(UnitSpec(iid, "implicit"))
            edges.append(EdgeSpec(uid, iid, draw(st.sampled_from(["A", "P", "S"]))))
        return uid

    units.append(UnitSpec("root", "internal"))
    internal_ids.append("root")
    top = grow(list(positions), 1)
    edges.append(EdgeSpec("root", top, draw(st.sampled_from(["H", "L", "H+UNA"]))))

    if allow_remotes and draw(st.booleans()):
        _add_remotes(draw, units, edges, internal_ids, remote_only)

    return build_passage(tokens, units, edges, passage_id="generated")


def _add_remotes(draw, units, edges, internal_ids, remote_only):
    primary_parent = {e.child: e.parent for e in edges if not e.remote}
    kind = {u.id: u.kind for u in units}
    positions = {u.id: u.tokens for u in units}
    targets = sorted(uid for uid in primary_parent if kind[uid] != "implicit")
    added = {}  # (parent, target) -> (target, label)
    first_target = None
    if remote_only and draw(st.booleans()):
        # A unit whose subtree is itself alone: an internal unit with no
        # primary child, whose one edge is remote.  The first remote edge
        # goes to it, so that a cycle edit can end a range at its owner.
        host = draw(st.sampled_from(sorted(internal_ids)))
        ancestors = [host]
        while ancestors[-1] in primary_parent:
            ancestors.append(primary_parent[ancestors[-1]])
        target = draw(st.sampled_from([uid for uid in targets if uid not in ancestors]))
        units.append(UnitSpec("lone", "internal"))
        edges += [EdgeSpec(host, "lone", draw(labels)), EdgeSpec("lone", target, "A", True)]
        primary_parent["lone"], kind["lone"], first_target = host, "internal", "lone"
        internal_ids.append("lone")
        added["lone", target] = target, "A"

    def below(start):
        # The units reachable from start along primary and already-added
        # remote edges; a remote parent -> start is safe exactly when parent
        # is not among them.
        children = {}
        for e in edges:
            children.setdefault(e.parent, []).append(e.child)
        seen, stack = set(), [start]
        while stack:
            uid = stack.pop()
            if uid not in seen:
                seen.add(uid)
                stack.extend(children.get(uid, ()))
        return seen

    def extent(uid):
        # The token positions under uid along primary edges.
        under = [extent(e.child) for e in edges if e.parent == uid and not e.remote]
        return frozenset(positions.get(uid, ())).union(*under)

    def after_subtree(target):
        # The unit that follows target's subtree in pre-order, if any.
        children = {}
        for e in edges:
            if not e.remote:
                children.setdefault(e.parent, []).append(e.child)
        order, stack = [], ["root"]
        while stack:
            order.append(stack.pop())
            stack.extend(reversed(children.get(order[-1], ())))
        under, k = {target}, order.index(target) + 1
        while k < len(order) and primary_parent[order[k]] in under:
            under.add(order[k])
            k += 1
        return order[k] if k < len(order) else None

    for _ in range(draw(st.integers(1, 2))):
        if first_target:
            target, label, first_target = first_target, "A", None
        elif added and draw(st.booleans()):
            # The target and label of a remote edge already added: a second
            # edge with the same scoring signature.
            target, label = draw(st.sampled_from(sorted(added.values())))
        else:
            target = draw(st.sampled_from(targets))
            label = draw(st.sampled_from(["A", "P", "S", "C", "E"]))
        reach = below(target)
        # A unit refers to its remote targets by their text, so it may own
        # only one remote edge to the units reading a text (a unary chain).
        alike = {parent for parent, other in added if extent(other) == extent(target)}
        parents = [
            uid for uid in sorted(internal_ids)
            if uid not in reach and uid != primary_parent[target] and uid not in alike
        ]
        if not parents:
            continue
        parent = draw(st.sampled_from(parents))
        after = after_subtree(target)
        if after in parents and draw(st.booleans()):
            # The owner right after the target's subtree: the first unit
            # outside the target's id range.
            parent = after
        # Anywhere among the specs, so also before or between a parent's
        # primary specs; their order alone fixes the order of children.
        edges.insert(draw(st.integers(0, len(edges))), EdgeSpec(parent, target, label, True))
        added[parent, target] = target, label


# Words that repeat, so that remote groups resolve and become ambiguous;
# the rough mix adds words that spell labels, markers and punctuation.
CLEAN_WORDS = ["ann", "bo", "cy", "dee", ","]
ROUGH_WORDS = CLEAN_WORDS + ["ann", "bo", ".", "UNA", "IMP", "A", "C", "H"]
LABEL_PIECES = PLAIN_LABELS + COMBO_LABELS + [
    "A-", "-A", "A1-", "-A1", "A2-", "-A2", "P-", "-P", "UNA", "IMP", "Z", "-A-",
]


def _labelled(draw, label, items):
    return [label, *items] if draw(st.integers(0, 3)) else [*items, label]


def _groups(words, label_pieces, implicit_only):
    """Strategies for round-bracket groups and for nested bracket groups.

    With implicit_only every round-bracket group is implicit, and the
    remote groups come from `bracket_sources`, which aims them at text
    that some bracket holds.
    """

    @st.composite
    def round_group(draw):
        if implicit_only or draw(st.integers(0, 3)) == 0:
            items = ["IMP"]
        else:
            items = draw(st.lists(words, max_size=3))
        return "(" + " ".join(_labelled(draw, draw(label_pieces), items)) + ")"

    def bracket(inner):
        @st.composite
        def group(draw):
            items = draw(st.lists(inner, min_size=1, max_size=4))
            if draw(st.integers(0, 4)) == 0:
                items.append("UNA")
            items = _labelled(draw, draw(label_pieces), items)
            items += [draw(round_group()) for _ in range(max(0, draw(st.integers(-3, 2))))]
            return "[" + " ".join(items) + "]"

        return group()

    return round_group(), st.recursive(words, bracket, max_leaves=10)


_CLEAN = _groups(st.sampled_from(CLEAN_WORDS), labels, True)
_ROUGH = _groups(
    st.sampled_from(ROUGH_WORDS), st.one_of(labels, st.sampled_from(LABEL_PIECES)), False
)
_soup = st.lists(
    st.sampled_from(ROUGH_WORDS + LABEL_PIECES + ["[", "]", "(", ")", "[A", "x]"]),
    max_size=16,
)


@st.composite
def bracket_sources(draw):
    """Bracket text, well-formed or not, for the parser's two-outcome contract."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return " ".join(draw(_soup))
    round_group, nested = _CLEAN if kind > 1 else _ROUGH
    pieces = draw(st.lists(nested, min_size=1, max_size=4))
    text = " ".join(pieces + draw(st.lists(round_group, max_size=1)))
    # Remote groups reading the words of an innermost bracket, so that
    # references often resolve.  Each goes at the end of some bracket or of
    # the text, where it belongs, or at any space, where it may be misplaced.
    reads = {
        " ".join(w for w in inner.split() if w.islower())
        for inner in re.findall(r"\[([^][()]*)\]", text)
    } - {""}
    for _ in range(draw(st.integers(0, 2)) if reads else 0):
        at = draw(st.sampled_from([m.start() for m in re.finditer(r"[] ]", text)] + [len(text)]))
        group = f" ({draw(st.sampled_from(sorted(reads)))} {draw(labels)})"
        text = text[:at] + group + text[at:]
    return text


# Separators the lexer must step over in UTF-8 bytes: a space, U+00A0,
# U+3000, U+001C and CRLF; and 2-, 3- and 4-byte spellings of three words.
SEPARATORS = [" ", "\u00a0", "\u3000", "\x1c", "\r\n"]
NON_ASCII = {"ann": "änn", "bo": "bō日", "cy": "c\U0001f600y"}


@st.composite
def unicode_bracket_sources(draw):
    """`bracket_sources` with some words spelled past ASCII and each space
    replaced by a separator drawn from SEPARATORS."""
    text = draw(bracket_sources())
    text = re.sub(
        r"\b(?:ann|bo|cy)\b",
        lambda m: NON_ASCII[m.group()] if draw(st.booleans()) else m.group(),
        text,
    )
    return re.sub(" ", lambda m: draw(st.sampled_from(SEPARATORS)), text)


def _rename(doc, old, new):
    for unit in doc["units"]:
        if unit["id"] == old:
            unit["id"] = new
    for edge in doc["edges"]:
        for end in ("parent", "child"):
            if edge[end] == old:
                edge[end] = new


def _mutate(draw, doc):
    """One edit to a document.  Renaming, swapping or reordering keeps it
    valid but off the writer's pre-order ids; the other edits may break a
    structural rule."""
    units, edges, tokens = doc["units"], doc["edges"], doc["tokens"]
    ids = [u["id"] for u in units]
    edit = draw(st.sampled_from([
        "rename", "swap", "shuffle units", "shuffle edges", "reverse edges", "drop edge",
        "add edge", "repeat edge", "flip remote", "set kind", "flip punct", "add position",
        "empty text", "remote cycle", "remote pair cycle", "no units",
    ]))
    if edit == "rename" and ids:
        _rename(doc, draw(st.sampled_from(ids)), draw(st.sampled_from(["x", "07", "99", "1 "])))
    elif edit == "swap" and len(ids) > 1:
        a, b = draw(st.permutations(ids))[:2]
        _rename(doc, a, "swap")
        _rename(doc, b, a)
        _rename(doc, "swap", b)
    elif edit == "shuffle units":
        doc["units"] = draw(st.permutations(units))
    elif edit == "shuffle edges":
        doc["edges"] = draw(st.permutations(edges))
    elif edit == "reverse edges":
        edges.reverse()
    elif edit == "drop edge" and edges:
        del edges[draw(st.integers(0, len(edges) - 1))]
    elif edit == "add edge" and ids:
        edges.append({
            "categories": [draw(st.sampled_from(["A", "C", "H"]))],
            "child": draw(st.sampled_from(ids + ["ghost"])),
            "parent": draw(st.sampled_from(ids)),
            "remote": draw(st.booleans()),
        })
    elif edit == "repeat edge" and edges:
        edges.append(dict(draw(st.sampled_from(edges)), remote=draw(st.booleans())))
    elif edit == "flip remote" and edges:
        edge = draw(st.sampled_from(edges))
        edge["remote"] = not edge["remote"]
    elif edit == "set kind" and units:
        kind = draw(st.sampled_from(["terminal", "internal", "implicit"]))
        draw(st.sampled_from(units))["kind"] = kind
    elif edit == "flip punct":
        token = draw(st.sampled_from(tokens))
        token["is_punct"] = not token["is_punct"]
    elif edit == "add position" and units:
        terminals = [u for u in units if u["kind"] == "terminal"] or units
        draw(st.sampled_from(terminals))["tokens"].append(draw(st.integers(0, len(tokens))))
    elif edit == "empty text":
        draw(st.sampled_from(tokens))["text"] = ""
    elif edit == "remote cycle":
        # A remote edge back from an internal unit to its non-root parent.
        parent = {e["child"]: e["parent"] for e in edges if not e["remote"]}
        internal = {u["id"] for u in units if u["kind"] == "internal"}
        pairs = sorted((c, p) for c, p in parent.items() if c in internal and p in parent)
        if pairs:
            child, back = draw(st.sampled_from(pairs))
            edges.append({"categories": ["A"], "child": back, "parent": child, "remote": True})
    elif edit == "remote pair cycle":
        # A remote edge from an existing remote edge's target, or from an
        # internal unit under it, back to that edge's owner: a cycle that
        # only the two remote edges close.
        children = {}
        for e in edges:
            if not e["remote"]:
                children.setdefault(e["parent"], []).append(e["child"])
        internal = {u["id"] for u in units if u["kind"] == "internal"}
        pairs = []
        for e in edges:
            below = [e["child"]] if e["remote"] else []
            for uid in below:  # earlier edits may have closed a primary cycle
                below += [c for c in children.get(uid, ()) if c not in below]
            pairs += [(uid, e["parent"]) for uid in below if uid in internal]
        if pairs:
            start, owner = draw(st.sampled_from(sorted(pairs)))
            edges.append({"categories": ["A"], "child": owner, "parent": start, "remote": True})
    elif edit == "no units":
        doc["units"] = []


@st.composite
def mutated_documents(draw):
    """The interchange bytes of a generated passage after one to three edits."""
    doc = json.loads(to_interchange(draw(passages(max_tokens=6, remote_only=True))))
    for _ in range(draw(st.integers(1, 3))):
        _mutate(draw, doc)
    return canonical_json_bytes(doc)


@st.composite
def mutated_tables(draw):
    """`build_passage`'s tokens, units and edges for a generated passage
    after up to three edits, in the edited document's order; categories
    come as labels, as notation or as a `CategorySet`."""
    doc = json.loads(to_interchange(draw(passages(max_tokens=6, remote_only=True))))
    for _ in range(draw(st.integers(0, 3))):
        _mutate(draw, doc)
    tokens = [Token(t["text"], i, t["is_punct"]) for i, t in enumerate(doc["tokens"])]
    units = [UnitSpec(u["id"], u["kind"], tuple(u["tokens"])) for u in doc["units"]]
    spell = st.sampled_from([list, "+".join, CategorySet])
    edges = [
        EdgeSpec(e["parent"], e["child"], draw(spell)(e["categories"]), e["remote"])
        for e in doc["edges"]
    ]
    return tokens, units, edges
