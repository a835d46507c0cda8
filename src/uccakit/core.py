"""Graph model for foundational-layer passages.

A passage is a rooted tree of units over a token sequence, plus remote
edges that re-attach existing units to additional parents.  Primary
(non-remote) edges form the tree; adding the remote edges gives a DAG.
Terminal units own token positions, which may be non-contiguous.
Implicit units stand for participants with no surface realization and
own nothing.  Punctuation tokens stay in the token sequence but belong
to no unit.

Passages are immutable once built.  `build_passage` checks structural
well-formedness and assigns unit ids densely in pre-order over the
primary tree, so ids are stable across serialization and usable in
diagnostics.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from collections import Counter
from functools import wraps
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .categories import CategorySet, value_type

TERMINAL = "terminal"
INTERNAL = "internal"
IMPLICIT = "implicit"
_KINDS = (TERMINAL, INTERNAL, IMPLICIT)

# The suffix of interchange files; here so that the command line can tell
# formats apart without importing the JSON code.
FILE_EXTENSION = ".ucca.json"


class UccaError(Exception):
    """Base class for all errors raised by this package."""


class BuildError(UccaError):
    """A structural problem that prevents assembling a passage."""


class DuplicateId(BuildError):
    pass


class DanglingEdge(BuildError):
    pass


class PrimaryCycle(BuildError):
    pass


class MultiplePrimaryParents(BuildError):
    pass


class MultipleRoots(BuildError):
    pass


class TokenCoverageGap(BuildError):
    pass


class InvalidToken(BuildError):
    pass


class InvalidUnit(BuildError):
    pass


class InvalidRemote(BuildError):
    pass


class RemoteCycle(BuildError):
    pass


class UnknownUnit(UccaError):
    """A unit id that does not exist in the passage."""


class NotInternal(UccaError):
    """An operation that needs an internal unit got a terminal or implicit one."""


@value_type
class Token:
    """One surface token.  Position is the 0-based index in the passage."""

    text: str
    position: int
    is_punct: bool = False


@value_type
class Edge:
    """A labeled parent-child connection.

    `remote` marks edges that re-attach a unit which already has a
    primary parent elsewhere; they express shared argumenthood rather
    than containment.
    """

    parent: str
    child: str
    categories: CategorySet
    remote: bool = False


@value_type
class Unit:
    """One annotation unit.

    kind is "terminal" (owns tokens), "internal" (owns child edges), or
    "implicit" (owns nothing).  `tokens` holds token positions and is
    only populated for terminals; `outgoing` is only populated for
    internal units.
    """

    id: str
    kind: str
    tokens: frozenset[int] = frozenset()
    outgoing: tuple[Edge, ...] = ()


@value_type
class UnitSpec:
    """Input description of a unit for `build_passage`."""

    id: str
    kind: str
    tokens: tuple[int, ...] = ()


@value_type
class EdgeSpec:
    """Input description of an edge for `build_passage`.

    The order of edge specs sharing a parent fixes the order of that
    unit's children.
    """

    parent: str
    child: str
    categories: CategorySet
    remote: bool = False


class Passage:
    """An immutable annotated passage.  Create via `build_passage`.

    `extents` maps every unit id to the token positions under it along
    primary edges: its surface extent.
    """

    def __init__(self, passage_id, tokens, units, root, primary_parent, remote_parents, extents):
        self.id = passage_id
        self.tokens: tuple[Token, ...] = tokens
        self.units: Mapping[str, Unit] = MappingProxyType(units)
        self.root: str = root
        self._primary_parent: Mapping[str, Edge] = MappingProxyType(primary_parent)
        self._remote_parents: Mapping[str, tuple[Edge, ...]] = MappingProxyType(remote_parents)
        self.extents: Mapping[str, frozenset[int]] = MappingProxyType(extents)

    def unit(self, unit_id: str) -> Unit:
        try:
            return self.units[unit_id]
        except KeyError:
            raise UnknownUnit(f"no unit with id {unit_id!r}") from None

    def primary_parent_edge(self, unit_id: str) -> Edge | None:
        """The unique non-remote incoming edge, or None for the root."""
        self.unit(unit_id)
        return self._primary_parent.get(unit_id)

    def incoming(self, unit_id: str) -> tuple[Edge, ...]:
        """All incoming edges, primary first."""
        primary = self.primary_parent_edge(unit_id)
        remotes = self._remote_parents.get(unit_id, ())
        return ((primary,) if primary else ()) + remotes

    def edges(self) -> Iterator[Edge]:
        for unit in self.units.values():
            yield from unit.outgoing

    def text_of(self, unit_id: str, limit: int | None = None) -> str:
        """The unit's surface text (primary yield, token order), cut to `limit`
        characters; no token is empty, so that takes at most `limit` tokens."""
        self.unit(unit_id)
        if limit is not None and limit < 0:
            raise ValueError(f"limit must not be negative, not {limit}")
        text = " ".join([self.tokens[p].text for p in sorted(self.extents[unit_id])[:limit]])
        return text[:limit]


def id_key(unit_id: str):
    """Sort key putting the dense numeric ids of `build_passage` in order."""
    return (len(unit_id), unit_id)


def _gc_paused(func):
    """Run `func` with the cyclic garbage collector paused.  Only for calls
    that make no reference cycle on any exit, so that reference counting
    frees all they allocate and no collection rescans the passage."""
    @wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()
    return paused


@_gc_paused
def build_passage(
    tokens: Sequence[Token],
    units: Iterable[UnitSpec],
    edges: Iterable[EdgeSpec],
    *,
    passage_id: str = "passage",
    require_coverage: bool = True,
) -> Passage:
    """Assemble and check a passage, renumbering unit ids in pre-order.

    Checks are structural only: tree-ness of primary edges, kind
    consistency, remote sanity, DAG-ness over all edges, and token
    coverage.  Annotation-level restrictions (which categories may go
    where) are deliberately not enforced here; the validator reports
    them, which keeps ill-annotated passages representable.

    With require_coverage=False, non-punctuation tokens outside every
    terminal are tolerated, so that partially annotated text can still be
    loaded and validated.  The call pauses the cyclic garbage collector.
    """
    tokens = tuple(tokens)
    for i, tok in enumerate(tokens):
        if not isinstance(tok, Token):
            raise InvalidToken(f"token {i} is not a Token")
        if tok.position != i:
            raise InvalidToken(f"token {tok.text!r} has position {tok.position}, expected {i}")
        if not tok.text:
            break  # `_build` names it
    units = [(spec.id, spec.kind, spec.tokens) for spec in units]
    edges = [(e.parent, e.child, e.categories, e.remote) for e in edges]
    return _build(passage_id, tokens, units, edges, require_coverage)


def _build(passage_id, tokens, units, edges, require_coverage, writer_order=False):
    """The checked passage of `tokens` (`Token`s at their positions),
    `units` (id, kind, positions) and `edges` (parent, child, categories,
    remote), a unit's children in the order of its edges.  Units whose ids
    are "0"..."n-1" in pre-order keep them; others are renumbered.  With
    writer_order, once steps 1 and 2 pass, the result is None unless the
    ids are "0"..."n-1" and the edges come sorted by parent, then child.

    The first fault in this order is raised, whichever pass finds it:
    1. a token with empty text; 2. per unit, a duplicate id, then an
    unknown kind; 3. per edge, a dangling parent, a dangling child, then
    categories that do not convert; 4. per remote edge, a duplicate, then
    one from a unit to itself; 5. a unit with several primary parents;
    6. no units, no root, then several roots; 7. per unit, the rules of its
    kind, then a root that is not internal; 8. per remote edge, a target
    without a primary parent, then a copy of the primary edge; 9. units the
    root does not reach; 10. a cycle through remote edges; 11. a token
    claimed twice, then, with require_coverage, one claimed by no unit that
    is not punctuation.

    Tables in pre-order, as the writer leaves them, cost one pass over the
    edges and one over the units, which lays them out as `_assemble` takes
    them; others are renumbered after step 9's walk.  Step 10 then reads
    the pre-order rows below the remote targets (`_remote_cycle`), and
    `_check_dag` runs only to name a unit on a cycle found, by its given id.
    """
    if not all([tok.text for tok in tokens]):
        raise InvalidToken(f"token {[tok.text for tok in tokens].index('')} has empty text")
    n = len(units)
    ids = [uid for uid, kind, _ in units if kind in _KINDS]
    index = dict(zip(ids, range(n)))
    if len(index) < n:  # an unknown kind or a duplicate id
        seen = set()
        for uid, kind, _ in units:
            if uid in seen:
                raise DuplicateId(f"unit id {uid!r} appears twice")
            if kind not in _KINDS:
                raise InvalidUnit(f"unit {uid!r} has unknown kind {kind!r}")
            seen.add(uid)

    # One pass over the edges makes steps 3 to 5; the faults of steps 4 and
    # 5 wait until every edge has passed step 3.
    outgoing: list[list[Edge]] = [[] for _ in ids]
    parent_of: list[int | None] = [None] * n
    remotes: dict[tuple[int, int], None] = {}
    bad_remote = ""
    several_parents: list[int] = []
    last = unsorted = 0
    for parent, child, categories, remote in edges:
        p, c = index.get(parent), index.get(child)
        if p is None or c is None:
            if writer_order:
                return None
            if p is None:
                raise DanglingEdge(f"edge parent {parent!r} is not a declared unit")
            raise DanglingEdge(f"edge child {child!r} is not a declared unit")
        if not isinstance(categories, CategorySet):  # bracket notation or labels
            categories = (CategorySet.from_notation(categories) if isinstance(categories, str)
                          else CategorySet(categories))
        if remote:
            if p == c and not bad_remote:
                bad_remote = f"remote edge from {parent!r} to itself"
            elif (p, c) in remotes and not bad_remote:
                bad_remote = f"duplicate remote edge {parent!r} -> {child!r}"
            remotes[p, c] = None
        elif parent_of[c] is None:
            parent_of[c] = p
        else:
            several_parents.append(c)
        key = p * n + c
        unsorted |= key < last
        last = key
        outgoing[p].append(Edge(parent, child, categories, remote))
    numerals = list(map(str, range(n)))  # the writer's ids
    numbered = ids == numerals
    if writer_order and (unsorted or not numbered):
        return None
    if bad_remote:
        raise InvalidRemote(bad_remote)
    if several_parents:
        uid = ids[min(several_parents)]
        parents = ", ".join([repr(e[0]) for e in edges if not e[3] and e[1] == uid])
        raise MultiplePrimaryParents(f"unit {uid!r} has primary parents {parents}")

    if not n:
        raise InvalidUnit("passage has no units; expected one internal root")
    if parent_of.count(None) != 1:
        roots = [uid for uid, p in zip(ids, parent_of) if p is None]
        if not roots:
            raise PrimaryCycle("no unit without a primary parent; the primary edges form a cycle")
        raise MultipleRoots(f"units {roots!r} all lack a primary parent; expected exactly one root")
    root = parent_of.index(None)

    # With edges in (parent, child) order, the units are in pre-order when
    # each unit's primary parent is on the path from the root to the one
    # before.
    in_preorder = root == 0 and not unsorted
    path: list[int] = []
    claimed = bytearray(len(tokens))
    twice = False
    rows = []  # for `_assemble`, if the units keep their ids and order
    for i, (uid, kind, positions) in enumerate(units):
        out = outgoing[i]
        rows.append((uid, kind, positions, out))
        if kind == TERMINAL:
            if out:
                raise InvalidUnit(f"terminal unit {uid!r} has outgoing edges")
            if not positions:
                raise InvalidUnit(f"terminal unit {uid!r} owns no tokens")
            for pos in positions:
                if not 0 <= pos < len(tokens):
                    raise InvalidUnit(f"unit {uid!r} claims token position {pos}, out of range")
                if tokens[pos].is_punct:
                    raise InvalidUnit(f"unit {uid!r} claims punctuation token {tokens[pos].text!r}")
                twice |= claimed[pos]
                claimed[pos] = 1
            if twice and len(set(positions)) < len(positions):
                pos = next(p for j, p in enumerate(positions) if p in positions[:j])
                raise InvalidUnit(f"terminal unit {uid!r} lists token position {pos} twice")
        else:
            if positions:
                raise InvalidUnit(f"{kind} unit {uid!r} must not own tokens")
            if kind == IMPLICIT and out:
                raise InvalidUnit(f"implicit unit {uid!r} has outgoing edges")
            if kind == INTERNAL and not out and i != root:
                raise InvalidUnit(f"internal unit {uid!r} has no children")
        if i == root and kind != INTERNAL:
            raise InvalidUnit(f"root unit {uid!r} must be internal, not {kind}")
        if in_preorder:
            while path and path[-1] != parent_of[i]:
                path.pop()
            in_preorder = not (i and not path)
            path.append(i)

    for p, c in remotes:
        if parent_of[c] is None:
            raise InvalidRemote(f"remote edge to {ids[c]!r}, which has no primary parent")
        if parent_of[c] == p:
            raise InvalidRemote(f"remote edge {ids[p]!r} -> {ids[c]!r} duplicates the primary edge")

    # Every non-root unit has exactly one primary parent, so a pre-order
    # walk reaches each unit at most once, and a unit it never reaches sits
    # on a cycle.
    order = range(n)
    if not in_preorder:
        order = []
        stack = [root]
        while stack:
            i = stack.pop()
            order.append(i)
            stack.extend([index[e.child] for e in reversed(outgoing[i]) if not e.remote])
        if len(order) != n:
            missing = sorted(set(ids) - {ids[i] for i in order})
            raise PrimaryCycle(f"units {missing!r} are not reachable from the root")
    if not (numbered and in_preorder):
        rename = dict(zip([ids[i] for i in order], numerals))
        rows = [(rename[ids[i]], units[i][1], units[i][2],
                 [Edge(rename[e.parent], rename[e.child], e.categories, e.remote)
                  for e in outgoing[i]]) for i in order]
        remotes = [(int(rename[ids[p]]), int(rename[ids[c]])) for p, c in remotes]

    # Without remote edges the walk has already shown the graph is a tree;
    # the search names a unit on the cycle the ranges found.
    if remotes and _remote_cycle(remotes, rows):
        _check_dag(ids, dict(zip(ids, outgoing)))

    if twice:
        claims = Counter(pos for _, kind, spots in units if kind == TERMINAL for pos in spots)
        pos, count = next(item for item in claims.items() if item[1] > 1)
        raise TokenCoverageGap(
            f"token {tokens[pos].text!r} (position {pos}) belongs to {count} units"
        )
    if require_coverage:
        for i, t in enumerate(tokens):
            if not t.is_punct and not claimed[i]:
                raise TokenCoverageGap(f"token {t.text!r} (position {i}) belongs to no unit")
    return _assemble(passage_id, tokens, rows, _extents(rows))


def _remote_cycle(remotes, units) -> bool:
    """Whether the remote edges, (owner, target) pairs of pre-order ids,
    close a cycle with the primary tree of `units`, the rows `_assemble`
    takes.  A target's subtree ends at the end of the spine of last primary
    children below it, which all its units share: each is walked once.

    Primary edges only lead down, so a cycle leaves each owner on it by a
    remote edge, goes down from the target to the next owner, and so on
    back to the first: the owners close a cycle in the graph "a -> b
    whenever b lies in the range of one of a's targets", a included.  A
    depth-first search of that graph finds one in time near-linear in the
    remote edges: each range yields its first owner not yet shown to lie
    on no cycle, and a range left with none is dropped.
    """
    end: dict[int, int] = {}
    ranges: dict[int, list[tuple[int, int]]] = {}
    for p, c in remotes:
        spine, i = [], c
        while i not in end:
            spine.append(i)
            for e in reversed(units[i][3]):
                if not e.remote:
                    i = int(e.child)
                    break
            else:
                end[i] = i
        end.update(dict.fromkeys(spine, end[i]))
        ranges.setdefault(p, []).append((c, end[c]))
    alive = sorted(ranges)  # owners, by id, not yet shown to lie on no cycle
    while alive:
        path = [alive[0]]
        on_path = {alive[0]}
        while path:
            todo = ranges[path[-1]]
            while todo:
                lo, hi = todo[-1]
                j = bisect_left(alive, lo)
                if j < len(alive) and alive[j] <= hi:
                    break
                todo.pop()
            else:
                done = path.pop()
                on_path.discard(done)
                del alive[bisect_left(alive, done)]
                continue
            b = alive[j]
            if b in on_path:
                return True
            path.append(b)
            on_path.add(b)
    return False


def _extents(units) -> dict[str, frozenset[int]]:
    """Each unit's primary extent, for the units `_assemble` takes.  Only
    primary edges are read, so remote edges may join a unit's outgoing
    list afterwards."""
    extents: dict[str, frozenset[int]] = {}
    for uid, kind, positions, outgoing in reversed(units):
        if kind == TERMINAL:
            extents[uid] = frozenset(positions)
        else:
            children = [extents[e.child] for e in outgoing if not e.remote]
            extents[uid] = frozenset().union(*children)
    return extents


def _assemble(passage_id, tokens, units, extents) -> Passage:
    """The passage of `units`, which checks nothing.  Each unit is
    (id, kind, positions, outgoing); the units come in pre-order over
    primary edges with the ids "0"..."n-1", and outgoing holds a unit's
    `Edge`s in child order.  `extents` is `_extents(units)`."""
    final_units: dict[str, Unit] = {}
    primary_parent: dict[str, Edge] = {}
    remote_parents: dict[str, list[Edge]] = {}
    for uid, kind, positions, outgoing in units:
        for e in outgoing:
            if e.remote:
                remote_parents.setdefault(e.child, []).append(e)
            else:
                primary_parent[e.child] = e
        own = extents[uid] if kind == TERMINAL else frozenset()
        final_units[uid] = Unit(uid, kind, own, tuple(outgoing))

    remotes = {k: tuple(v) for k, v in remote_parents.items()}
    return Passage(passage_id, tokens, final_units, "0", primary_parent, remotes, extents)


def _check_dag(ids, outgoing) -> None:
    """Raise `RemoteCycle` naming the first unit that a depth-first search,
    from each of `ids` in turn along `outgoing` (id -> edges), finds on a
    cycle.  It visits every unit, so `_build` calls it only after
    `_remote_cycle` has found a cycle, to give the message its unit."""
    # Primary edges are a tree by now, so any cycle goes through a remote.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(ids, WHITE)
    for start in ids:
        if color[start] != WHITE:
            continue
        color[start] = GRAY
        stack = [(start, iter(outgoing[start]))]
        while stack:
            uid, edges = stack[-1]
            for e in edges:
                if color[e.child] == GRAY:
                    raise RemoteCycle(f"remote edges create a cycle through unit {e.child!r}")
                if color[e.child] == WHITE:
                    color[e.child] = GRAY
                    stack.append((e.child, iter(outgoing[e.child])))
                    break
            else:
                color[uid] = BLACK
                stack.pop()


def yield_of(passage: Passage, unit_id: str, include_remote: bool = False) -> frozenset[int]:
    """Token positions reachable from the unit.

    By default only primary edges are followed, which is the unit's own
    surface extent.  With include_remote=True, remote edges are followed
    too, pulling in the extents of shared arguments.
    """
    passage.unit(unit_id)
    if not include_remote:
        return passage.extents[unit_id]
    seen: set[str] = set()
    agg: set[int] = set()
    stack = [unit_id]
    while stack:
        uid = stack.pop()
        if uid in seen:
            continue
        seen.add(uid)
        unit = passage.units[uid]
        agg.update(unit.tokens)
        stack.extend(e.child for e in unit.outgoing)
    return frozenset(agg)


def main_relations(unit: Unit) -> int:
    """How many of the unit's child edges carry a main relation (P or S).

    Remote child edges count: a scene whose process is shared with an
    earlier scene still describes a scene.
    """
    return sum("P" in e.categories.labels or "S" in e.categories.labels for e in unit.outgoing)


def is_scene_unit(passage: Passage, unit_id: str) -> bool:
    """True if the unit contains a main relation; see `main_relations`."""
    unit = passage.unit(unit_id)
    if unit.kind != INTERNAL:
        raise NotInternal(f"unit {unit_id!r} is {unit.kind}; only internal units can be scenes")
    return main_relations(unit) > 0


@value_type
class CategoryCounts:
    """Aggregatable passage statistics.

    `categories` counts edges per category label; an edge with a combined
    category contributes once to each member label.  Addition merges
    counts, so per-file statistics sum to corpus statistics.  Unlike every
    other record, the counts are mutable, and so unhashable.
    """

    categories: dict[str, int]
    edges: int
    scene_units: int
    remote_edges: int
    implicit_units: int
    una_units: int
    tokens: int

    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, categories: dict[str, int] | None = None, edges: int = 0,
                 scene_units: int = 0, remote_edges: int = 0, implicit_units: int = 0,
                 una_units: int = 0, tokens: int = 0):
        self.categories = {} if categories is None else categories
        self.edges, self.scene_units, self.remote_edges = edges, scene_units, remote_edges
        self.implicit_units, self.una_units, self.tokens = implicit_units, una_units, tokens

    def __add__(self, other: "CategoryCounts") -> "CategoryCounts":
        if other.__class__ is not self.__class__:
            return NotImplemented
        merged = Counter(self.categories)
        merged.update(other.categories)
        # Every field after `categories` is a plain counter.
        counters = [getattr(self, n) + getattr(other, n) for n in self.__match_args__[1:]]
        return CategoryCounts(dict(merged), *counters)

    def to_dict(self) -> dict:
        out = {n: getattr(self, n) for n in self.__match_args__}
        out["categories"] = dict(sorted(self.categories.items()))
        return out


@_gc_paused
def stats(passage: Passage) -> CategoryCounts:
    """Count edges per category plus scene, remote, implicit and UNA totals."""
    counts = CategoryCounts(tokens=len(passage.tokens))
    by_labels: Counter[tuple[str, ...]] = Counter()
    una: set[str] = set()
    for unit in passage.units.values():
        if unit.kind == IMPLICIT:
            counts.implicit_units += 1
        elif unit.kind == INTERNAL and main_relations(unit):
            counts.scene_units += 1
        counts.edges += len(unit.outgoing)
        for edge in unit.outgoing:
            labels = edge.categories.labels
            by_labels[labels] += 1
            counts.remote_edges += edge.remote
            if "UNA" in labels:
                una.add(edge.child)
    counts.una_units = len(una)
    # Label sets in order of first use put the labels in that order too.
    for labels, n in by_labels.items():
        for label in labels:
            counts.categories[label] = counts.categories.get(label, 0) + n
    return counts


@_gc_paused
def isomorphic(a: Passage, b: Passage) -> bool:
    """Structural equality up to unit ids and child bookkeeping order.

    Token streams must match exactly.  Units are compared by kind, owned
    token positions, child edges (categories and structure) and remote
    edges (categories and target extent).  Unequal token or unit counts
    reject in O(1); otherwise the walk over `b` stops at its first shape
    that `a` lacks, so only pairs that match shape for shape cost two walks.
    """
    if len(a.tokens) != len(b.tokens) or len(a.units) != len(b.units):
        return False
    if [(t.text, t.is_punct) for t in a.tokens] != [(t.text, t.is_punct) for t in b.tokens]:
        return False
    classes: dict[tuple, int] = {}
    return _shape_class(a, classes) == _shape_class(b, classes, grow=False)


def _shape_class(passage: Passage, classes: dict[tuple, int], grow: bool = True) -> int | None:
    """The class number of the root's shape.

    Units are visited bottom-up, in reverse of their pre-order ids, and a
    unit's shape names each child by the child's class number, so equal
    numbers mean equal subtrees at any depth.  Children go in order of
    their first positions: a terminal's least one, another unit's its first
    child's (an empty extent's is the token count).  `classes` numbers the distinct
    shapes and is shared by the passages being compared; unless `grow`, it
    is only read, and the first shape it lacks gives None.
    """
    empty = len(passage.tokens)
    number: dict[str, int] = {}
    first: dict[str, int] = {}
    for unit in reversed(passage.units.values()):
        children = []
        remotes = []
        for e in unit.outgoing:
            if e.remote:
                remotes.append((e.categories.labels, tuple(sorted(passage.extents[e.child]))))
            else:
                children.append((first[e.child], e.categories.labels, number[e.child]))
        children.sort()
        tokens = unit.tokens
        shape = (unit.kind, tokens, tuple(children), tuple(sorted(remotes)))
        cls = classes.setdefault(shape, len(classes)) if grow else classes.get(shape)
        if cls is None:
            return None
        number[unit.id] = cls
        first[unit.id] = min(tokens) if tokens else children[0][0] if children else empty
    return number[passage.root]
