"""A test-only reference for the structural checker behind `build_passage`
and `from_interchange`: the same check order and messages, with
acyclicity decided by a depth-first search over every unit (`_check_dag`)
rather than by the pre-order subtree ranges of `core._build`.  It shares
no checking code with the library, so the properties that compare the
two never compare the checker only with itself.
"""

from collections import Counter

from uccakit.categories import CategorySet
from uccakit.core import (
    IMPLICIT,
    INTERNAL,
    TERMINAL,
    DanglingEdge,
    DuplicateId,
    Edge,
    InvalidRemote,
    InvalidToken,
    InvalidUnit,
    MultiplePrimaryParents,
    MultipleRoots,
    PrimaryCycle,
    RemoteCycle,
    TokenCoverageGap,
    _KINDS,
    _assemble,
    _extents,
)


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
    preorder_ids = list(map(str, range(n)))

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
    if writer_order and (unsorted or ids != preorder_ids):
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
    # each unit's primary parent is on the path from the root to the one before.
    in_preorder = root == 0 and not unsorted
    path: list[int] = []
    claimed = bytearray(len(tokens))
    twice = False
    for i, (uid, kind, positions) in enumerate(units):
        out = outgoing[i]
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

    # Without remote edges the walk has already shown the graph is a tree.
    if remotes:
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

    if (ids if in_preorder else [ids[i] for i in order]) != preorder_ids:
        rename = dict(zip([ids[i] for i in order], preorder_ids))
        units = [(rename[uid], kind, positions) for uid, kind, positions in units]
        outgoing = [[Edge(rename[e.parent], rename[e.child], e.categories, e.remote) for e in out]
                    for out in outgoing]
    units = [(*units[i], outgoing[i]) for i in order]
    return _assemble(passage_id, tokens, units, _extents(units))


def _check_dag(ids, outgoing) -> None:
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
