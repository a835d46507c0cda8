"""Seeded input generator for the uccakit benchmark.

Passages are built here as plain trees, written out as bracket text or as
canonical interchange JSON, and summarized as the counts a correct uccakit
must report for them: tokens, units, edges per category, scene units,
remote and implicit edges, injected rule violations and score matches.
This module never imports uccakit, so those counts are an independent
reference for the benchmark's output checks.

Every passage is built to pass the validator except where a violation is
injected on purpose, and every remote target reads a unique name, so that
strict parsing and rendering both succeed.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

VERBS = ["saw", "took", "gave", "found", "left", "built", "read", "wrote", "met", "sold",
         "kept", "moved", "heard", "called", "made", "lost", "won", "held", "told", "ran"]
NOUNS = ["ball", "house", "letter", "book", "tree", "river", "city", "car", "song", "door",
         "road", "table", "window", "garden", "train", "school", "market", "bridge"]
ADJS = ["big", "old", "red", "small", "quiet", "new", "long", "green", "cold", "bright"]
FUNCS = ["the", "a", "this", "that", "some"]
ADVS = ["quickly", "often", "never", "slowly", "again", "almost", "really"]
TIMES = ["today", "yesterday", "tomorrow", "later", "now", "soon"]
LINKERS = ["and", "but", "then", "because", "so", "while"]
NAMES = ["mary", "john", "ana", "omar", "li", "sara", "tom", "eva", "raj", "ines"]
PUNCT = (",", ";")

# Injected violations, each producing exactly one diagnostic of its rule.
INJECTED_RULES = ("R1", "R2", "R3", "R7", "R10")
ERROR_RULES = {"R1", "R2", "R3", "R10"}


class Unit:
    """One generated unit: a terminal (words) or an internal unit (children)."""

    __slots__ = ("label", "words", "children", "remotes", "implicit", "positions", "uid",
                 "implicit_ids")

    def __init__(self, label, words=(), children=()):
        self.label = label
        self.words = list(words)
        self.children = list(children)
        self.remotes: list[tuple[Unit, str]] = []
        self.implicit: list[str] = []
        self.positions: list[int] = []
        self.uid = ""
        self.implicit_ids: list[str] = []

    @property
    def internal(self) -> bool:
        return bool(self.children or self.remotes or self.implicit)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def extent(self) -> list[int]:
        if self.words:
            return list(self.positions)
        out = []
        for child in self.children:
            out.extend(child.extent())
        return sorted(out)


class Passage:
    """Top-level items (units, punctuation or stray words) under an implicit root."""

    def __init__(self, pid: str, items: list, right_labels: bool = False):
        self.id = pid
        self.items = items
        self.right_labels = right_labels
        self.root = Unit("", children=[i for i in items if isinstance(i, Unit)])
        self.tokens: list[tuple[str, bool]] = []
        for item in items:
            if isinstance(item, Unit):
                for unit in item.walk():
                    if unit.words:
                        unit.positions = list(range(len(self.tokens), len(self.tokens) + len(unit.words)))
                        self.tokens.extend((w, False) for w in unit.words)
            else:
                self.tokens.append((item, item in PUNCT or item == "."))
        self._number()

    def _number(self) -> None:
        # Pre-order over primary children, implicit units after them: the
        # order in which uccakit numbers units.
        counter = 0

        def visit(unit):
            nonlocal counter
            unit.uid = str(counter)
            counter += 1
            for child in unit.children:
                visit(child)
            unit.implicit_ids = [str(counter + k) for k in range(len(unit.implicit))]
            counter += len(unit.implicit)

        visit(self.root)
        self.unit_count = counter

    def units(self):
        return self.root.walk()

    def text(self) -> str:
        right = self.right_labels

        def words_of(unit):
            return " ".join(self.tokens[p][0] for p in unit.extent())

        def bracket(unit):
            body = unit.words or [bracket(c) for c in unit.children]
            parts = body + [unit.label] if right else [unit.label] + body
            parts += [f"({words_of(t)} {label})" for t, label in unit.remotes]
            parts += [f"(IMP {label})" for label in unit.implicit]
            return "[" + " ".join(parts) + "]"

        return " ".join(bracket(i) if isinstance(i, Unit) else i for i in self.items)

    def edges(self):
        """(parent, child or None for implicit, label, remote) for every edge."""
        for unit in self.units():
            for child in unit.children:
                yield unit, child, child.label, False
            for label in unit.implicit:
                yield unit, None, label, False
            for target, label in unit.remotes:
                yield unit, target, label, True

    def interchange(self) -> bytes:
        """Canonical interchange bytes: sorted keys, two-space indent, UTF-8."""
        units, edges = [], []
        for unit in self.units():
            units.append({"id": unit.uid, "kind": "internal" if unit.internal or unit is self.root
                          else "terminal", "tokens": list(unit.positions)})
            for uid, label in zip(unit.implicit_ids, unit.implicit):
                units.append({"id": uid, "kind": "implicit", "tokens": []})
                edges.append({"parent": unit.uid, "child": uid, "categories": [label], "remote": False})
            for child in unit.children:
                edges.append({"parent": unit.uid, "child": child.uid, "categories": [child.label],
                              "remote": False})
            for target, label in unit.remotes:
                edges.append({"parent": unit.uid, "child": target.uid, "categories": [label],
                              "remote": True})
        units.sort(key=lambda u: int(u["id"]))
        edges.sort(key=lambda e: (int(e["parent"]), int(e["child"])))
        doc = {
            "format_version": "1",
            "id": self.id,
            "tokens": [{"text": t, "is_punct": p} for t, p in self.tokens],
            "units": units,
            "edges": edges,
        }
        return (json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n").encode("utf-8")

    def stats(self) -> Counter:
        """The totals `uccakit stats --format json` reports, flattened."""
        c = Counter(tokens=len(self.tokens), edges=0, scene_units=0, remote_edges=0,
                    implicit_units=0, una_units=0)
        for _, child, label, remote in self.edges():
            c["edges"] += 1
            c["cat." + label] += 1
            c["remote_edges"] += remote
            c["implicit_units"] += child is None
        for unit in self.units():
            labels = [c2.label for c2 in unit.children] + unit.implicit
            labels += [lab for _, lab in unit.remotes]
            c["scene_units"] += "P" in labels or "S" in labels
        return c

    def signatures(self) -> Counter:
        """Edge signatures as the scorer counts them: (extent, labels, remote)."""
        return Counter((tuple(child.extent()), (label,), remote)
                       for _, child, label, remote in self.edges() if child is not None)


def stats_dict(total: Counter) -> dict:
    """Shape a flattened stats Counter like CategoryCounts.to_dict()."""
    cats = {k[4:]: v for k, v in total.items() if k.startswith("cat.") and v}
    out = {k: total[k] for k in ("edges", "scene_units", "remote_edges", "implicit_units",
                                 "una_units", "tokens")}
    out["categories"] = dict(sorted(cats.items()))
    return out


def score_counts(gold: Passage, predicted: Passage) -> dict:
    """matched/gold/predicted per class, as `uccakit score --format json` reports them."""
    g_sigs, p_sigs = gold.signatures(), predicted.signatures()
    out: dict = {}
    for mode in ("labeled", "unlabeled"):
        out[mode] = {}
        for kind, remote in (("primary", False), ("remote", True)):
            def keys(sigs):
                c = Counter()
                for (extent, labels, rem), n in sigs.items():
                    if rem == remote:
                        c[(extent, labels if mode == "labeled" else ())] += n
                return c
            g, p = keys(g_sigs), keys(p_sigs)
            out[mode][kind] = {"matched": sum(min(n, p[k]) for k, n in g.items()),
                               "gold": sum(g.values()), "predicted": sum(p.values())}
    return out


class _Names:
    """Unique remote-target names within one passage."""

    def __init__(self, rng):
        self.rng = rng
        self.n = 0

    def __call__(self) -> str:
        self.n += 1
        return f"{self.rng.choice(NAMES)}{self.n}"


def _participant(rng, names, nest_left, nest_p):
    roll = rng.random()
    if nest_left and roll < nest_p:
        return _scene(rng, names, "A", nest_left - 1, nest_p)
    if roll < 0.5:
        return Unit("A", [names()])
    if roll < 0.8:
        return Unit("A", children=[Unit("F", [rng.choice(FUNCS)]), Unit("C", [rng.choice(NOUNS)])])
    return Unit("A", children=[Unit("F", [rng.choice(FUNCS)]), Unit("E", [rng.choice(ADJS)]),
                               Unit("C", [rng.choice(NOUNS)])])


def _scene(rng, names, label="H", nest_left=0, nest_p=0.0) -> Unit:
    children = [_participant(rng, names, nest_left, nest_p), Unit("P", [rng.choice(VERBS)])]
    if rng.random() < 0.7:
        children.append(_participant(rng, names, nest_left, nest_p))
    if rng.random() < 0.25:
        children.insert(1, Unit("D", [rng.choice(ADVS)]))
    if rng.random() < 0.2:
        children.append(Unit("T", [rng.choice(TIMES)]))
    return Unit(label, children=children)


def _name_targets(scene: Unit) -> list[Unit]:
    return [u for u in scene.walk() if u.words and u.label == "A" and u.words[0][-1].isdigit()]


def _layout(rng, scenes, stray=None) -> list:
    """Scenes at the top level with linkers and punctuation between them."""
    items: list = []
    for i, scene in enumerate(scenes):
        if i:
            if rng.random() < 0.3:
                items.append(rng.choice(PUNCT))
            if rng.random() < 0.4:
                items.append(Unit("L", [rng.choice(LINKERS)]))
        items.append(scene)
        if stray is not None and i == stray[0]:
            items.append(stray[1])
    items.append(".")
    return items


def _add_remote(rng, owner: Unit, pool: list[Unit]) -> bool:
    targets = [t for scene in pool for t in _name_targets(scene)]
    if not targets:
        return False
    owner.remotes.append((rng.choice(targets), "A"))
    return True


def _inject(rng, scenes: list[Unit], rule: str):
    """Break one scene so that the validator reports exactly one `rule` diagnostic."""
    scene = rng.choice(scenes)
    if rule == "R1":
        scene.label = "A"
    elif rule == "R2":
        scene.children.append(Unit("P", [rng.choice(VERBS)]))
    elif rule == "R3":
        scene.children.append(Unit("A", children=[Unit("F", [rng.choice(FUNCS)]),
                                                  Unit("E", [rng.choice(ADJS)])]))
    elif rule == "R7":
        scene.children.append(Unit("A", children=[Unit("D", [rng.choice(ADVS)]),
                                                  Unit("C", [rng.choice(NOUNS)])]))
    elif rule == "R10":
        return (scenes.index(scene), "uh")
    return None


def _write(path: Path, data) -> None:
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))


def _totals(passages) -> Counter:
    total = Counter()
    for p in passages:
        total.update(p.stats())
    return total


# ---------------------------------------------------------------------------
# Workloads


def corpus_batch(seed: int, out: Path, files=100, violations=30) -> dict:
    """995 short passages over 100 bracket files, 30 with one rule violation each."""
    rng = random.Random(seed)
    # Fixed multisets of passages per file (5 to 15) and scenes per passage
    # (1 to 5), in seeded order, keep the corpus size the same for every seed.
    per_file = [5 + i % 11 for i in range(files)]
    rng.shuffle(per_file)
    passages = sum(per_file)
    sizes = [1 + i % 5 for i in range(passages)]
    rng.shuffle(sizes)
    broken = dict(zip(rng.sample(range(passages), violations),
                      (INJECTED_RULES[i % len(INJECTED_RULES)] for i in range(violations))))
    made, names_of_files, diag = [], [], Counter()
    k = 0
    for f, count in enumerate(per_file):
        stem = f"c{f:03d}"
        chunks = []
        for i in range(count):
            names = _Names(rng)
            scenes = [_scene(rng, names, nest_left=1, nest_p=0.1) for _ in range(sizes[k])]
            for j in range(1, len(scenes)):
                if rng.random() < 0.1:
                    _add_remote(rng, scenes[j], scenes[j - 1:j])
                if rng.random() < 0.05:
                    scenes[j].implicit.append("A")
            stray = None
            if k in broken:
                stray = _inject(rng, scenes, broken[k])
                diag[broken[k]] += 1
            pid = stem if count == 1 else f"{stem}.{i + 1}"
            p = Passage(pid, _layout(rng, scenes, stray), right_labels=rng.random() < 0.3)
            made.append(p)
            chunks.append(p.text())
            k += 1
        _write(out / f"{stem}.txt", "\n\n".join(chunks) + "\n")
        names_of_files.append(f"{stem}.txt")
    return {
        "files": names_of_files,
        "passages": made,
        "stats": stats_dict(_totals(made)),
        "tokens": sum(len(p.tokens) for p in made),
        "units": sum(p.unit_count for p in made),
        "diagnostics": dict(diag),
        "error_rules": sorted(set(diag) & ERROR_RULES),
    }


def long_passage(rng, pid: str, scenes: int, remotes: int, nested: int) -> Passage:
    """One passage with a fixed number of scenes, remote edges and nested scenes."""
    names = _Names(rng)
    nest_at = set(rng.sample(range(scenes), nested))
    made = []
    for i in range(scenes):
        scene = _scene(rng, names)
        if i in nest_at:
            scene.children.append(_scene(rng, names, "A"))
        made.append(scene)
    owners = rng.sample(range(1, scenes), remotes)
    for i in owners:
        scene = made[i]
        nested_scenes = [c for c in scene.children if c.children and any(g.label == "P" for g in c.children)]
        owner = nested_scenes[0] if nested_scenes and rng.random() < 0.5 else scene
        pool = [made[j] for j in rng.sample(range(scenes), 3) if j != i]
        if not _add_remote(rng, owner, pool):
            _add_remote(rng, owner, [m for j, m in enumerate(made) if j != i])
    return Passage(pid, _layout(rng, made), right_labels=rng.random() < 0.5)


def long_remote(seed: int, out: Path, files=4, scenes=150, remotes=90, nested=20) -> dict:
    """A few long passages, one per file, with many remote edges and nested scenes."""
    rng = random.Random(seed)
    made = []
    for f in range(files):
        p = long_passage(rng, f"L{f}", scenes, remotes, nested)
        _write(out / f"L{f}.txt", p.text() + "\n")
        made.append(p)
    return {
        "files": [f"L{f}.txt" for f in range(files)],
        "passages": made,
        "stats": stats_dict(_totals(made)),
        "tokens": sum(len(p.tokens) for p in made),
        "units": sum(p.unit_count for p in made),
        "self_scores": [score_counts(p, p) for p in made],
    }


def _perturb(rng, gold: Passage, pid: str) -> tuple[Passage, int]:
    """A predicted annotation: relabelled edges, flattened units, dropped remotes.
    Returns it with the number of changes made."""
    clone = _clone(gold)
    scenes = [u for u in clone.root.walk() if any(c.label == "P" for c in u.children)]
    relabel = [(s, c) for s in scenes for c in s.children if c.words and c.label in ("A", "D", "T")]
    relabel += [(u, c) for u in clone.root.walk() for c in u.children
                if c.words and c.label in ("E", "Q")]
    changes = 0
    for _, child in rng.sample(relabel, min(len(relabel), rng.randint(1, 3))):
        swap = {"A": "DT", "D": "AT", "T": "AD", "E": "Q", "Q": "E"}[child.label]
        child.label = rng.choice(swap)
        changes += 1
    targets = {id(t) for u in clone.root.walk() for t, _ in u.remotes}
    flat = [(s, c) for s in scenes for c in s.children
            if c.children and not any(g.label == "P" for g in c.children) and id(c) not in targets]
    if flat and rng.random() < 0.6:
        scene, unit = rng.choice(flat)
        at = scene.children.index(unit)
        scene.children[at:at + 1] = unit.children
        changes += 1
    for unit in clone.root.walk():
        kept = [r for r in unit.remotes if rng.random() < 0.6]
        changes += len(unit.remotes) - len(kept)
        unit.remotes = kept
    return Passage(pid, clone.items, gold.right_labels), changes


def _clone(p: Passage) -> Passage:
    copies: dict[int, Unit] = {}

    def copy(unit):
        new = Unit(unit.label, unit.words, [copy(c) for c in unit.children])
        new.implicit = list(unit.implicit)
        copies[id(unit)] = new
        return new

    items = [copy(i) if isinstance(i, Unit) else i for i in p.items]
    for old in p.root.walk():
        if id(old) in copies:
            copies[id(old)].remotes = [(copies[id(t)], lab) for t, lab in old.remotes]
    return Passage(p.id, items, p.right_labels)


def score_eval(seed: int, out: Path, pairs=300, scored=8) -> dict:
    """Gold and predicted passages as interchange JSON, compared pairwise."""
    rng = random.Random(seed)
    sizes = [2 + i % 5 for i in range(pairs)]
    rng.shuffle(sizes)
    golds, preds, files, changed = [], [], [], []
    for i in range(pairs):
        names = _Names(rng)
        scenes = [_scene(rng, names, nest_left=1, nest_p=0.1) for _ in range(sizes[i])]
        for j in range(1, len(scenes)):
            if rng.random() < 0.4:
                _add_remote(rng, scenes[j], scenes[:j])
            if rng.random() < 0.05:
                scenes[j].implicit.append("A")
        gold = Passage(f"g{i:03d}", _layout(rng, scenes))
        pred, changes = _perturb(rng, gold, f"p{i:03d}")
        changed.append(changes > 0)
        _write(out / f"g{i:03d}.ucca.json", gold.interchange())
        _write(out / f"p{i:03d}.ucca.json", pred.interchange())
        golds.append(gold)
        preds.append(pred)
        files.append((f"g{i:03d}.ucca.json", f"p{i:03d}.ucca.json"))
    made = golds + preds
    return {
        "pairs": files,
        "passages": made,
        "scored": sorted(rng.sample(range(pairs), scored)),
        "scores": [score_counts(g, p) for g, p in zip(golds, preds)],
        "isomorphic": [not c for c in changed],
        "stats": stats_dict(_totals(made)),
        "tokens": sum(len(p.tokens) for p in made),
        "units": sum(p.unit_count for p in made),
    }


# ---------------------------------------------------------------------------
# Size series and probe inputs


def scenes_passage(rng, n: int, with_remotes: bool) -> str:
    """n top-level scenes of five units each; with remotes, each scene
    re-attaches the named participant of the scene before it (the first one
    that of the last scene).  At n=400 that is 2,001 units and 400 remotes."""
    names = _Names(rng)
    scenes = []
    for _ in range(n):
        scenes.append(Unit("H", children=[Unit("A", [names()]), Unit("P", [rng.choice(VERBS)]),
                                          Unit("D", [rng.choice(ADVS)]),
                                          Unit("A", [rng.choice(NOUNS)])]))
    if with_remotes:
        for i in range(n):
            scenes[i].remotes.append((scenes[i - 1].children[0], "A"))
    return Passage("series", scenes).text()


def nested_passage(rng, depth: int) -> str:
    """A scene whose participant is a scene, `depth` levels down.  Built as
    text, so that depths past the interpreter's recursion limit are cheap."""
    verbs = [rng.choice(VERBS) for _ in range(depth + 1)]
    head = f"[H [A {rng.choice(NAMES)}0] [P {verbs[0]}] "
    body = "".join(f"[A [P {v}] " for v in verbs[1:])
    return head + body + f"[A {rng.choice(NAMES)}1]" + "]" * depth + " ] ."
