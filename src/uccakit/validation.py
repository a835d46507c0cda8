"""Structural validation against the foundational-layer guidelines.

Each rule checks one restriction from the annotation guidelines and
reports violations as diagnostics rather than exceptions, so a single
run surfaces every problem in a passage.  A rule is defined in one place:
its check, a method of `_Checker` registered by `@_rule` with its id,
default severity, description and guideline anchor, in reporting order.
The checks read the facts that one pass over the passage gathers.
Severity overrides from a config can re-grade or silence individual
rules, but never change which violations are detected.
"""

from __future__ import annotations

from collections.abc import Callable

from .core import IMPLICIT, INTERNAL, Edge, Passage, _gc_paused, id_key, main_relations, value_type

ERROR = "error"
WARNING = "warning"
OFF = "off"

_EXCERPT = 40


@value_type
class RuleInfo:
    """One registered rule: identifier, default severity, what it checks,
    and where in the guidelines the restriction comes from."""

    id: str
    severity: str
    description: str
    guideline_anchor: str


@value_type
class Diagnostic:
    rule: str
    severity: str
    unit: str
    message: str


# Rule id -> its RuleInfo and check, in reporting order.
_RULES: dict[str, tuple[RuleInfo, Callable]] = {}


def _rule(rule_id: str, severity: str, description: str, anchor: str):
    """Register the decorated check as rule `rule_id`."""

    def register(check):
        _RULES[rule_id] = (RuleInfo(rule_id, severity, description, anchor), check)
        return check

    return register


class _Checker:
    """One passage's checks.  `__init__` is the one pass over the internal
    units that gathers what several rules read; each rule is a method,
    registered by `@_rule`, that yields (unit id, message) per violation."""

    def __init__(self, passage: Passage):
        self.passage = passage
        self.units = units = passage.units
        self.root = passage.root
        self.una: set[str] = set()  # units with an incoming UNA edge
        self.scenes: dict[str, int] = {}  # scene unit -> its main-relation edges
        self.internal = []  # (id, unit, its child edges' label tuples, their union)
        self.added: list[Edge] = []  # remote edges and edges to implicit units
        for uid, unit in units.items():
            if unit.kind != INTERNAL:
                continue
            labels = [e.categories.labels for e in unit.outgoing]
            present = set().union(*labels)
            self.internal.append((uid, unit, labels, present))
            if "P" in present or "S" in present:
                self.scenes[uid] = main_relations(unit)
            for e, ls in zip(unit.outgoing, labels):
                if "UNA" in ls:
                    self.una.add(e.child)
                if e.remote or units[e.child].kind == IMPLICIT:
                    self.added.append(e)

    @_rule("R1", ERROR,
           "top-level units carry only parallel-scene (H) or linker (L) categories",
           "restrictions summary: only scenes and linkers at the top level")
    def top_level(self):
        for e in self.units[self.root].outgoing:
            base = e.categories.base()
            if not base or not base <= {"H", "L"}:
                yield e.child, f"top-level unit carries {e.categories}"

    @_rule("R2", ERROR,
           "a scene unit has exactly one main-relation child (P, S, or a CMR combination)",
           "restrictions summary: every scene has a single main relation")
    def one_main_relation(self):
        for uid, mains in self.scenes.items():
            if mains > 1:
                yield uid, f"scene unit has {mains} main-relation children"

    @_rule("R3", ERROR,
           "an elaborated non-scene unit includes a center (C) child unless unanalyzable",
           "restrictions summary: non-scene units are built around a center")
    def center(self):
        for uid, _, labels, present in self.internal:
            if uid == self.root or uid in self.scenes or uid in self.una:
                continue
            if len(labels) >= 2 and not present & {"H", "L", "C"}:
                yield uid, "non-scene unit has several children but no center"

    @_rule("R4", ERROR,
           "a linker's parent also contains a parallel scene, or is the top level",
           "restrictions summary: linkers link parallel scenes")
    def linker(self):
        for uid, unit, labels, present in self.internal:
            if "L" in present and "H" not in present and uid != self.root:
                for e, ls in zip(unit.outgoing, labels):
                    if "L" in ls:
                        yield e.child, "linker has no parallel scene beside it"

    @_rule("R5", ERROR,
           "function words are never remote, and pure function units have no remote children",
           "restrictions summary: function units take part in no relation")
    def function_unit(self):
        remotes = [e for e in self.added if e.remote]
        for e in remotes:
            if "F" in e.categories.labels:
                yield e.child, "function word attached as remote"
        for uid in {e.parent for e in remotes} - {self.root}:
            if all(e.categories.base() == {"F"} for e in self.passage.incoming(uid)):
                yield uid, "function unit has remote children"

    @_rule("R6", ERROR,
           "a unit with children has at least one non-remote child that is not pure function",
           "restrictions summary: at least one non-remote, non-function child")
    def content_child(self):
        for uid, unit, labels, _ in self.internal:
            if labels and all(e.remote or ls == ("F",) for e, ls in zip(unit.outgoing, labels)):
                yield uid, "unit has no non-remote child beyond function words"

    @_rule("R7", WARNING,
           "an adverbial inside a non-scene unit, outside the center-coordination pattern",
           "adverbials: D belongs to scenes, or to C units coordinating D with C")
    def adverbial(self):
        for uid, unit, labels, present in self.internal:
            if "D" not in present or uid == self.root or uid in self.scenes:
                continue
            if "C" in present and "C" in self.passage.primary_parent_edge(uid).categories.labels:
                continue
            for e, ls in zip(unit.outgoing, labels):
                if "D" in ls:
                    yield e.child, "adverbial inside a non-scene unit"

    @_rule("R8", ERROR,
           "a coordinated-main-relation mark accompanies a process or state",
           "restrictions summary: CMR is secondary to P or S")
    def coordinated_main_relation(self):
        for _, unit, labels, present in self.internal:
            if "CMR" in present:
                for e, ls in zip(unit.outgoing, labels):
                    if "CMR" in ls and "P" not in ls and "S" not in ls:
                        yield e.child, "coordinated-main-relation mark without process or state"

    @_rule("R9", ERROR,
           "an unanalyzable unit has no internal structure",
           "restrictions summary: unanalyzable units are left unstructured")
    def unanalyzable(self):
        for uid in self.una:
            if self.units[uid].kind == INTERNAL:
                yield uid, "unanalyzable unit has children"

    @_rule("R10", ERROR,
           "every non-punctuation token belongs to some unit",
           "foundational layer: annotation covers the whole text")
    def coverage(self):
        covered = self.passage.extents[self.root]
        for tok in self.passage.tokens:
            if not tok.is_punct and tok.position not in covered:
                message = f"token {tok.text!r} (position {tok.position}) belongs to no unit"
                yield self.root, message

    @_rule("R11", ERROR,
           "a unit with a connector (N) child has no elaborator or quantifier children",
           "restrictions summary: connectives take no elaborators or quantifiers")
    def connector(self):
        for uid, _, _, present in self.internal:
            if "N" in present and ("E" in present or "Q" in present):
                yield uid, "unit mixes a connector child with elaborator or quantifier children"

    @_rule("R12", WARNING,
           "a remote edge points at the minimal unit for its entity",
           "technical notes: select the minimal possible relevant unit")
    def minimal_remote(self):
        extents = self.passage.extents
        for e in self.added:
            if not e.remote:
                continue
            # A primary child's extent is a subset of its parent's, so the two
            # are equal exactly when their sizes are.
            target, width = self.units[e.child], len(extents[e.child])
            if target.kind == INTERNAL and width and any(
                not c.remote and len(extents[c.child]) == width for c in target.outgoing
            ):
                yield e.parent, "remote edge targets a unit wrapping an equally wide child"

    @_rule("R13", ERROR,
           "a scene unit serves its parent as participant, elaborator, center or parallel scene",
           "scenes: a scene is an A, E or C of another scene, or parallel to it")
    def scene_role(self):
        for uid in self.scenes:
            if uid == self.root:
                continue
            incoming = self.passage.primary_parent_edge(uid).categories
            if not incoming.base() <= {"A", "E", "C", "H"}:
                yield uid, f"scene unit serves its parent as {incoming}"

    @_rule("W1", WARNING,
           "a parallel-scene unit whose children are all parallel scenes and linkers",
           "restrictions summary: scene sequences are not nested under another H")
    def nested_scene_sequence(self):
        for uid, _, labels, present in self.internal:
            if uid == self.root or not ("H" in present or "L" in present):
                continue
            if "H" in self.passage.primary_parent_edge(uid).categories.labels and all(
                "H" in ls or "L" in ls for ls in labels
            ):
                yield uid, "parallel scene contains only parallel scenes and linkers"

    @_rule("W2", WARNING,
           "a remote or implicit edge carries a category beyond function and UNA",
           "remote and implicit units: added edges name a real role")
    def added_role(self):
        for e in self.added:
            if all(label in ("F", "UNA") for label in e.categories.labels):
                yield e.child, f"added edge carries only {e.categories}"


def list_rules() -> list[RuleInfo]:
    """All registered rules in reporting order."""
    return [info for info, _ in _RULES.values()]


def parse_config(text: str) -> dict[str, str]:
    """Parse severity overrides, one `RULE = error|warning|off` per line.

    Blank lines and `#` comments are ignored.  Unknown rule ids or
    severities raise ValueError.
    """
    overrides: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'RULE = severity', got {raw!r}")
        rule, _, value = (part.strip() for part in line.partition("="))
        if rule not in _RULES:
            raise ValueError(f"line {lineno}: unknown rule id {rule!r}")
        if value not in (ERROR, WARNING, OFF):
            raise ValueError(
                f"line {lineno}: severity must be error, warning or off, got {value!r}"
            )
        overrides[rule] = value
    return overrides


def load_config(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())


@_gc_paused
def validate(passage: Passage, config: dict[str, str] | None = None) -> list[Diagnostic]:
    """Check every rule and return diagnostics sorted by (unit, rule).

    `config` maps rule ids to an overriding severity, or to "off" to
    suppress reporting.  Overrides affect reporting only; the set of
    detected violations is always the same.
    """
    config = config or {}
    checker = _Checker(passage)
    out: list[Diagnostic] = []
    for info, check in _RULES.values():
        severity = config.get(info.id, info.severity)
        if severity == OFF:
            continue
        for unit_id, message in check(checker):
            excerpt = passage.text_of(unit_id, _EXCERPT)
            out.append(Diagnostic(info.id, severity, unit_id, f"{message}: '{excerpt}'"))
    # The checks ran in rule order and the sort is stable: (unit, rule) order.
    out.sort(key=lambda d: id_key(d.unit))
    return out
