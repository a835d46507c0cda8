"""Structural validation against the foundational-layer guidelines.

Each rule in the registry checks one restriction from the annotation
guidelines and reports violations as diagnostics rather than exceptions,
so a single run surfaces every problem in a passage.  Severity overrides
from a config can re-grade or silence individual rules, but never change
which violations are detected.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import IMPLICIT, INTERNAL, Passage, id_key, main_relations

ERROR = "error"
WARNING = "warning"
OFF = "off"

_EXCERPT = 40


@dataclass(frozen=True)
class RuleInfo:
    """One registered rule: identifier, default severity, what it checks,
    and where in the guidelines the restriction comes from."""

    id: str
    severity: str
    description: str
    guideline_anchor: str


@dataclass(frozen=True)
class Diagnostic:
    rule: str
    severity: str
    unit: str
    message: str


_RULES = [
    RuleInfo(
        "R1",
        ERROR,
        "top-level units carry only parallel-scene (H) or linker (L) categories",
        "restrictions summary: only scenes and linkers at the top level",
    ),
    RuleInfo(
        "R2",
        ERROR,
        "a scene unit has exactly one main-relation child (P, S, or a CMR combination)",
        "restrictions summary: every scene has a single main relation",
    ),
    RuleInfo(
        "R3",
        ERROR,
        "an elaborated non-scene unit includes a center (C) child unless unanalyzable",
        "restrictions summary: non-scene units are built around a center",
    ),
    RuleInfo(
        "R4",
        ERROR,
        "a linker's parent also contains a parallel scene, or is the top level",
        "restrictions summary: linkers link parallel scenes",
    ),
    RuleInfo(
        "R5",
        ERROR,
        "function words are never remote, and pure function units have no remote children",
        "restrictions summary: function units take part in no relation",
    ),
    RuleInfo(
        "R6",
        ERROR,
        "a unit with children has at least one non-remote child that is not pure function",
        "restrictions summary: at least one non-remote, non-function child",
    ),
    RuleInfo(
        "R7",
        WARNING,
        "an adverbial inside a non-scene unit, outside the center-coordination pattern",
        "adverbials: D belongs to scenes, or to C units coordinating D with C",
    ),
    RuleInfo(
        "R8",
        ERROR,
        "a coordinated-main-relation mark accompanies a process or state",
        "restrictions summary: CMR is secondary to P or S",
    ),
    RuleInfo(
        "R9",
        ERROR,
        "an unanalyzable unit has no internal structure",
        "restrictions summary: unanalyzable units are left unstructured",
    ),
    RuleInfo(
        "R10",
        ERROR,
        "every non-punctuation token belongs to some unit",
        "foundational layer: annotation covers the whole text",
    ),
    RuleInfo(
        "R11",
        ERROR,
        "a unit with a connector (N) child has no elaborator or quantifier children",
        "restrictions summary: connectives take no elaborators or quantifiers",
    ),
    RuleInfo(
        "R12",
        WARNING,
        "a remote edge points at the minimal unit for its entity",
        "technical notes: select the minimal possible relevant unit",
    ),
    RuleInfo(
        "R13",
        ERROR,
        "a scene unit serves its parent as participant, elaborator, center or parallel scene",
        "scenes: a scene is an A, E or C of another scene, or parallel to it",
    ),
    RuleInfo(
        "W1",
        WARNING,
        "a parallel-scene unit whose children are all parallel scenes and linkers",
        "restrictions summary: scene sequences are not nested under another H",
    ),
    RuleInfo(
        "W2",
        WARNING,
        "a remote or implicit edge carries a category beyond function and UNA",
        "remote and implicit units: added edges name a real role",
    ),
]

_RULE_ORDER = {rule.id: i for i, rule in enumerate(_RULES)}
_BY_ID = {rule.id: rule for rule in _RULES}


def list_rules() -> list[RuleInfo]:
    """All registered rules in reporting order."""
    return list(_RULES)


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
        if rule not in _BY_ID:
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


def validate(passage: Passage, config: dict[str, str] | None = None) -> list[Diagnostic]:
    """Check every rule and return diagnostics sorted by (unit, rule).

    `config` maps rule ids to an overriding severity, or to "off" to
    suppress reporting.  Overrides affect reporting only; the set of
    detected violations is always the same.
    """
    found: list[tuple[str, str, str]] = []

    def report(rule: str, unit_id: str, message: str) -> None:
        excerpt = passage.text_of(unit_id, _EXCERPT)
        found.append((rule, unit_id, f"{message}: '{excerpt}'"))

    units = passage.units
    root = passage.root
    extents = passage.extents

    # One pass over the edges collects the units with an incoming UNA edge
    # and the scene units; incoming edges and extents come from the passage.
    una: set[str] = set()
    scenes: dict[str, int] = {}  # scene unit -> its main-relation edges
    for uid, unit in units.items():
        if unit.kind == INTERNAL and (mains := main_relations(unit)):
            scenes[uid] = mains
        for e in unit.outgoing:
            if "UNA" in e.categories.labels:
                una.add(e.child)

    for e in units[root].outgoing:
        base = e.categories.base()
        if not base or not base <= {"H", "L"}:
            report("R1", e.child, f"top-level unit carries {e.categories}")

    for uid, unit in units.items():
        if unit.kind != INTERNAL:
            continue
        labels = [e.categories.labels for e in unit.outgoing]
        present = set().union(*labels)
        if scenes.get(uid, 0) > 1:
            report("R2", uid, f"scene unit has {scenes[uid]} main-relation children")

        if (
            uid != root
            and uid not in scenes
            and uid not in una
            and len(labels) >= 2
            and not present & {"H", "L", "C"}
        ):
            report("R3", uid, "non-scene unit has several children but no center")

        if "N" in present and ("E" in present or "Q" in present):
            report("R11", uid, "unit mixes a connector child with elaborator or quantifier children")

        if labels and all(e.remote or e.categories.labels == ("F",) for e in unit.outgoing):
            report("R6", uid, "unit has no non-remote child beyond function words")

        for e, ls in zip(unit.outgoing, labels):
            if "L" in ls and uid != root and "H" not in present:
                report("R4", e.child, "linker has no parallel scene beside it")

            if e.remote and "F" in ls:
                report("R5", e.child, "function word attached as remote")

            if "D" in ls and uid != root and uid not in scenes:
                parent_in = passage.primary_parent_edge(uid)
                if not ("C" in parent_in.categories.labels and "C" in present):
                    report("R7", e.child, "adverbial inside a non-scene unit")

            if "CMR" in ls and "P" not in ls and "S" not in ls:
                report("R8", e.child, "coordinated-main-relation mark without process or state")

            if e.remote:
                # A primary child's extent is a subset of its parent's, so
                # the two are equal exactly when their sizes are.
                target, width = units[e.child], len(extents[e.child])
                if target.kind == INTERNAL and width and any(
                    not c.remote and len(extents[c.child]) == width for c in target.outgoing
                ):
                    report("R12", uid, "remote edge targets a unit wrapping an equally wide child")

            if (e.remote or units[e.child].kind == IMPLICIT) and all(
                label in ("F", "UNA") for label in ls
            ):
                report("W2", e.child, f"added edge carries only {e.categories}")

    for uid, unit in units.items():
        if uid == root or unit.kind != INTERNAL:
            continue
        if uid in una:
            report("R9", uid, "unanalyzable unit has children")

        incoming = passage.primary_parent_edge(uid)
        if any(e.remote for e in unit.outgoing) and all(
            e.categories.base() == {"F"} for e in passage.incoming(uid)
        ):
            report("R5", uid, "function unit has remote children")

        if uid in scenes and not incoming.categories.base() <= {"A", "E", "C", "H"}:
            report("R13", uid, f"scene unit serves its parent as {incoming.categories}")

        if unit.outgoing and "H" in incoming.categories.labels and all(
            "H" in e.categories.labels or "L" in e.categories.labels for e in unit.outgoing
        ):
            report("W1", uid, "parallel scene contains only parallel scenes and linkers")

    covered = extents[root]
    for tok in passage.tokens:
        if not tok.is_punct and tok.position not in covered:
            report(
                "R10",
                root,
                f"token {tok.text!r} (position {tok.position}) belongs to no unit",
            )

    config = config or {}
    out: list[Diagnostic] = []
    for rule, unit_id, message in found:
        severity = config.get(rule, _BY_ID[rule].severity)
        if severity == OFF:
            continue
        out.append(Diagnostic(rule, severity, unit_id, message))
    out.sort(key=lambda d: (id_key(d.unit), _RULE_ORDER[d.rule]))
    return out
