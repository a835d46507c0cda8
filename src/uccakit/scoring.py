"""Edge-based comparison of two annotations of the same text.

Every edge is reduced to a signature: the child's surface extent, the
edge's categories, and whether it is remote.  Two annotations are then
compared as multisets of signatures, matching each gold edge with at
most one predicted edge carrying an identical signature.  Matching on
exact equality means a greedy per-signature count is already optimal.

Edges to implicit children have no surface extent and are skipped, as
are edges to zero-width units (internal units realized only through
implicit descendants).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import IMPLICIT, Passage, UccaError


class TokenMismatch(UccaError):
    """The two passages disagree on the underlying token sequence."""


@dataclass(frozen=True)
class EdgeSignature:
    """What an edge asserts: this span, in these roles, possibly shared."""

    tokens: tuple[int, ...]
    categories: tuple[str, ...]
    remote: bool


def signatures(passage: Passage) -> list[EdgeSignature]:
    out = []
    for e in passage.edges():
        if passage.units[e.child].kind == IMPLICIT:
            continue
        extent = passage.extents[e.child]
        if not extent:
            continue
        out.append(EdgeSignature(tuple(sorted(extent)), e.categories.labels, e.remote))
    return out


@dataclass(frozen=True)
class ClassScores:
    matched: int
    gold: int
    predicted: int

    @property
    def precision(self) -> float:
        return self.matched / self.predicted if self.predicted else 1.0

    @property
    def recall(self) -> float:
        return self.matched / self.gold if self.gold else 1.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    def to_dict(self) -> dict:
        return {
            "matched": self.matched,
            "gold": self.gold,
            "predicted": self.predicted,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


@dataclass(frozen=True)
class ScoreReport:
    labeled_primary: ClassScores
    labeled_remote: ClassScores
    unlabeled_primary: ClassScores
    unlabeled_remote: ClassScores
    per_category: dict[str, ClassScores]

    def to_dict(self) -> dict:
        return {
            "labeled": {
                "primary": self.labeled_primary.to_dict(),
                "remote": self.labeled_remote.to_dict(),
            },
            "unlabeled": {
                "primary": self.unlabeled_primary.to_dict(),
                "remote": self.unlabeled_remote.to_dict(),
            },
            "per_category": {
                label: scores.to_dict() for label, scores in sorted(self.per_category.items())
            },
        }

    def table(self) -> str:
        lines = [f"{'':<20}{'precision':>10}{'recall':>10}{'f1':>10}"]
        rows = [
            ("labeled primary", self.labeled_primary),
            ("labeled remote", self.labeled_remote),
            ("unlabeled primary", self.unlabeled_primary),
            ("unlabeled remote", self.unlabeled_remote),
        ]
        for name, cs in rows:
            lines.append(
                f"{name:<20}{cs.precision:>10.3f}{cs.recall:>10.3f}{cs.f1:>10.3f}"
            )
        lines.append("")
        lines.append(f"{'category':<20}{'matched':>10}{'gold':>10}{'predicted':>10}")
        for label, cs in sorted(self.per_category.items()):
            lines.append(f"{label:<20}{cs.matched:>10}{cs.gold:>10}{cs.predicted:>10}")
        return "\n".join(lines)


def _matched(gold: Counter, predicted: Counter) -> int:
    return sum(min(count, predicted[key]) for key, count in gold.items())


def _class_scores(gold, predicted, *, labeled: bool, remote: bool) -> ClassScores:
    def keys(sigs):
        return Counter(
            (s.tokens, s.categories if labeled else ())
            for s in sigs
            if s.remote == remote
        )

    g, p = keys(gold), keys(predicted)
    return ClassScores(_matched(g, p), sum(g.values()), sum(p.values()))


def score(gold: Passage, predicted: Passage) -> ScoreReport:
    """Compare two annotations of the same token sequence.

    Primary and remote edges are matched separately; a remote edge never
    matches a primary one.  Per-category counts match edges carrying
    that label, keeping the full signature, so they reflect exact
    agreement on those edges.
    """
    gold_toks = [(t.text, t.is_punct) for t in gold.tokens]
    pred_toks = [(t.text, t.is_punct) for t in predicted.tokens]
    if gold_toks != pred_toks:
        for i, (g, p) in enumerate(zip(gold_toks, pred_toks)):
            if g != p:
                raise TokenMismatch(
                    f"token {i} differs: gold {g[0]!r}, predicted {p[0]!r}"
                )
        raise TokenMismatch(
            f"token counts differ: gold has {len(gold_toks)}, predicted has {len(pred_toks)}"
        )

    gold_sigs = signatures(gold)
    pred_sigs = signatures(predicted)

    labels = set()
    for s in gold_sigs + pred_sigs:
        labels.update(s.categories)
    per_category = {}
    for label in sorted(labels):
        g = Counter(s for s in gold_sigs if label in s.categories)
        p = Counter(s for s in pred_sigs if label in s.categories)
        per_category[label] = ClassScores(_matched(g, p), sum(g.values()), sum(p.values()))

    return ScoreReport(
        labeled_primary=_class_scores(gold_sigs, pred_sigs, labeled=True, remote=False),
        labeled_remote=_class_scores(gold_sigs, pred_sigs, labeled=True, remote=True),
        unlabeled_primary=_class_scores(gold_sigs, pred_sigs, labeled=False, remote=False),
        unlabeled_remote=_class_scores(gold_sigs, pred_sigs, labeled=False, remote=True),
        per_category=per_category,
    )
