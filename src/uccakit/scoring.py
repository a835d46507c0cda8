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
from operator import itemgetter

from .core import Passage, UccaError, _gc_paused, value_type


class TokenMismatch(UccaError):
    """The two passages disagree on the underlying token sequence."""


@value_type
class EdgeSignature:
    """What an edge asserts: this span, in these roles, possibly shared."""

    tokens: tuple[int, ...]
    categories: tuple[str, ...]
    remote: bool


def _edge_keys(passage: Passage) -> list[tuple[tuple[int, ...], tuple[str, ...], bool]]:
    """Each scored edge's signature as a plain (tokens, labels, remote) key.
    Implicit and zero-width children have an empty extent and are skipped."""
    extents = passage.extents
    keys = []
    for unit in passage.units.values():
        for e in unit.outgoing:
            extent = extents[e.child]
            if extent:
                keys.append((tuple(sorted(extent)), e.categories.labels, e.remote))
    return keys


@_gc_paused
def signatures(passage: Passage) -> list[EdgeSignature]:
    return [EdgeSignature(*key) for key in _edge_keys(passage)]


@value_type
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


@value_type
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


@_gc_paused
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
        for i, ((g, g_punct), (p, p_punct)) in enumerate(zip(gold_toks, pred_toks)):
            if g != p:
                raise TokenMismatch(f"token {i} differs: gold {g!r}, predicted {p!r}")
            if g_punct != p_punct:
                marks, other = ("gold", "predicted") if g_punct else ("predicted", "gold")
                raise TokenMismatch(
                    f"token {i} differs: {marks} marks {g!r} as punctuation, {other} does not"
                )
        raise TokenMismatch(
            f"token counts differ: gold has {len(gold_toks)}, predicted has {len(pred_toks)}"
        )

    gold_keys, pred_keys = _edge_keys(gold), _edge_keys(predicted)
    # [matched, gold, predicted] per (labels, remote), from each side's counts.
    gold_totals = Counter(map(itemgetter(1, 2), gold_keys))
    pred_totals = Counter(map(itemgetter(1, 2), pred_keys))
    tally = {key: [0, gold_totals[key], pred_totals[key]]
             for key in gold_totals.keys() | pred_totals.keys()}
    pred_count = Counter(pred_keys)
    for key, g in Counter(gold_keys).items():
        p = pred_count.get(key)
        if p:
            tally[key[1:]][0] += g if g < p else p
    # Unlabeled edges match on (span, remote); their totals are the labeled ones.
    span_matched = [0, 0]
    pred_spans = Counter(map(itemgetter(0, 2), pred_keys))
    for key, g in Counter(map(itemgetter(0, 2), gold_keys)).items():
        p = pred_spans.get(key)
        if p:
            span_matched[key[1]] += g if g < p else p
    classes = [[0, 0, 0], [0, 0, 0]]  # labeled, indexed by the remote flag
    per_label: dict[str, list[int]] = {}
    for (labels, remote), (m, g, p) in tally.items():
        for total in (classes[remote], *[per_label.setdefault(l, [0, 0, 0]) for l in labels]):
            total[0] += m
            total[1] += g
            total[2] += p

    return ScoreReport(
        labeled_primary=ClassScores(*classes[False]),
        labeled_remote=ClassScores(*classes[True]),
        unlabeled_primary=ClassScores(span_matched[False], *classes[False][1:]),
        unlabeled_remote=ClassScores(span_matched[True], *classes[True][1:]),
        per_category={label: ClassScores(*per_label[label]) for label in sorted(per_label)},
    )
