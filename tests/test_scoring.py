import json
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uccakit import (
    ClassScores,
    EdgeSpec,
    EdgeSignature,
    ScoreReport,
    Token,
    TokenMismatch,
    UnitSpec,
    build_passage,
    parse_passage,
    score,
    signatures,
)

from strategies import labels, passages, token_streams


def max_matching(gold_keys, pred_keys):
    """Size of a maximum matching where keys pair off on exact equality.

    Kuhn's augmenting-path algorithm over the explicit bipartite graph;
    slow but obviously correct, used as the oracle for the counts the
    scorer computes per class.
    """
    owner = {}

    def try_assign(gi, seen):
        for pi, pk in enumerate(pred_keys):
            if pk == gold_keys[gi] and pi not in seen:
                seen.add(pi)
                if pi not in owner or try_assign(owner[pi], seen):
                    owner[pi] = gi
                    return True
        return False

    return sum(1 for gi in range(len(gold_keys)) if try_assign(gi, set()))


def spans(passage):
    """Each scored edge as an `EdgeSignature`, with the child's span found
    here: its terminals' own tokens, reached down primary edges.  It reads
    neither `passage.extents` nor `signatures()`, so a fault in the
    scorer's keys cannot reach the oracles that use it."""
    below = {}

    def span(uid):
        if uid not in below:
            unit = passage.units[uid]
            below[uid] = set(unit.tokens).union(
                *(span(e.child) for e in unit.outgoing if not e.remote)
            )
        return below[uid]

    return [
        EdgeSignature(tuple(sorted(span(e.child))), e.categories.labels, e.remote)
        for unit in passage.units.values()
        for e in unit.outgoing
        if span(e.child)
    ]


def class_keys(sigs, *, labeled, remote):
    return [
        (s.tokens, s.categories if labeled else ())
        for s in sigs
        if s.remote == remote
    ]


# Pairs of annotations over identical token sequences.  Several of the
# predicted sides break guideline rules on purpose; scoring only cares
# about edges.
PAIRS = [
    ("identical", "[H [A John] [P slept] ]", "[H [A John] [P slept] ]"),
    (
        "function-vs-elaborator",
        "[H [A John] [P kicked] [A [F the] [C ball] ] ]",
        "[H [A John] [P kicked] [A [E the] [C ball] ] ]",
    ),
    ("label-flip", "[H [A John] [P ran] ]", "[H [E John] [P ran] ]"),
    (
        "missing-wrapper",
        "[H [A John] [P kicked] [A [F the] [C ball] ] ]",
        "[H [A John] [P kicked] [F the] [A ball] ]",
    ),
    (
        "remote-vs-absent",
        "[H [A John] [P came] ] [H [P left] (John A) ]",
        "[H [A John] [P came] ] [H [P left] ]",
    ),
    (
        "remote-label-differs",
        "[H [A John] [P came] ] [H [P left] (John A) ]",
        "[H [A John] [P came] ] [H [P left] (John E) ]",
    ),
    (
        "scene-split-vs-phrasal",
        "[H [A John] [P came] ] [L and] [H [P left] (John A) ]",
        "[H [A John] [P- came] [F and] [-P left] ]",
    ),
    (
        "una-vs-analyzed",
        "[H [P Thank you UNA] [A all] ]",
        "[H [P Thank] [A you] [A all] ]",
    ),
    (
        "wrapper-and-terminal-share-span",
        "[H [A [C dog] ] [P barked] ]",
        "[H [A dog] [P barked] ]",
    ),
    (
        "duplicate-signatures",
        "[H [A [A dog] ] [P barked] ]",
        "[H [A dog] [P barked] ]",
    ),
    ("punctuation-ignored", "[H [P Stop] ] !", "[H [A Stop] ] !"),
    ("empty-prediction", "[H [A John] [P slept] ]", "John slept"),
    ("empty-gold", "John slept", "[H [A John] [P slept] ]"),
    ("both-empty", "John slept", "John slept"),
    (
        "combined-vs-plain-label",
        "[H [A This] [F is] [S+A mine] ]",
        "[H [A This] [F is] [S mine] ]",
    ),
    (
        "particle-attachment",
        "[H [A John] [P- took] [A it] [-P up] ]",
        "[H [A John] [P took] [A it] [D up] ]",
    ),
    (
        "remote-target-differs",
        "[H [A John] [P saw] [A Mary] ] [L and] [H [P waved] (Mary A) ]",
        "[H [A John] [P saw] [A Mary] ] [L and] [H [P waved] (John A) ]",
    ),
    (
        "nesting-depth",
        "[H [A [E big] [C dog] ] [P ran] ]",
        "[H [E big] [A dog] [P ran] ]",
    ),
    (
        "remote-vs-second-main",
        "[H [A John] [P came] ] [H [P left] (John A) ]",
        "[H [A John] [P came] [P left] ]",
    ),
    ("all-labels-differ", "[H [A a] [P b] [A c] ]", "[H [E a] [S b] [D c] ]"),
]

PAIR_IDS = [p[0] for p in PAIRS]


# Pairs whose edges include implicit units, UNA and remotes, checked
# against the oracle beside PAIRS.
IMPLICIT_UNA_REMOTE = [
    (
        "implicit-una-remote-1",
        "[H [P Come] [A here] , (IMP A) ] [H [P Thank] [A you UNA] (here A) ]",
        "[H [P Come] [D here] , (IMP A) ] [H [P Thank you UNA] (here A) ]",
    ),
    (
        "implicit-una-remote-2",
        "[H [A John] [P came] ] [H [P left] (John A) (IMP D) ]",
        "[H [A John UNA] [P came] ] [H [P left] (John E) ]",
    ),
]


def assert_counts_equal_optimal_matching(gold, pred):
    """All three counts of the four classes and of every category, and
    the category order, against a maximum matching over spans()."""
    report = score(gold, pred)
    gold_sigs = spans(gold)
    pred_sigs = spans(pred)
    classes = [
        (report.labeled_primary, True, False),
        (report.labeled_remote, True, True),
        (report.unlabeled_primary, False, False),
        (report.unlabeled_remote, False, True),
    ]
    for cs, labeled, remote in classes:
        g = class_keys(gold_sigs, labeled=labeled, remote=remote)
        p = class_keys(pred_sigs, labeled=labeled, remote=remote)
        assert cs.matched == max_matching(g, p)
        assert cs.gold == len(g)
        assert cs.predicted == len(p)
    all_labels = sorted({label for s in gold_sigs + pred_sigs for label in s.categories})
    assert list(report.per_category) == all_labels
    for label in all_labels:
        cs = report.per_category[label]
        g = [s for s in gold_sigs if label in s.categories]
        p = [s for s in pred_sigs if label in s.categories]
        assert cs.matched == max_matching(g, p)
        assert (cs.gold, cs.predicted) == (len(g), len(p))


@pytest.mark.parametrize(
    "name,gold_src,pred_src",
    PAIRS + IMPLICIT_UNA_REMOTE,
    ids=PAIR_IDS + [p[0] for p in IMPLICIT_UNA_REMOTE],
)
def test_greedy_counts_equal_optimal_matching(name, gold_src, pred_src):
    gold, pred = parse_passage(gold_src), parse_passage(pred_src)
    assert_counts_equal_optimal_matching(gold, pred)
    assert_score_matches_reference(gold, pred)


@st.composite
def scored_pairs(draw):
    """Two annotations of one token stream: independent, or the second a
    copy of the first with some edges relabelled and remotes dropped."""
    tokens = draw(token_streams())
    gold = draw(passages(tokens=tokens))
    if draw(st.booleans()):
        return gold, draw(passages(tokens=tokens))
    edges = []
    for e in gold.edges():
        if e.remote and draw(st.booleans()):
            continue
        relabel = draw(st.integers(0, 3)) == 0
        edges.append(EdgeSpec(e.parent, e.child, draw(labels) if relabel else e.categories, e.remote))
    units = [UnitSpec(u.id, u.kind, tuple(sorted(u.tokens))) for u in gold.units.values()]
    return gold, build_passage(tokens, units, edges)


@settings(max_examples=300, deadline=None)
@given(scored_pairs())
def test_generated_counts_equal_optimal_matching(pair):
    assert_counts_equal_optimal_matching(*pair)


def reference_score(gold, predicted):
    """The counting `score` did before it counted each side once: every
    labeled and unlabeled key of both sides in one tally over the union of
    their keys.  Kept as the oracle for the scorer; tokens must match."""
    gold_keys = [(s.tokens, s.categories, s.remote) for s in spans(gold)]
    pred_keys = [(s.tokens, s.categories, s.remote) for s in spans(predicted)]
    gold_spans = Counter([(tokens, (), remote) for tokens, _, remote in gold_keys])
    pred_spans = Counter([(tokens, (), remote) for tokens, _, remote in pred_keys])
    # [matched, gold, predicted] per (labels, remote); unlabeled keys carry no labels.
    tally = {}
    for g_count, p_count in ((Counter(gold_keys), Counter(pred_keys)), (gold_spans, pred_spans)):
        for key in g_count.keys() | p_count.keys():
            g, p = g_count.get(key, 0), p_count.get(key, 0)
            counts = tally.setdefault(key[1:], [0, 0, 0])
            counts[0] += min(g, p)
            counts[1] += g
            counts[2] += p
    classes = {(lab, rem): [0, 0, 0] for lab in (True, False) for rem in (False, True)}
    per_label = {}
    for (labels, remote), counts in tally.items():
        per = [per_label.setdefault(label, [0, 0, 0]) for label in labels]
        for total in (classes[bool(labels), remote], *per):
            for i, n in enumerate(counts):
                total[i] += n
    return ScoreReport(
        labeled_primary=ClassScores(*classes[True, False]),
        labeled_remote=ClassScores(*classes[True, True]),
        unlabeled_primary=ClassScores(*classes[False, False]),
        unlabeled_remote=ClassScores(*classes[False, True]),
        per_category={label: ClassScores(*per_label[label]) for label in sorted(per_label)},
    )


def assert_score_matches_reference(gold, pred):
    for a, b in ((gold, pred), (pred, gold), (gold, gold), (pred, pred)):
        got, expected = score(a, b), reference_score(a, b)
        assert got == expected
        assert json.dumps(got.to_dict()) == json.dumps(expected.to_dict())


@settings(max_examples=300, deadline=None)
@given(scored_pairs())
def test_generated_reports_equal_reference(pair):
    assert_score_matches_reference(*pair)


@pytest.mark.parametrize("name,gold_src,pred_src", PAIRS, ids=PAIR_IDS)
def test_self_score_is_perfect(name, gold_src, pred_src):
    p = parse_passage(gold_src)
    report = score(p, p)
    for cs in (
        report.labeled_primary,
        report.labeled_remote,
        report.unlabeled_primary,
        report.unlabeled_remote,
        *report.per_category.values(),
    ):
        assert cs.f1 == 1.0
        assert cs.matched == cs.gold == cs.predicted


@pytest.mark.parametrize("name,gold_src,pred_src", PAIRS, ids=PAIR_IDS)
def test_matched_counts_are_symmetric(name, gold_src, pred_src):
    gold = parse_passage(gold_src)
    pred = parse_passage(pred_src)
    forward = score(gold, pred)
    backward = score(pred, gold)
    for attr in (
        "labeled_primary",
        "labeled_remote",
        "unlabeled_primary",
        "unlabeled_remote",
    ):
        assert getattr(forward, attr).matched == getattr(backward, attr).matched


@pytest.mark.parametrize("name,gold_src,pred_src", PAIRS, ids=PAIR_IDS)
def test_per_category_gold_totals(name, gold_src, pred_src):
    gold = parse_passage(gold_src)
    report = score(gold, parse_passage(pred_src))
    expected = sum(len(s.categories) for s in signatures(gold))
    assert sum(cs.gold for cs in report.per_category.values()) == expected


def test_score_ignores_ids_and_child_order():
    gold = parse_passage("[H [A John] [P kicked] [A [F the] [C ball] ] ]")
    reordered = build_passage(
        list(gold.tokens),
        [
            UnitSpec("z", "internal"),
            UnitSpec("y", "internal"),
            UnitSpec("x", "internal"),
            UnitSpec("w", "terminal", (3,)),
            UnitSpec("v", "terminal", (2,)),
            UnitSpec("u", "terminal", (1,)),
            UnitSpec("t", "terminal", (0,)),
        ],
        [
            EdgeSpec("z", "y", "H"),
            EdgeSpec("y", "x", "A"),
            EdgeSpec("x", "w", "C"),
            EdgeSpec("x", "v", "F"),
            EdgeSpec("y", "u", "P"),
            EdgeSpec("y", "t", "A"),
        ],
    )
    report = score(gold, reordered)
    assert report.labeled_primary.f1 == 1.0
    assert report.labeled_primary.matched == 6


class TestSignatures:
    def test_extent_categories_remote(self):
        p = parse_passage("[H [A John] [P came] ] [H [P left] (John A) ]")
        sigs = set(signatures(p))
        assert EdgeSignature((0,), ("A",), False) in sigs
        assert EdgeSignature((0,), ("A",), True) in sigs
        assert EdgeSignature((2,), ("P",), False) in sigs

    def test_implicit_children_skipped(self):
        with_imp = parse_passage("[H [P Come] [A here] , (IMP A) ]")
        without = parse_passage("[H [P Come] [A here] , ]")
        assert sorted(
            (s.tokens, s.categories, s.remote) for s in signatures(with_imp)
        ) == sorted((s.tokens, s.categories, s.remote) for s in signatures(without))

    def test_zero_width_unit_skipped(self):
        p = parse_passage("[H [A John] [P slept] ] [H [P waved] [A (John A)] ]")
        empty_a = [s for s in signatures(p) if not s.tokens]
        assert empty_a == []

    def test_combined_labels_kept_whole(self):
        p = parse_passage("[H [A This] [F is] [S+A mine] ]")
        assert any(s.categories == ("S", "A") for s in signatures(p))

    def test_discontiguous_span_in_position_order(self):
        # A set promises no order: CPython iterates frozenset({1, 8}) as 8, 1.
        tokens = [Token(t, i) for i, t in enumerate("a b c d e f g h i".split())]
        units = [
            UnitSpec("r", "internal"),
            UnitSpec("x", "terminal", (1, 8)),
            UnitSpec("y", "terminal", (0, 2, 3, 4, 5, 6, 7)),
        ]
        edges = [EdgeSpec("r", "x", "A"), EdgeSpec("r", "y", "P")]
        assert signatures(build_passage(tokens, units, edges)) == [
            EdgeSignature((1, 8), ("A",), False),
            EdgeSignature((0, 2, 3, 4, 5, 6, 7), ("P",), False),
        ]


class TestMismatch:
    def test_differing_token_named(self):
        gold = parse_passage("[H [A John] [P slept] ]")
        pred = parse_passage("[H [A Mary] [P slept] ]")
        with pytest.raises(TokenMismatch, match="token 0.*'John'.*'Mary'"):
            score(gold, pred)

    def test_differing_counts_named(self):
        gold = parse_passage("[H [A John] [P slept] ]")
        pred = parse_passage("[H [A John] [P slept] [D well] ]")
        with pytest.raises(TokenMismatch, match="counts differ"):
            score(gold, pred)

    def test_punct_flag_counts_as_mismatch(self):
        gold = parse_passage("[H [P Go] ] .")
        pred = build_passage(
            [Token("Go", 0), Token(".", 1, False)],
            [
                UnitSpec("r", "internal"),
                UnitSpec("h", "internal"),
                UnitSpec("go", "terminal", (0,)),
                UnitSpec("dot", "terminal", (1,)),
            ],
            [
                EdgeSpec("r", "h", "H"),
                EdgeSpec("h", "go", "P"),
                EdgeSpec("h", "dot", "A"),
            ],
        )
        with pytest.raises(TokenMismatch):
            score(gold, pred)
        message = "token 1 differs: {} marks '.' as punctuation, {} does not"
        with pytest.raises(TokenMismatch, match=re.escape(message.format("gold", "predicted"))):
            score(gold, pred)
        with pytest.raises(TokenMismatch, match=re.escape(message.format("predicted", "gold"))):
            score(pred, gold)


class TestConventions:
    def test_empty_prediction(self):
        report = score(
            parse_passage("[H [A John] [P slept] ]"), parse_passage("John slept")
        )
        cs = report.labeled_primary
        assert cs.precision == 1.0
        assert cs.recall == 0.0
        assert cs.f1 == 0.0

    def test_empty_gold(self):
        report = score(
            parse_passage("John slept"), parse_passage("[H [A John] [P slept] ]")
        )
        cs = report.labeled_primary
        assert cs.precision == 0.0
        assert cs.recall == 1.0
        assert cs.f1 == 0.0

    def test_both_empty(self):
        report = score(parse_passage("John slept"), parse_passage("John slept"))
        assert report.labeled_primary.f1 == 1.0
        assert report.per_category == {}

    def test_remote_never_matches_primary(self):
        gold = parse_passage("[H [A John] [P came] ] [H [P left] (John A) ]")
        pred = parse_passage("[H [A John] [P came] [P left] ]")
        report = score(gold, pred)
        assert report.labeled_remote.matched == 0
        assert report.labeled_remote.gold == 1
        assert report.labeled_remote.predicted == 0

    def test_label_mutation_scores_between_zero_and_one(self):
        gold = parse_passage("[H [A John] [P kicked] [A [F the] [C ball] ] ]")
        pred = parse_passage("[H [A John] [P kicked] [A [E the] [C ball] ] ]")
        cs = score(gold, pred).labeled_primary
        assert 0.0 < cs.f1 < 1.0
        assert score(gold, pred).unlabeled_primary.f1 == 1.0

    def test_per_category_uses_full_signatures(self):
        gold = parse_passage("[H [A This] [F is] [S+A mine] ]")
        pred = parse_passage("[H [A This] [F is] [S mine] ]")
        per = score(gold, pred).per_category
        assert per["S"].matched == 0
        assert per["S"].gold == 1 and per["S"].predicted == 1
        assert per["A"].matched == 1
        assert per["A"].gold == 2 and per["A"].predicted == 1

    def test_hand_checked_counts(self):
        gold = parse_passage("[H [A John] [P kicked] [A [F the] [C ball] ] ]")
        pred = parse_passage("[H [A John] [P kicked] [A [E the] [C ball] ] ]")
        cs = score(gold, pred).labeled_primary
        assert (cs.matched, cs.gold, cs.predicted) == (5, 6, 6)
        assert cs.precision == pytest.approx(5 / 6)
        assert cs.f1 == pytest.approx(5 / 6)

    def test_spans_match_by_position_not_width(self):
        # Every edge of one side has an edge of the same width and labels on
        # the other; only the scene edge also covers the same positions.
        gold = parse_passage("[H [A John] [P ran] ]")
        pred = parse_passage("[H [P John] [A ran] ]")
        cs = score(gold, pred).labeled_primary
        assert (cs.matched, cs.gold, cs.predicted) == (1, 3, 3)


class TestReportOutput:
    def test_to_dict_shape(self):
        p = parse_passage("[H [A John] [P slept] ]")
        data = score(p, p).to_dict()
        assert set(data) == {"labeled", "unlabeled", "per_category"}
        assert set(data["labeled"]) == {"primary", "remote"}
        assert data["labeled"]["primary"]["f1"] == 1.0
        assert list(data["per_category"]) == sorted(data["per_category"])

    def test_table_layout(self):
        p = parse_passage("[H [A John] [P slept] ]")
        lines = score(p, p).table().splitlines()
        assert lines[0].split() == ["precision", "recall", "f1"]
        assert lines[1].startswith("labeled primary")
        assert lines[1].endswith("1.000")
        assert lines[5] == ""
        assert lines[6].split() == ["category", "matched", "gold", "predicted"]
        assert [row.split()[0] for row in lines[7:]] == ["A", "H", "P"]
