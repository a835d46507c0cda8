"""One test per advertised guarantee, each printing a PASS line.

Run with -s (or read captured output) to see the summary lines; the
individual test verdicts are the pass/fail signal.
"""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from uccakit import (
    DanglingContinuation,
    from_interchange,
    isomorphic,
    list_rules,
    parse_passage,
    render,
    score,
    signatures,
    stats,
    to_interchange,
    validate,
    yield_of,
)

import pytest

from conftest import CORPUS, EDGE_DIR
from strategies import passages, token_streams
from test_scoring import PAIRS, class_keys, max_matching
from test_validation import MUTANTS, diag_triples, minimal_wrapper_passage

REQUIRED_CONSTRUCTIONS = {
    "basic participant-process-participant": "[P kicked]",
    "non-contiguous unit": "-P",
    "remote edge": "(John A)",
    "implicit unit": "(IMP",
    "unanalyzable unit": "UNA",
    "coordinated main relation": "CMR+P",
    "combined state-participant category": "S+A",
    "ground-participant vocative": "G+A",
}


def test_corpus_conformance():
    assert len(CORPUS) >= 30
    sources = {path.name: path.read_text() for path in CORPUS}
    joined = "\n".join(sources.values())
    for name, needle in REQUIRED_CONSTRUCTIONS.items():
        assert needle in joined, f"corpus lacks {name}"

    started = time.perf_counter()
    error_count = 0
    for source in sources.values():
        for diag in validate(parse_passage(source)):
            if diag.severity == "error":
                error_count += 1
    elapsed = time.perf_counter() - started

    assert error_count == 0
    assert elapsed < 1.0
    print(
        f"PASS corpus conformance: {len(CORPUS)} fixtures, 0 error diagnostics, "
        f"{elapsed:.3f}s"
    )


def test_mutation_kill_rate():
    killed = []
    for rule, source, severity, unit in MUTANTS:
        diags = validate(parse_passage(source))
        assert diag_triples(diags) == [(rule, severity, unit)], rule
        killed.append(rule)
    assert diag_triples(validate(minimal_wrapper_passage())) == [
        ("R12", "warning", "7")
    ]
    killed.append("R12")
    # Every registered rule has a mutant: a rule added without one fails here.
    assert sorted(killed) == sorted(r.id for r in list_rules())
    assert len(killed) == 15
    print(f"PASS mutation kill-rate: {len(killed)}/15 rules each killed by one mutant")


def test_round_trip_suite():
    for path in CORPUS:
        p = parse_passage(path.read_text())
        assert isomorphic(p, parse_passage(render(p, "left"))), path.name
        assert isomorphic(p, parse_passage(render(p, "right"))), path.name
        data = to_interchange(p)
        assert to_interchange(from_interchange(data)) == data, path.name
    print(
        f"PASS round-trip suite: {len(CORPUS)}/{len(CORPUS)} fixtures, "
        "both label sides and byte-identical interchange"
    )


@st.composite
def passage_pairs(draw):
    tokens = draw(token_streams())
    return draw(passages(tokens=tokens)), draw(passages(tokens=tokens))


def test_randomized_properties():
    cases = [0]
    common = settings(max_examples=220, deadline=None)

    @common
    @given(passages())
    def root_yield(p):
        cases[0] += 1
        assert yield_of(p, p.root) == frozenset(
            t.position for t in p.tokens if not t.is_punct
        )

    @common
    @given(passages())
    def acyclic(p):
        cases[0] += 1
        for uid in p.units:
            seen = set()
            cur = uid
            while cur != p.root:
                assert cur not in seen
                seen.add(cur)
                cur = p.primary_parent_edge(cur).parent

    @common
    @given(passages())
    def self_score(p):
        cases[0] += 1
        report = score(p, p)
        assert report.labeled_primary.f1 == 1.0
        assert report.labeled_remote.f1 == 1.0
        assert report.unlabeled_primary.f1 == 1.0
        assert report.unlabeled_remote.f1 == 1.0

    @common
    @given(passage_pairs())
    def labeled_bounded_by_unlabeled(pair):
        cases[0] += 1
        report = score(*pair)
        assert report.labeled_primary.matched <= report.unlabeled_primary.matched
        assert report.labeled_remote.matched <= report.unlabeled_remote.matched

    @common
    @given(st.lists(passages(), min_size=2, max_size=4), st.integers(1, 3))
    def stats_additive_over_splits(group, cut):
        cases[0] += 1
        cut = min(cut, len(group) - 1)
        total = stats(group[0])
        for p in group[1:]:
            total = total + stats(p)
        left = stats(group[0])
        for p in group[1:cut]:
            left = left + stats(p)
        right = stats(group[cut])
        for p in group[cut + 1:]:
            right = right + stats(p)
        assert left + right == total

    root_yield()
    acyclic()
    self_score()
    labeled_bounded_by_unlabeled()
    stats_additive_over_splits()

    assert cases[0] >= 1000
    print(f"PASS randomized properties: 5 invariants over {cases[0]} generated cases")


def test_notation_edge_cases():
    p = parse_passage((EDGE_DIR / "interleaved.txt").read_text())
    scene = p.units[p.units[p.root].outgoing[0].child]
    a_units = [e.child for e in scene.outgoing if "A" in e.categories]
    yields = sorted(tuple(sorted(yield_of(p, uid))) for uid in a_units)
    assert yields == [(0, 3), (1, 4)]

    dangling = "[H [A- John] [P slept] ]"
    with pytest.raises(DanglingContinuation) as err:
        parse_passage(dangling)
    assert err.value.position == dangling.encode("utf-8").index(b"A-")

    fixture = (EDGE_DIR / "dangling.txt").read_text()
    with pytest.raises(DanglingContinuation) as err:
        parse_passage(fixture)
    assert err.value.position == fixture.encode("utf-8").index(b"P-")
    print(
        "PASS notation edge cases: interleaved fragments yield {0,3}/{1,4}, "
        "dangling fragment rejected at its byte offset"
    )


def test_scorer_oracle_equivalence():
    checked = 0
    for name, gold_src, pred_src in PAIRS:
        gold = parse_passage(gold_src)
        pred = parse_passage(pred_src)
        report = score(gold, pred)
        gold_sigs = signatures(gold)
        pred_sigs = signatures(pred)
        for cs, labeled, remote in (
            (report.labeled_primary, True, False),
            (report.labeled_remote, True, True),
            (report.unlabeled_primary, False, False),
            (report.unlabeled_remote, False, True),
        ):
            g = class_keys(gold_sigs, labeled=labeled, remote=remote)
            q = class_keys(pred_sigs, labeled=labeled, remote=remote)
            assert cs.matched == max_matching(g, q), name
        checked += 1
    assert checked == 20
    print(
        f"PASS scorer oracle equivalence: greedy counts match optimal matching "
        f"on {checked}/20 pairs"
    )
