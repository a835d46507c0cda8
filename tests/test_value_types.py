"""The contract of the immutable value objects and of the lexer's output.

These are pinned on literal examples so that a change to how the objects
are built (slots, a generated `__init__`) or to how the lexer scans
cannot change what callers see.  Each example names its fields in order,
so the field order is part of what is pinned.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from uccakit import (
    CategoryCounts,
    CategorySet,
    ClassScores,
    Diagnostic,
    Edge,
    EdgeSignature,
    EdgeSpec,
    InvalidCategory,
    RuleInfo,
    ScoreReport,
    Token,
    Unit,
    UnitSpec,
    lex,
)
from uccakit.notation import NotationToken

MESSAGE = "function word attached as remote: 'to'"
IDS = [
    "Token", "Edge", "Unit", "UnitSpec", "EdgeSpec", "NotationToken", "EdgeSignature",
    "ClassScores", "Diagnostic", "RuleInfo", "CategorySet",
]


def examples():
    """Per record type of IDS: (record, its field names in order, its field
    values, its repr).  Made inside each test, so that a fault in making
    records fails the tests instead of stopping this file's collection."""
    a = CategorySet.of("A")
    return {
        "Token": (
            Token("John", 0),
            ("text", "position", "is_punct"),
            ("John", 0, False),
            "Token(text='John', position=0, is_punct=False)",
        ),
        "Edge": (
            Edge("0", "1", a),
            ("parent", "child", "categories", "remote"),
            ("0", "1", a, False),
            "Edge(parent='0', child='1', categories=CategorySet(labels=('A',)), remote=False)",
        ),
        "Unit": (
            Unit("1", "terminal", frozenset({0})),
            ("id", "kind", "tokens", "outgoing"),
            ("1", "terminal", frozenset({0}), ()),
            "Unit(id='1', kind='terminal', tokens=frozenset({0}), outgoing=())",
        ),
        "UnitSpec": (
            UnitSpec("0", "internal"),
            ("id", "kind", "tokens"),
            ("0", "internal", ()),
            "UnitSpec(id='0', kind='internal', tokens=())",
        ),
        "EdgeSpec": (
            EdgeSpec("0", "1", a, True),
            ("parent", "child", "categories", "remote"),
            ("0", "1", a, True),
            "EdgeSpec(parent='0', child='1', categories=CategorySet(labels=('A',)), remote=True)",
        ),
        "NotationToken": (
            NotationToken("word", "John", 3, 7),
            ("kind", "text", "start", "end"),
            ("word", "John", 3, 7),
            "NotationToken(kind='word', text='John', start=3, end=7)",
        ),
        "EdgeSignature": (
            EdgeSignature((0, 2), ("S", "A"), False),
            ("tokens", "categories", "remote"),
            ((0, 2), ("S", "A"), False),
            "EdgeSignature(tokens=(0, 2), categories=('S', 'A'), remote=False)",
        ),
        "ClassScores": (
            ClassScores(1, 2, 3),
            ("matched", "gold", "predicted"),
            (1, 2, 3),
            "ClassScores(matched=1, gold=2, predicted=3)",
        ),
        "Diagnostic": (
            Diagnostic("R5", "error", "2", MESSAGE),
            ("rule", "severity", "unit", "message"),
            ("R5", "error", "2", MESSAGE),
            "Diagnostic(rule='R5', severity='error', unit='2', "
            "message=\"function word attached as remote: 'to'\")",
        ),
        "RuleInfo": (
            RuleInfo("R1", "error", "one root", "2.1"),
            ("id", "severity", "description", "guideline_anchor"),
            ("R1", "error", "one root", "2.1"),
            "RuleInfo(id='R1', severity='error', description='one root', guideline_anchor='2.1')",
        ),
        "CategorySet": (
            CategorySet.of("A", "S"),
            ("labels",),
            (("S", "A"),),
            "CategorySet(labels=('S', 'A'))",
        ),
    }


def test_examples_cover_ids():
    assert list(examples()) == IDS


@pytest.mark.parametrize("name", IDS)
class TestValueObjects:
    def test_fields_cannot_be_set_or_deleted(self, name):
        obj, names, values, text = examples()[name]
        assert type(obj).__match_args__ == names
        for field in names:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, field, None)
            with pytest.raises(FrozenInstanceError):
                delattr(obj, field)
        assert tuple(getattr(obj, field) for field in names) == values

    def test_equality_and_hash_follow_the_fields(self, name):
        obj, names, values, text = examples()[name]
        twin = type(obj)(*values)
        assert twin == obj and not twin != obj
        assert hash(twin) == hash(obj) == hash(values)
        if not isinstance(obj, CategorySet):
            other = type(obj)(*values[:-1], "other")
            assert other != obj
        assert obj != values

    def test_repr(self, name):
        obj, names, values, text = examples()[name]
        assert repr(obj) == text


@pytest.mark.parametrize("name", IDS)
def test_slotted_without_instance_dict(name):
    obj, names, _, _ = examples()[name]
    assert not hasattr(obj, "__dict__")
    assert type(obj).__slots__ == names
    with pytest.raises(FrozenInstanceError):
        obj.extra = 1


def test_category_set_field_cannot_be_added():
    a = CategorySet.of("A")
    with pytest.raises(FrozenInstanceError):
        a.extra = 1


@pytest.mark.parametrize("text", ["PA", "UNA", "A", ""])
def test_category_set_refuses_a_bare_string(text):
    # A string would be read one character at a time: "PA" as P+A.
    with pytest.raises(InvalidCategory, match="CategorySet.of"):
        CategorySet(text)


REPORT_FIELDS = (
    "labeled_primary", "labeled_remote", "unlabeled_primary", "unlabeled_remote", "per_category",
)
COUNTS_FIELDS = (
    "categories", "edges", "scene_units", "remote_edges", "implicit_units", "una_units", "tokens",
)


def counts():
    return CategoryCounts({"A": 2, "P": 1}, 3, 1, 0, 0, 0, 4)


def score_report():
    scores = ClassScores(1, 2, 3)
    none = ClassScores(0, 0, 0)
    return ScoreReport(scores, none, scores, none, {"A": scores})


def test_score_report_is_frozen_equal_by_fields_and_unhashable():
    report, scores, none = score_report(), ClassScores(1, 2, 3), ClassScores(0, 0, 0)
    assert type(report).__match_args__ == REPORT_FIELDS
    assert repr(report) == (
        "ScoreReport(labeled_primary=ClassScores(matched=1, gold=2, predicted=3), "
        "labeled_remote=ClassScores(matched=0, gold=0, predicted=0), "
        "unlabeled_primary=ClassScores(matched=1, gold=2, predicted=3), "
        "unlabeled_remote=ClassScores(matched=0, gold=0, predicted=0), "
        "per_category={'A': ClassScores(matched=1, gold=2, predicted=3)})"
    )
    for name in REPORT_FIELDS:
        with pytest.raises(FrozenInstanceError):
            setattr(report, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(report, name)
    assert report == ScoreReport(scores, none, scores, none, {"A": ClassScores(1, 2, 3)})
    assert report != ScoreReport(scores, none, scores, none, {"A": none})
    assert report != ScoreReport(scores, none, scores, scores, {"A": scores})
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(report)


def test_category_counts_are_mutable_equal_by_fields_and_unhashable():
    c = counts()
    assert type(c).__match_args__ == COUNTS_FIELDS
    assert repr(c) == (
        "CategoryCounts(categories={'A': 2, 'P': 1}, edges=3, scene_units=1, "
        "remote_edges=0, implicit_units=0, una_units=0, tokens=4)"
    )
    assert c == counts() and not c != counts()
    assert c != CategoryCounts({"A": 2, "P": 1}, 3, 1, 0, 0, 0, 5)
    assert c != tuple(getattr(c, name) for name in COUNTS_FIELDS)
    with pytest.raises(TypeError, match="unhashable type: 'CategoryCounts'"):
        hash(c)
    c.edges += 1
    c.categories["D"] = 1
    assert (c.edges, c.categories) == (4, {"A": 2, "P": 1, "D": 1})
    assert CategoryCounts() == CategoryCounts({}, 0, 0, 0, 0, 0, 0)
    fresh = CategoryCounts()
    fresh.categories["A"] = 1
    assert CategoryCounts().categories == {}


def test_category_counts_fields_can_be_deleted():
    c = counts()
    del c.edges
    with pytest.raises(AttributeError):
        c.edges
    assert c.tokens == 4


@pytest.mark.parametrize("other", [1, None, {"edges": 1}], ids=["int", "None", "dict"])
def test_category_counts_add_only_category_counts(other):
    with pytest.raises(TypeError, match="unsupported operand"):
        counts() + other


RECORD_IDS = IDS + ["ScoreReport", "CategoryCounts"]


def record(name):
    made = {key: example[0] for key, example in examples().items()}
    return {**made, "ScoreReport": score_report(), "CategoryCounts": counts()}[name]


@pytest.mark.parametrize("name", RECORD_IDS)
@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL], ids=["p0", "highest"])
def test_pickle_round_trip(name, protocol):
    obj = record(name)
    back = pickle.loads(pickle.dumps(obj, protocol))
    assert type(back) is type(obj)
    assert back == obj and repr(back) == repr(obj)


@pytest.mark.parametrize("name", RECORD_IDS)
def test_copy_and_deepcopy(name):
    obj = record(name)
    shallow, deep = copy.copy(obj), copy.deepcopy(obj)
    assert type(shallow) is type(deep) is type(obj)
    assert shallow == obj and deep == obj
    assert repr(shallow) == repr(deep) == repr(obj)


def test_category_counts_copies_share_only_when_shallow():
    c = counts()
    assert copy.copy(c).categories is c.categories
    assert copy.deepcopy(c).categories is not c.categories


def test_lex_tokens_and_byte_offsets():
    # Multibyte words (2-, 3- and 4-byte UTF-8), U+00A0, U+3000 and
    # U+001C as separators, and a CRLF line end.
    source = (
        "[A naïve café]　[P- 日本語]\x1c[-P x\U0001f600y]\r\n"
        "(IMP A) (naïve café D)"
    )
    assert [(t.kind, t.text, t.start, t.end) for t in lex(source)] == [
        ("lbracket", "[", 0, 1),
        ("label", "A", 1, 2),
        ("word", "naïve", 3, 9),
        ("word", "café", 11, 16),
        ("rbracket", "]", 16, 17),
        ("lbracket", "[", 20, 21),
        ("label", "P-", 21, 23),
        ("word", "日本語", 24, 33),
        ("rbracket", "]", 33, 34),
        ("lbracket", "[", 35, 36),
        ("label", "-P", 36, 38),
        ("word", "x\U0001f600y", 39, 45),
        ("rbracket", "]", 45, 46),
        ("lparen", "(", 48, 49),
        ("word", "IMP", 49, 52),
        ("label", "A", 53, 54),
        ("rparen", ")", 54, 55),
        ("lparen", "(", 56, 57),
        ("word", "naïve", 57, 63),
        ("word", "café", 64, 69),
        ("label", "D", 70, 71),
        ("rparen", ")", 71, 72),
    ]
    raw = source.encode("utf-8")
    for tok in lex(source):
        assert raw[tok.start:tok.end].decode("utf-8") == tok.text


def test_lex_ascii_offsets_and_empty_source():
    assert [(t.text, t.start, t.end) for t in lex(" \t[A  ab]\n")] == [
        ("[", 2, 3),
        ("A", 3, 4),
        ("ab", 6, 8),
        ("]", 8, 9),
    ]
    assert lex("") == [] and lex(" \r\n ") == []
