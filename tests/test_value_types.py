"""The contract of the immutable value objects and of the lexer's output.

These are pinned on literal examples so that a change to how the objects
are built (slots, a generated `__init__`) or to how the lexer scans
cannot change what callers see.
"""

import dataclasses

import pytest

from uccakit import CategorySet, Edge, EdgeSpec, Token, Unit, UnitSpec, lex
from uccakit.notation import NotationToken

A = CategorySet.of("A")

EXAMPLES = [
    (
        Token("John", 0),
        ("John", 0, False),
        "Token(text='John', position=0, is_punct=False)",
    ),
    (
        Edge("0", "1", A),
        ("0", "1", A, False),
        "Edge(parent='0', child='1', categories=CategorySet(labels=('A',)), remote=False)",
    ),
    (
        Unit("1", "terminal", frozenset({0})),
        ("1", "terminal", frozenset({0}), ()),
        "Unit(id='1', kind='terminal', tokens=frozenset({0}), outgoing=())",
    ),
    (
        UnitSpec("0", "internal"),
        ("0", "internal", ()),
        "UnitSpec(id='0', kind='internal', tokens=())",
    ),
    (
        EdgeSpec("0", "1", A, True),
        ("0", "1", A, True),
        "EdgeSpec(parent='0', child='1', categories=CategorySet(labels=('A',)), remote=True)",
    ),
    (
        NotationToken("word", "John", 3, 7),
        ("word", "John", 3, 7),
        "NotationToken(kind='word', text='John', start=3, end=7)",
    ),
    (
        CategorySet.of("A", "S"),
        (("S", "A"),),
        "CategorySet(labels=('S', 'A'))",
    ),
]
IDS = [type(obj).__name__ for obj, _, _ in EXAMPLES]


@pytest.mark.parametrize("obj, values, text", EXAMPLES, ids=IDS)
class TestValueObjects:
    def test_fields_cannot_be_set_or_deleted(self, obj, values, text):
        for f in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, f.name)
        assert tuple(getattr(obj, f.name) for f in dataclasses.fields(obj)) == values

    def test_equality_and_hash_follow_the_fields(self, obj, values, text):
        twin = type(obj)(*values)
        assert twin == obj and not twin != obj
        assert hash(twin) == hash(obj) == hash(values)
        if not isinstance(obj, CategorySet):
            other = type(obj)(*values[:-1], "other")
            assert other != obj
        assert obj != values

    def test_repr(self, obj, values, text):
        assert repr(obj) == text


@pytest.mark.parametrize("obj", [obj for obj, _, _ in EXAMPLES[:-1]], ids=IDS[:-1])
def test_slotted_without_instance_dict(obj):
    assert not hasattr(obj, "__dict__")
    assert type(obj).__slots__ == tuple(f.name for f in dataclasses.fields(obj))
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.extra = 1


def test_category_set_field_cannot_be_added():
    with pytest.raises(dataclasses.FrozenInstanceError):
        A.extra = 1


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
