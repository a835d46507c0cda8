import pytest

from uccakit import BASE_LABELS, SECONDARY_LABELS, CategorySet, InvalidCategory


def test_inventory_is_closed():
    assert sorted(BASE_LABELS) == [
        "A", "C", "D", "E", "F", "G", "H", "L", "N", "P", "Q", "R", "S", "T",
    ]
    assert sorted(SECONDARY_LABELS) == ["CMR", "UNA"]


def test_single_label_roundtrip():
    for label in BASE_LABELS:
        cs = CategorySet.of(label)
        assert cs.notation() == label
        assert label in cs


def test_order_insensitive_equality():
    assert CategorySet.of("G", "A") == CategorySet.of("A", "G")
    assert CategorySet.from_notation("A+S") == CategorySet.from_notation("S+A")


def test_combined_labels_use_canonical_order():
    # Combined labels as written in the guidelines: main relation first,
    # secondary CMR leading.
    assert CategorySet.of("A", "S").notation() == "S+A"
    assert CategorySet.of("A", "P").notation() == "P+A"
    assert CategorySet.of("A", "G").notation() == "G+A"
    assert CategorySet.of("P", "CMR").notation() == "CMR+P"
    assert CategorySet.of("UNA", "C").notation() == "C+UNA"


def test_duplicates_collapse():
    assert CategorySet.of("A", "A") == CategorySet.of("A")
    assert len(CategorySet.of("A", "A")) == 1


def test_unknown_label_rejected():
    with pytest.raises(InvalidCategory):
        CategorySet.of("X")
    with pytest.raises(InvalidCategory):
        CategorySet.from_notation("A+Z")


def test_empty_rejected():
    with pytest.raises(InvalidCategory):
        CategorySet.of()


def test_p_and_s_exclusive():
    with pytest.raises(InvalidCategory):
        CategorySet.of("P", "S")


def test_sole_secondary_rejected():
    with pytest.raises(InvalidCategory):
        CategorySet.of("UNA")


def test_base_projection():
    assert CategorySet.from_notation("CMR+P").base() == {"P"}
    assert CategorySet.from_notation("C+UNA").base() == {"C"}
    assert CategorySet.from_notation("G+A").base() == {"A", "G"}


def test_notation_roundtrip():
    for text in ["A", "S+A", "CMR+P", "G+A", "P+UNA"]:
        assert CategorySet.from_notation(text).notation() == text


def test_parser_stores_canonical_sets_only():
    from uccakit import categories, parse_passage

    found = []
    for group in ("[A+S mine]", "[S+A mine]", "[A+S mine UNA]"):
        p = parse_passage(f"[H {group} [D now]]")
        (edge,) = [e for e in p.units["1"].outgoing if e.child == "2"]
        found.append(edge.categories)
    assert found[0] == found[1] == CategorySet.of("S", "A")
    table = categories._CANONICAL_SETS
    assert found[0] is found[1] is table[("S", "A")] and ("A", "S") not in table
    assert found[2] is table[("S", "A", "UNA")]
    assert all(cats.labels == key for key, cats in table.items())


@pytest.mark.parametrize("text", ["PA", "SA", "A", ""])
def test_canonical_set_refuses_a_bare_string(text):
    # Read one character at a time, "PA" would be the shared P+A.
    from uccakit import categories

    categories.canonical_set(["P", "A"])
    with pytest.raises(InvalidCategory, match="not the string"):
        categories.canonical_set(text)
    assert text not in categories._CANONICAL_SETS
