import pathlib
import re

import pytest

from uccakit import (
    EdgeSpec,
    Passage,
    Token,
    UnitSpec,
    build_passage,
    list_rules,
    load_config,
    parse_config,
    parse_passage,
    validate,
)

from conftest import CORPUS, corpus_ids


def diag_triples(diags):
    return [(d.rule, d.severity, d.unit) for d in diags]


class TestRegistry:
    def test_rule_ids_and_order(self):
        ids = [r.id for r in list_rules()]
        assert ids == [
            "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10",
            "R11", "R12", "R13", "W1", "W2",
        ]

    def test_default_severities(self):
        by_id = {r.id: r.severity for r in list_rules()}
        warnings = {rule for rule, sev in by_id.items() if sev == "warning"}
        assert warnings == {"R7", "R12", "W1", "W2"}
        assert all(sev in ("error", "warning") for sev in by_id.values())

    def test_rules_are_documented(self):
        for rule in list_rules():
            assert rule.description
            assert rule.guideline_anchor
            assert rule.id not in rule.guideline_anchor

    def test_registry_copy_is_private(self):
        list_rules().clear()
        assert len(list_rules()) == 15

    def test_readme_table_matches_registry(self):
        # The README's validator table repeats the registry by hand.
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| ([RW]\d+) +\| (\w+) +\|", readme, flags=re.M)
        assert rows == [(r.id, r.severity) for r in list_rules()]


@pytest.mark.parametrize("path", CORPUS, ids=corpus_ids())
def test_corpus_is_clean(path):
    assert validate(parse_passage(path.read_text())) == []


# Each source violates exactly one rule; the expected unit id is the
# violating unit after renumbering.
MUTANTS = [
    ("R1", "[H [A John] [P slept] ] [A Mary]", "error", "4"),
    ("R2", "[H [A John] [P ran] [P fell] ]", "error", "1"),
    ("R3", "[H [A [E big] [E red] ] [P barked] ]", "error", "2"),
    ("R4", "[H [A John] [P spoke] [L and] ]", "error", "4"),
    ("R5", "[H [A John] [P ran] [A [F the] [C race] ] ] [H [P won] (the F+A) ]", "error", "5"),
    ("R6", "[H [P slept] [A [F the] ] ]", "error", "3"),
    ("R7", "[H [P ate] [A [D very] [C apples] ] ]", "warning", "4"),
    ("R8", "[H [A John] [P sang] [CMR+A danced] ]", "error", "4"),
    ("R9", "[H [A [C the] [C ball] UNA ] [P flew] ]", "error", "2"),
    ("R10", "[H [A John] slept ]", "error", "0"),
    ("R11", "[H [A [C apples] [N and] [E fresh] [C pears] ] [P rot] ]", "error", "2"),
    ("R13", "[H [A John] [P spoke] [D [P shouting] ] ]", "error", "4"),
    ("W1", "[H [H [A John] [P sang] ] [L and] [H [A Mary] [P danced] ] ]", "warning", "1"),
    ("W2", "[H [A John] [P slept] (IMP F) ]", "warning", "4"),
]

MUTANT_SOURCES = {rule: source for rule, source, _, _ in MUTANTS}

# Each source sits in an exemption of one rule, named first, and gives
# exactly the diagnostics listed, as (rule, severity, unit, message).
EXEMPTIONS = [
    # R3 spares an unanalyzable unit; R9 reports its structure instead.
    ("R3-unanalyzable", "[H [P saw] [A [E big] [E red] UNA]]",
     [("R9", "error", "3", "unanalyzable unit has children: 'big red'")]),
    ("R4-top-level", "[L and]", []),
    # R5 spares the root as the parent of a remote edge; R1 does not.
    ("R5-root", "[H [A John] [P ran]] (John A)",
     [("R1", "error", "2", "top-level unit carries A: 'John'")]),
    ("R7-center-coordination", "[H [P ran] [A [C [D very] [C fast]]]]", []),
    ("R8-state", "[H [A John] [CMR+S tall]]", []),
    ("W2-function-and-una", "[H [A John] [P ran]] [H [P slept] (John F+UNA)]",
     [("R5", "error", "2", "function word attached as remote: 'John'"),
      ("W2", "warning", "2", "added edge carries only F+UNA: 'John'")]),
]


def minimal_wrapper_passage():
    """A remote pointing at a wrapper unit whose only child covers the
    same tokens.  The notation resolves references to the minimal unit
    on its own, so this shape can only be built directly."""
    return build_passage(
        [Token("John", 0), Token("got", 1), Token("home", 2), Token("and", 3), Token("slept", 4)],
        [
            UnitSpec("root", "internal"),
            UnitSpec("h1", "internal"),
            UnitSpec("wrap", "internal"),
            UnitSpec("john", "terminal", (0,)),
            UnitSpec("got", "terminal", (1,)),
            UnitSpec("home", "terminal", (2,)),
            UnitSpec("and", "terminal", (3,)),
            UnitSpec("h2", "internal"),
            UnitSpec("slept", "terminal", (4,)),
        ],
        [
            EdgeSpec("root", "h1", "H"),
            EdgeSpec("root", "and", "L"),
            EdgeSpec("root", "h2", "H"),
            EdgeSpec("h1", "wrap", "A"),
            EdgeSpec("wrap", "john", "C"),
            EdgeSpec("h1", "got", "P"),
            EdgeSpec("h1", "home", "A"),
            EdgeSpec("h2", "slept", "P"),
            EdgeSpec("h2", "wrap", "A", remote=True),
        ],
    )


def implicit_target_passage():
    """A remote pointing at an internal unit whose only child is implicit,
    so that target and child both cover no token."""
    return build_passage(
        [Token("John", 0), Token("left", 1), Token("Mary", 2), Token("cried", 3)],
        [
            UnitSpec("root", "internal"),
            UnitSpec("h1", "internal"),
            UnitSpec("john", "terminal", (0,)),
            UnitSpec("left", "terminal", (1,)),
            UnitSpec("x", "internal"),
            UnitSpec("imp", "implicit"),
            UnitSpec("h2", "internal"),
            UnitSpec("mary", "terminal", (2,)),
            UnitSpec("cried", "terminal", (3,)),
        ],
        [
            EdgeSpec("root", "h1", "H"),
            EdgeSpec("h1", "john", "A"),
            EdgeSpec("h1", "left", "P"),
            EdgeSpec("h1", "x", "A"),
            EdgeSpec("x", "imp", "C"),
            EdgeSpec("root", "h2", "H"),
            EdgeSpec("h2", "mary", "A"),
            EdgeSpec("h2", "cried", "P"),
            EdgeSpec("h2", "x", "A", remote=True),
        ],
    )


class TestMutants:
    @pytest.mark.parametrize(
        "rule,source,severity,unit", MUTANTS, ids=[m[0] for m in MUTANTS]
    )
    def test_single_violation(self, rule, source, severity, unit):
        diags = validate(parse_passage(source))
        assert diag_triples(diags) == [(rule, severity, unit)]

    def test_r12_remote_to_wrapper(self):
        diags = validate(minimal_wrapper_passage())
        assert diag_triples(diags) == [("R12", "warning", "7")]

    @pytest.mark.parametrize(
        "source,expected", [e[1:] for e in EXEMPTIONS], ids=[e[0] for e in EXEMPTIONS]
    )
    def test_exemption(self, source, expected):
        diags = validate(parse_passage(source))
        assert [(d.rule, d.severity, d.unit, d.message) for d in diags] == expected

    def test_r12_remote_to_unit_of_no_tokens(self):
        # A zero-width target is not a wrapper, though its child is as wide.
        assert validate(implicit_target_passage()) == []

    def test_r6_all_children_remote(self):
        source = "[H [A John] [P slept] ] [H [P waved] [A (John A)] ]"
        diags = validate(parse_passage(source))
        assert diag_triples(diags) == [("R6", "error", "6")]

    def test_r5_function_unit_with_remote_child(self):
        p = build_passage(
            [Token("to", 0), Token("go", 1), Token("home", 2)],
            [
                UnitSpec("root", "internal"),
                UnitSpec("h", "internal"),
                UnitSpec("f", "internal"),
                UnitSpec("to", "terminal", (0,)),
                UnitSpec("go", "terminal", (1,)),
                UnitSpec("home", "terminal", (2,)),
            ],
            [
                EdgeSpec("root", "h", "H"),
                EdgeSpec("h", "f", "F"),
                EdgeSpec("f", "to", "C"),
                EdgeSpec("h", "go", "P"),
                EdgeSpec("h", "home", "A"),
                EdgeSpec("f", "home", "A", remote=True),
            ],
        )
        rules = [d.rule for d in validate(p)]
        assert "R5" in rules

    def test_one_rules_diagnostics_on_one_unit_keep_their_order(self):
        # Unit f is reached by a primary and a remote F edge and has a remote
        # child, so R5 reports it twice: as a remote function word first, then
        # as a function unit with remote children.
        p = build_passage(
            [Token("to", 0), Token("go", 1), Token("home", 2), Token("now", 3)],
            [
                UnitSpec("root", "internal"),
                UnitSpec("h", "internal"),
                UnitSpec("f", "internal"),
                UnitSpec("to", "terminal", (0,)),
                UnitSpec("go", "terminal", (1,)),
                UnitSpec("home", "terminal", (2,)),
                UnitSpec("h2", "internal"),
                UnitSpec("now", "terminal", (3,)),
            ],
            [
                EdgeSpec("root", "h", "H"),
                EdgeSpec("h", "f", "F"),
                EdgeSpec("f", "to", "C"),
                EdgeSpec("h", "go", "P"),
                EdgeSpec("h", "home", "A"),
                EdgeSpec("f", "home", "A", remote=True),
                EdgeSpec("root", "h2", "H"),
                EdgeSpec("h2", "now", "P"),
                EdgeSpec("h2", "f", "F", remote=True),
            ],
        )
        assert [(d.rule, d.unit, d.message) for d in validate(p)] == [
            ("R5", "2", "function word attached as remote: 'to'"),
            ("R5", "2", "function unit has remote children: 'to'"),
            ("W2", "2", "added edge carries only F: 'to'"),
            ("R12", "6", "remote edge targets a unit wrapping an equally wide child: 'now'"),
        ]


class TestConfig:
    def test_parse_basic(self):
        text = "R1 = off\nR7=error\n\n# comment\nW2 = warning  # trailing\n"
        assert parse_config(text) == {"R1": "off", "R7": "error", "W2": "warning"}

    def test_unknown_rule(self):
        with pytest.raises(ValueError) as err:
            parse_config("R99 = off")
        assert "line 1" in str(err.value)

    def test_bad_severity(self):
        with pytest.raises(ValueError) as err:
            parse_config("R1 = off\nR2 = silent")
        assert "line 2" in str(err.value)

    def test_missing_equals(self):
        with pytest.raises(ValueError) as err:
            parse_config("R1 off")
        assert "line 1" in str(err.value)

    def test_load_config(self, tmp_path):
        path = tmp_path / "rules.cfg"
        path.write_text("R10 = warning\n", encoding="utf-8")
        assert load_config(path) == {"R10": "warning"}


class TestOverrides:
    def multi_violation(self):
        return parse_passage("[H [P ran] [P fell] ] [A Mary] extra")

    def test_downgrade_keeps_violations(self):
        p = self.multi_violation()
        default = validate(p)
        downgraded = validate(p, {"R1": "warning", "R2": "warning", "R10": "warning"})
        assert [(d.rule, d.unit) for d in default] == [
            (d.rule, d.unit) for d in downgraded
        ]
        assert all(d.severity == "warning" for d in downgraded)

    def test_off_drops_only_that_rule(self):
        p = self.multi_violation()
        default = {(d.rule, d.unit) for d in validate(p)}
        remaining = {(d.rule, d.unit) for d in validate(p, {"R1": "off"})}
        assert remaining == {pair for pair in default if pair[0] != "R1"}

    def test_upgrade_warning_to_error(self):
        p = parse_passage(MUTANT_SOURCES["W2"])
        (diag,) = validate(p, {"W2": "error"})
        assert diag.rule == "W2" and diag.severity == "error"

    def test_override_ignores_unaffected_rules(self):
        p = parse_passage(MUTANT_SOURCES["R2"])
        assert validate(p, {"R1": "off"}) == validate(p)


class TestReporting:
    def test_sorted_by_unit_then_rule(self):
        p = parse_passage("[H [P ran] [P fell] ] [A Mary] extra")
        assert [(d.unit, d.rule) for d in validate(p)] == [
            ("0", "R10"),
            ("1", "R2"),
            ("4", "R1"),
        ]

    def test_same_unit_follows_registry_order(self):
        p = parse_passage("[H [P ran] [A [N and] [E big] ] ]")
        assert [(d.unit, d.rule) for d in validate(p)] == [("3", "R3"), ("3", "R11")]

    def test_unit_ids_sort_naturally(self):
        words = [Token(f"w{i}", i) for i in range(10)]
        units = [UnitSpec("root", "internal")] + [
            UnitSpec(f"t{i}", "terminal", (i,)) for i in range(10)
        ]
        edges = [EdgeSpec("root", f"t{i}", "A") for i in range(10)]
        p = build_passage(words, units, edges)
        assert [d.unit for d in validate(p)] == [str(i) for i in range(1, 11)]

    def test_message_carries_excerpt(self):
        p = parse_passage(MUTANT_SOURCES["R2"])
        (diag,) = validate(p)
        assert diag.message.endswith(": 'John ran fell'")

    def test_excerpt_truncated(self):
        source = (
            "[H [A [E the] [C philosopher] ] [P contemplated] [P procrastinated] ]"
        )
        (diag,) = validate(parse_passage(source))
        text = "the philosopher contemplated procrastinated"
        assert diag.message.endswith(f": '{text[:40]}'")

    @pytest.mark.parametrize("config", [{}, {"R1": "off"}, {"R10": "warning"}])
    def test_one_excerpt_per_diagnostic_unit(self, monkeypatch, config):
        # Half the tokens left outside every unit: one R10 diagnostic each,
        # all on the root, beside the unit-level rules' diagnostics.
        words = [Token(f"w{i}", i) for i in range(40)]
        units = [UnitSpec("r", "internal"), UnitSpec("s", "internal")]
        units += [UnitSpec(f"t{i}", "terminal", (i,)) for i in range(0, 40, 2)]
        edges = [EdgeSpec("r", "s", "H"), EdgeSpec("s", "t0", "P"), EdgeSpec("s", "t2", "P")]
        edges += [EdgeSpec("r", f"t{i}", "A") for i in range(4, 40, 2)]
        p = build_passage(words, units, edges, require_coverage=False)
        expected = validate(p, config)
        real, read = Passage.text_of, []

        def counting(passage, unit_id, limit=None):
            read.append(unit_id)
            return real(passage, unit_id, limit)

        monkeypatch.setattr(Passage, "text_of", counting)
        diags = validate(p, config)
        assert diags == expected
        assert sum(d.rule == "R10" for d in diags) == 20
        assert sorted(read) == sorted({d.unit for d in diags})

    def test_r10_names_token_and_position(self):
        (diag,) = validate(parse_passage(MUTANT_SOURCES["R10"]))
        assert "'slept'" in diag.message and "position 1" in diag.message

    def test_repeat_runs_identical(self):
        p = parse_passage("[H [P ran] [P fell] ] [A Mary] extra")
        assert validate(p) == validate(p)

    def test_empty_passage_is_clean(self):
        assert validate(build_passage([], [UnitSpec("r", "internal")], [])) == []
