"""Source mutants that the tests must kill.

Each entry of MUTANTS is one small change to a module of src/uccakit: an
exact snippet, which must occur there exactly once, and its replacement,
with the tests expected to fail under it.  For each entry the runner copies
src/ to a temporary directory, applies the change there and runs the named
tests against the copy, with hypothesis seeded.  It prints one line per
entry, "killed", "survived" or "snippet not found" (the code has moved: cut
the entry again, do not drop it), and exits non-zero unless every entry is
killed.  Before the mutants, the named tests must pass on an unchanged copy.

    python tests/mutants.py [NAME ...]
    python tests/mutants.py --all [NAME ...]

With --all the runner also runs the whole suite against each mutant's copy,
after its named tests, and adds to the entry's line how many tests fail there
that do not fail on the unchanged copy.  That takes about a minute a mutant.

The tests are run from this checkout with the temporary directory as the
working directory, without pytest's cache and without writing bytecode, so
that hypothesis's example database and every other file a run writes stay
out of the checkout.  Only the standard library is used besides pytest; the
name keeps pytest from collecting this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/uccakit
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout


EXEMPTION = "tests/test_validation.py::TestMutants::test_exemption"
VALUES = "tests/test_value_types.py"

MUTANTS = [
    # Each validator rule's exemption.
    Mutant("r3-unanalyzable-not-exempt", "validation.py",
           "uid in self.scenes or uid in self.una:", "uid in self.scenes:",
           (f"{EXEMPTION}[R3-unanalyzable]",)),
    Mutant("r4-root-not-exempt", "validation.py",
           '"H" not in present and uid != self.root:', '"H" not in present:',
           (f"{EXEMPTION}[R4-top-level]",)),
    Mutant("r5-root-not-exempt", "validation.py",
           "{e.parent for e in remotes} - {self.root}", "{e.parent for e in remotes}",
           (f"{EXEMPTION}[R5-root]",)),
    Mutant("r7-center-coordination-not-exempt", "validation.py",
           'categories.labels:\n                continue\n',
           'categories.labels:\n                pass\n',
           (f"{EXEMPTION}[R7-center-coordination]",)),
    Mutant("r8-state-not-exempt", "validation.py",
           '"P" not in ls and "S" not in ls:', '"P" not in ls:',
           (f"{EXEMPTION}[R8-state]",)),
    Mutant("r12-zero-width-target", "validation.py",
           "target.kind == INTERNAL and width and any(", "target.kind == INTERNAL and any(",
           ("tests/test_validation.py::TestMutants::test_r12_remote_to_unit_of_no_tokens",)),
    Mutant("w2-una-not-exempt", "validation.py",
           'label in ("F", "UNA")', 'label in ("F",)',
           (f"{EXEMPTION}[W2-function-and-una]",)),
    # The checker's ids, made per call.
    Mutant("numerals-kept-between-builds", "core.py",
           "numbered = all(map(eq, ids, map(str, range(n))))",
           "numbered = all(map(eq, ids, _build.__dict__.setdefault(n, list(map(str, range(n))))))",
           ("tests/test_interchange.py::test_loading_retains_nothing",)),
    Mutant("lex-unpaused", "notation.py",
           "@_gc_paused\ndef lex(", "def lex(",
           ("tests/test_notation.py::TestCollectorPause",)),
    Mutant("json-error-context-dropped", "interchange.py",
           'raise MalformedDocument(f"not valid JSON: {exc}")',
           'raise MalformedDocument(f"not valid JSON: {exc}") from None',
           ("tests/test_interchange.py::TestReaderMessages::test_error_keeps_its_context",)),
    # The checker's fault order and cycle search.
    Mutant("duplicate-remote-raised-before-dangling-edges", "core.py",
           'bad_remote = f"duplicate remote edge {parent!r} -> {child!r}"',
           'raise InvalidRemote(f"duplicate remote edge {parent!r} -> {child!r}")',
           ("tests/test_core.py::test_first_fault_in_check_order",)),
    Mutant("remote-pairs-left-in-input-indices", "core.py",
           "remotes = [(int(rename[ids[p]]), int(rename[ids[c]])) for p, c in remotes]",
           "remotes = list(remotes)",
           ("tests/test_core.py::test_off_order_tables_decide_cycles_in_preorder_ids",)),
    Mutant("remote-range-end-exclusive", "core.py",
           "alive[j] <= hi:", "alive[j] < hi:",
           ("tests/test_core.py::test_remote_cycle_through_primary_edges",)),
    Mutant("subtree-end-one-late", "core.py",
           "end[i] = i\n", "end[i] = i + 1\n",
           ("tests/test_core.py::test_last_edge_remote_past_the_subtree",)),
    Mutant("json-nesting-uncaught", "interchange.py",
           '    except RecursionError:\n'
           '        raise MalformedDocument("not valid JSON: nested too deeply")\n',
           "",
           ("tests/test_interchange.py::TestRejects::test_too_deeply_nested_json",)),
    # Readers.
    Mutant("render-unpaused", "notation.py",
           "@_gc_paused\ndef render(", "def render(",
           ("tests/test_notation.py::TestCollectorPause",)),
    Mutant("render-ambiguity-before-empty-text", "notation.py",
           "                if not text:\n",
           "                if len(_minimal_readers(readers, text, uid, parent)) > 1:\n"
           "                    raise RenderError('ambiguous')\n"
           "                if not text:\n",
           ("tests/test_notation.py::TestRender::test_first_fault_wins",)),
    # Remote text resolves through an index of the named texts only, and a
    # unit whose span holds no other word is one fragment.
    Mutant("reader-index-first-word-only", "notation.py",
           "        words = firsts.get(len(extent))\n"
           "        if words and texts[min(extent)] in words:\n",
           "        words = set().union(*firsts.values())\n"
           "        if extent and texts[min(extent)] in words:\n",
           ("tests/test_notation.py::TestReaderIndex::test_index_holds_only_the_named_texts",)),
    Mutant("fragment-span-one-word-short", "notation.py",
           "if words_before[last + 1] - words_before[first] == len(",
           "if words_before[last] - words_before[first] == len(",
           ("tests/test_properties.py::test_fragments_are_the_runs_of_each_extent",)),
    # The process's label table: bounded, keyed by the whole label text.
    Mutant("label-table-unbounded", "notation.py",
           "        if m.group(3) is None and m.group(2) == cats.notation():\n"
           "            _LABELS[tok.text] = label\n",
           "        _LABELS[tok.text] = label\n",
           ("tests/test_notation.py::test_label_table_stays_bounded",)),
    Mutant("label-table-keyed-by-categories", "notation.py",
           "_LABELS[tok.text] = label", "_LABELS[m.group(2)] = label",
           ("tests/test_notation.py::TestNonContiguity",)),
    Mutant("terminal-positions-keep-punctuation", "notation.py",
           " for t in node.words if not punct[t.text]])", " for t in node.words])",
           ("tests/test_notation.py::TestParseBasics::test_punctuation_inside_a_terminal_unowned",
            "tests/test_notation.py::TestParseBasics::test_punctuation_only_unit_rejected")),
    Mutant("score-labeled-match-is-gold-count", "scoring.py",
           "tally[key[1:]][0] += g if g < p else p", "tally[key[1:]][0] += g",
           ("tests/test_scoring.py::test_greedy_counts_equal_optimal_matching",)),
    # The surrogate check only where an escape can be; spans as extent sets,
    # sorted where they are shown.
    Mutant("surrogate-check-skipped-for-bytes", "interchange.py",
           'if source is data or "\\\\" in source:', "if source is data:",
           ("tests/test_interchange.py::TestLoneSurrogates::test_escape_rejected",)),
    Mutant("score-span-by-width", "scoring.py",
           "keys.append((extent, ", "keys.append((len(extent), ",
           ("tests/test_scoring.py::test_greedy_counts_equal_optimal_matching",
            "tests/test_scoring.py::TestConventions::test_spans_match_by_position_not_width")),
    Mutant("score-span-by-size", "scoring.py",
           "keys.append((extent, ", "keys.append((frozenset({len(extent)}), ",
           ("tests/test_scoring.py::test_greedy_counts_equal_optimal_matching",
            "tests/test_scoring.py::TestConventions::test_spans_match_by_position_not_width")),
    Mutant("signatures-unsorted", "scoring.py",
           "EdgeSignature(tuple(sorted(span)), ", "EdgeSignature(tuple(span), ",
           ("tests/test_scoring.py::TestSignatures::test_discontiguous_span_in_position_order",)),
    Mutant("shape-first-unsorted", "core.py",
           "min(tokens) if tokens", "next(iter(tokens)) if tokens",
           ("tests/test_core.py::test_isomorphic_orders_children_by_least_position",)),
    # Records: every one from `value_type`, `CategoryCounts` mutable.
    Mutant("value-type-frozen-over-class-methods", "categories.py",
           "    body.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)\n"
           "    skip = (*names, \"__dict__\", \"__weakref__\")\n"
           "    body.update((k, v) for k, v in cls.__dict__.items() if k not in skip)\n",
           "    skip = (*names, \"__dict__\", \"__weakref__\")\n"
           "    body.update((k, v) for k, v in cls.__dict__.items() if k not in skip)\n"
           "    body.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)\n",
           (f"{VALUES}::test_category_counts_are_mutable_equal_by_fields_and_unhashable",)),
    Mutant("counts-hashed-by-fields", "core.py",
           "    __hash__ = None\n    __setattr__", "    __setattr__",
           (f"{VALUES}::test_category_counts_are_mutable_equal_by_fields_and_unhashable",)),
    Mutant("counts-fields-not-deletable", "core.py",
           "    __delattr__ = object.__delattr__\n", "",
           (f"{VALUES}::test_category_counts_fields_can_be_deleted",)),
    Mutant("counts-add-any-operand", "core.py",
           "        if other.__class__ is not self.__class__:\n            return NotImplemented\n",
           "",
           (f"{VALUES}::test_category_counts_add_only_category_counts",)),
    Mutant("stats-scene-needs-two-main-relations", "core.py",
           "INTERNAL and main_relations(unit):", "INTERNAL and main_relations(unit) > 1:",
           ("tests/test_core.py::test_stats_apa_counts",)),
    # One representation at a time: each reader and writer frees one before
    # it builds the next, and a loaded passage holds one string per unit id.
    Mutant("reader-keeps-its-json-tree", "interchange.py",
           "_tables(_decoded(data))", "_tables(doc := _decoded(data))",
           ("tests/test_interchange.py::test_reader_frees_text_and_tree_before_building",)),
    Mutant("writer-keeps-edge-records", "interchange.py",
           "edge_array = _array([", "edge_array = _array(edge_records := [",
           ("tests/test_interchange.py::test_writer_joins_each_table_as_it_goes",)),
    Mutant("parser-keeps-its-tree", "notation.py",
           "_numbered(_parse_tree(source))", "_numbered(root := _parse_tree(source))",
           ("tests/test_notation.py::test_parser_frees_its_tree_before_assembly",)),
    Mutant("edges-keep-the-edge-table-ids", "core.py",
           "Edge(ids[p], ids[c], ", "Edge(parent, child, ",
           ("tests/test_interchange.py::test_loaded_edges_share_their_units_ids",)),
    # Field types and overrides refused where they come in.
    Mutant("bool-position-accepted", "core.py",
           "if type(pos) is not int:", "if not isinstance(pos, int):",
           ("tests/test_core.py::test_build_error_message[position-bool]",)),
    Mutant("unknown-severity-accepted", "validation.py",
           "if severity not in (ERROR, WARNING, OFF):", "if severity is None:",
           ("tests/test_validation.py::TestConfig::test_validate_refuses_what_parse_config_refuses",)),
    # Subprocess tests run the package under test.
    Mutant("module-entry-point-not-called", "__main__.py",
           "    entry_point()\n", "    pass\n",
           ("tests/test_cli.py::TestUsage::test_runs_as_module[uccakit]",)),
]


def run_tests(tests, src: Path, work: Path, *options: str) -> subprocess.CompletedProcess:
    """Run `tests` from this checkout against the package in `src`."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *options, *[f"{ROOT}/{test}" for test in tests]],
        cwd=work,
        env=dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
    )


def outcome(mutant: Mutant, work: Path) -> str:
    src = work / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "uccakit" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.snippet) != 1:
        return "snippet not found"
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
    done = run_tests(mutant.tests, src, work, "-x")
    if done.returncode not in (0, 1):  # not a plain pass or fail: show why
        return f"error (pytest exit {done.returncode})\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
    return "killed" if done.returncode else "survived"


def failing_in_suite(src: Path, work: Path) -> set[str]:
    """The ids of the tests that fail, or error, when the whole suite runs
    against the package in `src`."""
    done = run_tests(["tests"], src, work, "-rfE", "--continue-on-collection-errors")
    return {line.split()[1] for line in done.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def main(names: list[str]) -> int:
    whole = "--all" in names
    names = [name for name in names if name != "--all"]
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {' '.join(sorted(unknown))}")
        return 2
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        tests = list(dict.fromkeys(test for m in chosen for test in m.tests))
        done = run_tests(tests, work / "src", work, "-x")
        if done.returncode:
            print(f"the named tests fail without a mutant:\n{done.stdout[-2000:]}{done.stderr}")
            return 2
        if whole:
            unchanged = failing_in_suite(work / "src", work)
            print(f"the whole suite fails {len(unchanged)} without a mutant", flush=True)
        survivors = 0
        for mutant in chosen:
            began = time.perf_counter()
            result = outcome(mutant, work)
            survivors += result != "killed"
            if whole and result in ("killed", "survived"):
                more = failing_in_suite(work / "src", work) - unchanged
                result += f", {len(more)} more failing in the whole suite"
            print(f"{mutant.name:<48} {result}  ({time.perf_counter() - began:.1f} s)", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} killed"
          f" in {time.perf_counter() - started:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
