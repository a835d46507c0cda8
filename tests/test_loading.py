"""What importing the package and running each command loads, the
package's public names, and the command-line names that tools patch."""

import importlib
import os
import subprocess
import sys

import pytest

import uccakit
from uccakit import cli, parse_passage, to_interchange

from conftest import CORPUS_DIR, SRC

KICKED = CORPUS_DIR / "01-kicked-ball.txt"

# The public names, by the module that defines or re-exports them.
PUBLIC = {
    "categories": [
        "BASE_LABELS", "DESCRIPTIONS", "SECONDARY_LABELS", "CategorySet", "InvalidCategory",
    ],
    "core": [
        "IMPLICIT", "INTERNAL", "TERMINAL", "BuildError", "CategoryCounts", "DanglingEdge",
        "DuplicateId", "Edge", "EdgeSpec", "InvalidRemote", "InvalidToken", "InvalidUnit",
        "MultiplePrimaryParents", "MultipleRoots", "NotInternal", "Passage", "PrimaryCycle",
        "RemoteCycle", "Token", "TokenCoverageGap", "UccaError", "Unit", "UnitSpec",
        "UnknownUnit", "build_passage", "is_scene_unit", "isomorphic", "stats", "yield_of",
    ],
    "interchange": [
        "FILE_EXTENSION", "FORMAT_VERSION", "MalformedDocument", "UnsupportedVersion",
        "canonical_json_bytes", "from_interchange", "to_interchange",
    ],
    "notation": [
        "AmbiguousContinuation", "AmbiguousRemote", "DanglingContinuation", "MisplacedRemote",
        "OrphanContinuation", "ParseError", "RenderError", "UnbalancedBrackets",
        "UnknownCategoryLabel", "UnresolvedRemote", "lex", "parse_passage", "render",
        "split_passages",
    ],
    "scoring": [
        "ClassScores", "EdgeSignature", "ScoreReport", "TokenMismatch", "score", "signatures",
    ],
    "validation": [
        "Diagnostic", "RuleInfo", "list_rules", "load_config", "parse_config", "validate",
    ],
}
HOMES = [(name, module) for module, names in PUBLIC.items() for name in names]


def loaded_by(code: str, *argv, watched: tuple[str, ...] = ()) -> tuple[set[str], str]:
    """The uccakit modules, and those named in `watched`, that a fresh
    interpreter holds after running `code` with sys.argv[1:] = argv, and
    what `code` printed before the list."""
    listing = (
        f"print(*sorted(m for m in sys.modules if m.startswith('uccakit') or m in {watched!r}))"
    )
    done = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\n{listing}", *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    *printed, modules = done.stdout.splitlines()
    return set(modules.split()), "\n".join(printed)


def run_main(*argv) -> set[str]:
    modules, _ = loaded_by(
        "from uccakit.cli import main\nassert main(sys.argv[1:]) == 0", *argv
    )
    return modules


@pytest.fixture
def interchange_file(tmp_path):
    path = tmp_path / "kicked.ucca.json"
    path.write_bytes(to_interchange(parse_passage(KICKED.read_text(), passage_id="kicked")))
    return path


class TestWhatLoads:
    def test_import_loads_no_submodule(self):
        modules, _ = loaded_by("import uccakit")
        assert modules == {"uccakit"}

    def test_submodule_resolves_after_bare_import(self):
        modules, printed = loaded_by("import uccakit\nprint(uccakit.notation.__name__)")
        assert printed == "uccakit.notation"
        assert "uccakit.notation" in modules

    def test_dir_lists_unloaded_names(self):
        _, printed = loaded_by(
            "import uccakit\nprint(set(uccakit.__all__) <= set(dir(uccakit)))"
        )
        assert printed == "True"

    def test_stats_without_paths(self):
        assert run_main("stats") == {"uccakit", "uccakit.categories", "uccakit.cli", "uccakit.core"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["score", "{json}", "{json}"],
            ["score", "{json}", "{json}", "--format", "json"],
            ["convert", "{json}", "--to", "json"],
        ],
        ids=["score", "score-json", "convert-to-json"],
    )
    def test_interchange_commands_skip_notation_and_validation(self, argv, interchange_file):
        modules = run_main(*(arg.format(json=interchange_file) for arg in argv))
        assert "uccakit.interchange" in modules
        assert not modules & {"uccakit.notation", "uccakit.validation"}


# The standard modules that `dataclasses` pulls in; no command needs them.
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


@pytest.fixture(scope="module")
def heavy_at_start():
    """Those of HEAVY that a bare interpreter already holds (a site hook may load one)."""
    modules, _ = loaded_by("pass", watched=HEAVY)
    return modules & set(HEAVY)


MAIN = "from uccakit.cli import main\nassert main(sys.argv[1:]) == 0"


@pytest.mark.parametrize(
    "code, argv",
    [
        (MAIN, ["parse", str(KICKED), "--out-dir", "{dir}"]),
        (MAIN, ["validate", str(KICKED)]),
        (MAIN, ["stats", str(KICKED)]),
        (MAIN, ["convert", str(KICKED), "--to", "json"]),
        (MAIN, ["score", "{json}", "{json}", "--format", "json"]),
        ("from uccakit import *", []),
    ],
    ids=["parse", "validate", "stats", "convert", "score", "star-import"],
)
def test_no_command_loads_dataclasses_or_inspect(
    code, argv, heavy_at_start, tmp_path, interchange_file
):
    argv = [arg.format(json=interchange_file, dir=tmp_path) for arg in argv]
    modules, _ = loaded_by(code, *argv, watched=HEAVY)
    assert "uccakit.core" in modules  # the listing is the line read
    assert modules & set(HEAVY) <= heavy_at_start


class TestPublicSurface:
    def test_all_is_the_pinned_names(self):
        assert sorted(uccakit.__all__) == sorted(name for name, _ in HOMES)
        assert len(uccakit.__all__) == 67

    @pytest.mark.parametrize("name, module", HOMES, ids=[name for name, _ in HOMES])
    def test_name_is_its_home_modules_object(self, name, module):
        home = importlib.import_module(f"uccakit.{module}")
        assert getattr(uccakit, name) is getattr(home, name)

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from uccakit import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == set(uccakit.__all__)

    @pytest.mark.parametrize("module", sorted({module for _, module in HOMES}))
    def test_submodule_name_returns_the_submodule(self, module):
        # Importing a submodule binds it on the package, so in this process
        # the hook is called by hand.
        assert uccakit.__getattr__(module) is importlib.import_module(f"uccakit.{module}")

    def test_dir_lists_public_names_and_submodules(self):
        assert {*uccakit.__all__, *(module for _, module in HOMES)} <= set(dir(uccakit))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            uccakit.no_such_name
        with pytest.raises(ImportError):
            exec("from uccakit import no_such_name", {})


# Each name that uccakit.cli looks up at every call, and a command that
# calls it.
SEAM = {
    "split_passages": ["stats", str(KICKED)],
    "parse_passage": ["parse", str(KICKED), "--out-dir", "{dir}"],
    "validate": ["validate", str(KICKED)],
    "render": ["convert", str(KICKED), "--to", "text"],
    "to_interchange": ["convert", str(KICKED), "--to", "json"],
    "from_interchange": ["stats", "{json}"],
    "score": ["score", "{json}", "{json}"],
    "stats": ["stats", str(KICKED)],
}


@pytest.mark.parametrize("name", list(SEAM))
def test_cli_calls_patched_name(name, monkeypatch, capsys, tmp_path, interchange_file):
    original = getattr(cli, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counting)
    argv = [arg.format(json=interchange_file, dir=tmp_path) for arg in SEAM[name]]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert calls


def test_parser_lexes_once_through_its_module_global(monkeypatch):
    # A tracer times the tokenizer by patching `uccakit.notation.lex`, and
    # `build_passage` by the names `uccakit.notation.build_passage` and
    # `uccakit.interchange.build_passage`.
    from uccakit import notation

    original = notation.lex
    calls = []

    def counting(source):
        calls.append(source)
        return original(source)

    monkeypatch.setattr(notation, "lex", counting)
    notation.parse_passage(KICKED.read_text())
    assert len(calls) == 1
    assert notation.build_passage is uccakit.build_passage
    assert uccakit.interchange.build_passage is uccakit.build_passage
