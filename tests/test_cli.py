import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uccakit import (
    EdgeSpec,
    Token,
    UnitSpec,
    build_passage,
    from_interchange,
    isomorphic,
    parse_passage,
    stats,
    to_interchange,
)
from uccakit import cli
from uccakit.cli import entry_point, main

import memory
from conftest import CORPUS_DIR, EDGE_DIR, SRC, long_source
from strategies import bracket_sources, mutated_documents

KICKED = CORPUS_DIR / "01-kicked-ball.txt"
SHOWER = CORPUS_DIR / "03-shower-remote.txt"
R1_MUTANT = EDGE_DIR / "r1-mutant.txt"
MULTI = EDGE_DIR / "multi.txt"
UNBALANCED = EDGE_DIR / "unbalanced.txt"
AMBIGUOUS = EDGE_DIR / "ambiguous-remote.txt"
# 1,200 nested participants: deeper than the interpreter's recursion limit,
# which no command is bounded by.
DEEP_SOURCE = "[H [P ran] " + "[A " * 1200 + "x" + " ]" * 1201


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("UCCA_CONFIG", raising=False)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_writes_interchange_and_summary(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "parse", str(KICKED), "--out-dir", str(tmp_path)
        )
        assert code == 0
        target = tmp_path / "01-kicked-ball.ucca.json"
        assert target.exists()
        assert out == f"{KICKED}: 1 passage(s), 4 token(s) -> {target}\n"
        assert err == ""
        expected = to_interchange(
            parse_passage(KICKED.read_text(), passage_id="01-kicked-ball")
        )
        assert target.read_bytes() == expected

    def test_multi_passage_numbering(self, capsys, tmp_path):
        code, out, _ = run(capsys, "parse", str(MULTI), "--out-dir", str(tmp_path))
        assert code == 0
        one = tmp_path / "multi.1.ucca.json"
        two = tmp_path / "multi.2.ucca.json"
        assert one.exists() and two.exists()
        assert from_interchange(one.read_bytes()).id == "multi.1"
        assert from_interchange(two.read_bytes()).id == "multi.2"
        assert "2 passage(s)" in out

    def test_default_output_beside_input(self, capsys, tmp_path):
        source = tmp_path / "mine.txt"
        source.write_text(KICKED.read_text(), encoding="utf-8")
        code, _, _ = run(capsys, "parse", str(source))
        assert code == 0
        assert (tmp_path / "mine.ucca.json").exists()

    def test_parse_failure_keeps_stdout_empty(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "parse", str(UNBALANCED), "--out-dir", str(tmp_path)
        )
        assert code == 2
        assert out == ""
        assert "byte 0" in err

    def test_keep_going_writes_files_but_suppresses_stdout(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "parse",
            str(UNBALANCED),
            str(KICKED),
            "--keep-going",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 2
        assert out == ""
        assert str(UNBALANCED) in err
        assert (tmp_path / "01-kicked-ball.ucca.json").exists()

    def test_stops_at_first_failure_by_default(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "parse",
            str(UNBALANCED),
            str(KICKED),
            "--out-dir",
            str(tmp_path),
        )
        assert code == 2
        assert not (tmp_path / "01-kicked-ball.ucca.json").exists()

    def test_ambiguous_remote_strict_fails(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "parse", str(AMBIGUOUS), "--out-dir", str(tmp_path)
        )
        assert code == 2
        assert out == ""
        assert "lenient" in err

    def test_lenient_remotes_warn_and_succeed(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "parse",
            str(AMBIGUOUS),
            "--lenient-remotes",
            "--out-dir",
            str(tmp_path),
        )
        assert code == 0
        assert "picking the nearest preceding one" in err
        assert (tmp_path / "ambiguous-remote.ucca.json").exists()

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_out_dir_blocked_by_file_exit_2(self, capsys, tmp_path, sub):
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        out_dir = str(blocker / sub) if sub else str(blocker)
        code, out, err = run(capsys, "parse", str(KICKED), "--out-dir", out_dir)
        assert (code, out) == (2, "")
        assert err.startswith(f"{out_dir}: ")
        assert len(err.splitlines()) == 1

    def test_crlf_file_splits_into_passages(self, capsys, tmp_path):
        source = tmp_path / "x.txt"
        source.write_bytes(b"[H [A Mary] [P left] ]\r\n\r\n[H [A John] [P came] ]\r\n")
        code, _, _ = run(capsys, "parse", str(source), "--out-dir", str(tmp_path / "out"))
        assert code == 0
        made = sorted(f.name for f in (tmp_path / "out").iterdir())
        assert made == ["x.1.ucca.json", "x.2.ucca.json"]

    @pytest.mark.parametrize(
        "inputs",
        [
            {"a/x.txt": MULTI.read_text(), "x.1.txt": KICKED.read_text()},
            {"b/y.txt": KICKED.read_text(), "c/y.txt": SHOWER.read_text()},
        ],
        ids=["numbered-passage", "same-basename"],
    )
    def test_colliding_outputs_refused(self, capsys, tmp_path, inputs):
        paths = []
        for name, text in inputs.items():
            path = tmp_path / name
            path.parent.mkdir(exist_ok=True)
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        code, out, err = run(
            capsys, "parse", *paths, "--keep-going", "--out-dir", str(tmp_path / "out")
        )
        assert (code, out) == (2, "")
        assert paths[0] in err and paths[1] in err

    def test_non_utf8_file_exit_2(self, capsys, tmp_path):
        source = tmp_path / "latin1.txt"
        source.write_bytes("[H [A café] [P closed] ]".encode("latin-1"))
        code, out, err = run(capsys, "parse", str(source), "--out-dir", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err.startswith(f"{source}: not valid UTF-8: ")
        assert len(err.splitlines()) == 1

    def test_unwritable_output_exit_2(self, capsys, tmp_path):
        # A directory in the way of the output file makes the write fail.
        target = tmp_path / "01-kicked-ball.ucca.json"
        target.mkdir()
        code, out, err = run(capsys, "parse", str(KICKED), "--out-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"{target}: ")
        assert len(err.splitlines()) == 1


def test_bracket_file_freed_before_its_passages_are_parsed(tmp_path):
    # Beyond the passages it returns, loading 200 passages of five scenes
    # holds at its peak their sources and one parse's work, 1.5 bytes per
    # file byte; with the file's bytes and text alive through every parse
    # it held 3.5 (CPython 3.11.7, 3.12.1 and 3.13.0 alike).
    path = tmp_path / "many.txt"
    path.write_text("\n\n".join([long_source(5)] * 200) + "\n", encoding="utf-8")
    cli._load_passages(str(path))  # fills the first-use tables
    passages, peak, held = memory.traced(lambda: cli._load_passages(str(path)))
    assert len(passages) == 200
    assert (peak - held) / path.stat().st_size < 2.5


class TestValidate:
    def test_clean_corpus_file(self, capsys):
        code, out, err = run(capsys, "validate", str(KICKED), str(SHOWER))
        assert (code, out, err) == (0, "", "")

    def test_error_diagnostics_exit_1(self, capsys):
        code, out, err = run(capsys, "validate", str(R1_MUTANT))
        assert code == 1
        assert err == ""
        assert out == (
            f"{R1_MUTANT}: unit 4: R1 error: top-level unit carries A: 'Mary'\n"
        )

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "validate", str(R1_MUTANT), "--format", "json")
        assert code == 1
        rows = json.loads(out)
        assert len(rows) == 1
        assert rows[0]["rule"] == "R1"
        assert rows[0]["unit"] == "4"
        assert rows[0]["passage"] == "r1-mutant"
        assert rows[0]["file"] == str(R1_MUTANT)
        assert out.endswith("\n")

    def test_json_format_empty_array_when_clean(self, capsys):
        code, out, _ = run(capsys, "validate", str(KICKED), "--format", "json")
        assert code == 0
        assert json.loads(out) == []

    def test_config_file_silences_rule(self, capsys, tmp_path):
        cfg = tmp_path / "rules.cfg"
        cfg.write_text("R1 = off\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "validate", str(R1_MUTANT), "--config", str(cfg)
        )
        assert (code, out) == (0, "")

    def test_config_downgrade_keeps_line_but_exits_0(self, capsys, tmp_path):
        cfg = tmp_path / "rules.cfg"
        cfg.write_text("R1 = warning\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "validate", str(R1_MUTANT), "--config", str(cfg)
        )
        assert code == 0
        assert "R1 warning" in out

    def test_config_from_environment(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "rules.cfg"
        cfg.write_text("R1 = off\n", encoding="utf-8")
        monkeypatch.setenv("UCCA_CONFIG", str(cfg))
        code, out, _ = run(capsys, "validate", str(R1_MUTANT))
        assert (code, out) == (0, "")

    def test_config_flag_beats_environment(self, capsys, tmp_path, monkeypatch):
        good = tmp_path / "good.cfg"
        good.write_text("R1 = off\n", encoding="utf-8")
        monkeypatch.setenv("UCCA_CONFIG", str(tmp_path / "missing.cfg"))
        code, out, _ = run(
            capsys, "validate", str(R1_MUTANT), "--config", str(good)
        )
        assert (code, out) == (0, "")

    def test_bad_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "rules.cfg"
        cfg.write_text("R99 = off\n", encoding="utf-8")
        code, out, err = run(
            capsys, "validate", str(KICKED), "--config", str(cfg)
        )
        assert code == 2
        assert out == ""
        assert "line 1" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "validate", str(tmp_path / "nope.txt"))
        assert code == 2
        assert out == ""
        assert "nope.txt" in err

    def test_failure_beats_diagnostics_under_keep_going(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "validate",
            str(tmp_path / "nope.txt"),
            str(R1_MUTANT),
            "--keep-going",
        )
        assert code == 2
        assert out == ""

    def test_leading_byte_order_mark_ignored(self, capsys, tmp_path):
        source = tmp_path / "bom.txt"
        source.write_bytes(b"\xef\xbb\xbf" + KICKED.read_bytes())
        code, out, _ = run(capsys, "validate", str(source))
        assert (code, out) == (0, "")

    def test_deep_nesting_validates(self, capsys, tmp_path):
        source = tmp_path / "deep.txt"
        source.write_text(DEEP_SOURCE, encoding="utf-8")
        code, out, err = run(capsys, "validate", str(source))
        assert (code, out, err) == (0, "", "")

    def test_too_deeply_nested_json_exit_2(self, capsys, tmp_path):
        paths = [tmp_path / "a.ucca.json", tmp_path / "b.ucca.json"]
        for path in paths:
            path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, out, err = run(capsys, "validate", "--keep-going", *map(str, paths))
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"{path}: not valid JSON: nested too deeply" for path in paths
        ]

    def test_validates_interchange_by_extension(self, capsys, tmp_path):
        target = tmp_path / "kicked.ucca.json"
        target.write_bytes(to_interchange(parse_passage(KICKED.read_text())))
        code, out, _ = run(capsys, "validate", str(target))
        assert (code, out) == (0, "")

    def test_from_overrides_extension(self, capsys, tmp_path):
        target = tmp_path / "kicked.txt"
        target.write_bytes(to_interchange(parse_passage(KICKED.read_text())))
        code, _, _ = run(capsys, "validate", str(target), "--from", "json")
        assert code == 0
        code, _, _ = run(capsys, "validate", str(target))
        assert code == 2


class TestLoneSurrogateInterchange:
    @pytest.mark.parametrize("command", ["validate", "convert", "parse"])
    def test_exit_2_without_output(self, capsys, tmp_path, command):
        source = tmp_path / "sur.ucca.json"
        data = to_interchange(parse_passage(KICKED.read_text()))
        source.write_bytes(data.replace(b'"John"', b'"Jo\\ud800hn"'))
        extra = ["--out-dir", str(tmp_path / "out")] if command == "parse" else []
        code, out, err = run(capsys, command, str(source), *extra)
        assert (code, out) == (2, "")
        assert err == f"{source}: not valid Unicode: a string holds a lone surrogate\n"
        assert "Traceback" not in err
        assert not list(tmp_path.glob("out/*"))


class TestUndecodableFileName:
    """A file name that is not valid UTF-8 fails that file, under every command."""

    SCENE = b"[H [A John] [P ran] [P go]]\n"

    @pytest.fixture
    def bad(self, tmp_path):
        """A bracket file named b\\xe9.txt, as the command line hands it over."""
        raw = os.path.join(os.fsencode(tmp_path), b"b\xe9.txt")
        with open(raw, "wb") as handle:
            handle.write(self.SCENE)
        return os.fsdecode(raw)

    def message(self, tmp_path):
        return f"{tmp_path}{os.sep}b\\xe9.txt: file name is not valid UTF-8\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["parse", "{bad}", "--out-dir", "{out}"],
            ["validate", "{bad}", "--format", "json"],
            ["convert", "{bad}", "--to", "json"],
            ["score", "{good}", "{bad}"],
            ["stats", "{bad}"],
        ],
        ids=["parse", "validate", "convert", "score", "stats"],
    )
    def test_exit_2_naming_the_file(self, capsys, tmp_path, bad, argv):
        good = tmp_path / "good.txt"
        good.write_bytes(self.SCENE)
        names = {"bad": bad, "good": good, "out": tmp_path / "out"}
        code, out, err = run(capsys, *(arg.format(**names) for arg in argv))
        assert (code, out, err) == (2, "", self.message(tmp_path))
        assert not list(tmp_path.glob("out/*"))

    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_config_file_named_alike(self, capsys, monkeypatch, tmp_path, source):
        raw = os.path.join(os.fsencode(tmp_path), b"x\xe9.cfg")
        with open(raw, "wb") as handle:
            handle.write(b"R1 = off\n")
        good = tmp_path / "good.txt"
        good.write_bytes(self.SCENE)
        if source == "flag":
            code, out, err = run(capsys, "validate", str(good), "--config", os.fsdecode(raw))
        else:
            monkeypatch.setenv("UCCA_CONFIG", os.fsdecode(raw))
            code, out, err = run(capsys, "validate", str(good))
        expected = f"{tmp_path}{os.sep}x\\xe9.cfg: file name is not valid UTF-8\n"
        assert (code, out, err) == (2, "", expected)

    @pytest.mark.parametrize("command", ["parse", "validate", "stats"])
    def test_keep_going_reads_the_next_file(self, capsys, monkeypatch, tmp_path, bad, command):
        good = tmp_path / "good.txt"
        good.write_bytes(self.SCENE)
        split, read = cli.split_passages, []
        monkeypatch.setattr(cli, "split_passages", lambda text: read.append(text) or split(text))
        extra = ["--out-dir", str(tmp_path / "out")] if command == "parse" else []
        code, out, err = run(capsys, command, bad, str(good), "--keep-going", *extra)
        assert (code, out, err) == (2, "", self.message(tmp_path))
        assert read == [self.SCENE.decode("utf-8")]
        if command == "parse":
            assert [p.name for p in tmp_path.glob("out/*")] == ["good.ucca.json"]

    def test_process_exits_2_without_traceback(self, tmp_path, bad):
        done = subprocess.run(
            [sys.executable, "-m", "uccakit", "parse", bad, "--out-dir", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr == os.fsencode(self.message(tmp_path))


def run_encoded(monkeypatch, encoding, *argv):
    """main(argv) with a stdout whose locale encoding is `encoding`: the exit
    code and the bytes that reached the stream underneath."""
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding=encoding))
    code = main(list(argv))
    sys.stdout.flush()
    return code, raw.getvalue()


class TestStdoutIsUtf8:
    SCENE = "[H [A 日本] [P ran]]"
    TWO_MAIN_RELATIONS = "[H [A 日本] [P ran] [P go]]"

    @pytest.fixture(params=["ascii", "latin-1"])
    def encoding(self, request):
        return request.param

    def source(self, tmp_path, text, name="u.txt"):
        path = tmp_path / name
        path.write_text(text + "\n", encoding="utf-8")
        return path

    def test_convert_to_text(self, monkeypatch, tmp_path, encoding):
        path = self.source(tmp_path, self.SCENE)
        code, out = run_encoded(monkeypatch, encoding, "convert", str(path), "--to", "text")
        assert (code, out) == (0, f"{self.SCENE}\n".encode("utf-8"))

    def test_convert_to_json(self, monkeypatch, tmp_path, encoding):
        path = self.source(tmp_path, self.SCENE)
        code, out = run_encoded(monkeypatch, encoding, "convert", str(path), "--to", "json")
        assert (code, out) == (0, to_interchange(parse_passage(self.SCENE, passage_id="u")))

    def test_convert_json_to_text(self, monkeypatch, tmp_path, encoding):
        path = tmp_path / "u.ucca.json"
        path.write_bytes(to_interchange(parse_passage(self.SCENE)))
        code, out = run_encoded(monkeypatch, encoding, "convert", str(path))
        assert (code, out) == (0, f"{self.SCENE}\n".encode("utf-8"))

    def test_validate_text(self, monkeypatch, tmp_path, encoding):
        path = self.source(tmp_path, self.TWO_MAIN_RELATIONS)
        code, out = run_encoded(monkeypatch, encoding, "validate", str(path))
        assert code == 1
        assert out.decode("utf-8") == (
            f"{path}: unit 1: R2 error: scene unit has 2 main-relation children:"
            " '日本 ran go'\n"
        )

    def test_validate_json(self, monkeypatch, tmp_path, encoding):
        path = self.source(tmp_path, self.TWO_MAIN_RELATIONS)
        code, out = run_encoded(monkeypatch, encoding, "validate", str(path), "--format", "json")
        assert code == 1
        [row] = json.loads(out.decode("utf-8"))
        assert (row["rule"], row["message"]) == (
            "R2", "scene unit has 2 main-relation children: '日本 ran go'"
        )

    def test_latin1_document_reads_back(self, monkeypatch, tmp_path):
        path = self.source(tmp_path, "[H [A café] [P ran]]", "c.txt")
        code, out = run_encoded(monkeypatch, "latin-1", "convert", str(path), "--to", "json")
        assert code == 0
        document = tmp_path / "c.ucca.json"
        document.write_bytes(out)
        back = run_encoded(monkeypatch, "utf-8", "convert", str(document))
        assert back == (0, "[H [A café] [P ran]]\n".encode("utf-8"))

    def test_ascii_locale_process(self, tmp_path):
        path = self.source(tmp_path, self.SCENE)
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="ascii")
        done = subprocess.run(
            [sys.executable, "-m", "uccakit", "convert", str(path), "--to", "text"],
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (
            0, f"{self.SCENE}\n".encode("utf-8"), b""
        )


class TestConvert:
    def test_deep_nesting_converts_to_text(self, capsys, tmp_path):
        source = tmp_path / "deep.ucca.json"
        source.write_bytes(to_interchange(parse_passage(DEEP_SOURCE)))
        code, out, err = run(capsys, "convert", str(source))
        assert (code, err) == (0, "")
        assert isomorphic(parse_passage(out), parse_passage(DEEP_SOURCE))

    def test_too_deeply_nested_json_exit_2(self, capsys, tmp_path):
        source = tmp_path / "deep.ucca.json"
        source.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, out, err = run(capsys, "convert", str(source))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_text_to_json_default(self, capsys):
        code, out, err = run(capsys, "convert", str(KICKED))
        assert (code, err) == (0, "")
        expected = to_interchange(
            parse_passage(KICKED.read_text(), passage_id="01-kicked-ball")
        )
        assert out == expected.decode("utf-8")

    def test_json_to_text_default(self, capsys, tmp_path):
        target = tmp_path / "kicked.ucca.json"
        target.write_bytes(to_interchange(parse_passage(KICKED.read_text())))
        code, out, _ = run(capsys, "convert", str(target))
        assert code == 0
        assert out.endswith("\n")
        assert isomorphic(
            parse_passage(out), parse_passage(KICKED.read_text())
        )

    def test_label_side_right(self, capsys):
        code, out, _ = run(
            capsys, "convert", str(KICKED), "--to", "text", "--label-side", "right"
        )
        assert code == 0
        assert "[John A]" in out
        assert isomorphic(parse_passage(out), parse_passage(KICKED.read_text()))

    def test_text_to_text_normalizes(self, capsys):
        code, out, _ = run(capsys, "convert", str(KICKED), "--to", "text")
        assert code == 0
        assert out == "[H [A John] [P kicked] [A [F the] [C ball]]]\n"

    def test_round_trip_through_both_formats(self, capsys, tmp_path):
        code, json_out, _ = run(capsys, "convert", str(SHOWER))
        assert code == 0
        target = tmp_path / "03-shower-remote.ucca.json"
        target.write_text(json_out, encoding="utf-8")
        code, text_out, _ = run(capsys, "convert", str(target))
        assert code == 0
        source = tmp_path / "03-shower-remote.txt"
        source.write_text(text_out, encoding="utf-8")
        code, json_again, _ = run(capsys, "convert", str(source))
        assert code == 0
        assert json_again == json_out

    def test_multi_passage_rejected(self, capsys):
        code, out, err = run(capsys, "convert", str(MULTI))
        assert code == 2
        assert out == ""
        assert "2 passages" in err

    def test_unrenderable_passage_exit_2(self, capsys, tmp_path):
        p = build_passage(
            [Token("a[b", 0)],
            [UnitSpec("r", "internal"), UnitSpec("t", "terminal", (0,))],
            [EdgeSpec("r", "t", "H")],
        )
        target = tmp_path / "weird.ucca.json"
        target.write_bytes(to_interchange(p))
        code, out, err = run(capsys, "convert", str(target), "--to", "text")
        assert code == 2
        assert out == ""
        assert "delimiters" in err

    def test_unknown_target_usage_error(self, capsys):
        code, out, err = run(capsys, "convert", str(KICKED), "--to", "xml")
        assert code == 3
        assert out == ""
        assert "invalid choice" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "convert", str(tmp_path / "nope.txt"))
        assert code == 2
        assert out == ""


class TestScore:
    def test_self_score(self, capsys):
        code, out, err = run(capsys, "score", str(KICKED), str(KICKED))
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0].split() == ["precision", "recall", "f1"]
        assert lines[1].startswith("labeled primary")
        assert lines[1].endswith("1.000")

    def test_token_mismatch_exit_2(self, capsys):
        code, out, err = run(capsys, "score", str(KICKED), str(SHOWER))
        assert code == 2
        assert out == ""
        assert "token" in err

    def test_mode_filters_text_rows(self, capsys):
        code, out, _ = run(
            capsys, "score", str(KICKED), str(KICKED), "--mode", "labeled"
        )
        assert code == 0
        assert "unlabeled" not in out
        assert "labeled primary" in out and "labeled remote" in out

    def test_json_all_modes(self, capsys):
        code, out, _ = run(
            capsys, "score", str(KICKED), str(KICKED), "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"labeled", "unlabeled", "per_category"}
        assert data["labeled"]["primary"]["f1"] == 1.0

    def test_json_single_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "score",
            str(KICKED),
            str(KICKED),
            "--format",
            "json",
            "--mode",
            "unlabeled",
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"unlabeled", "per_category"}

    def test_multi_passage_gold_rejected(self, capsys):
        code, out, err = run(capsys, "score", str(MULTI), str(KICKED))
        assert code == 2
        assert out == ""


class TestStats:
    def test_single_file_table(self, capsys):
        code, out, err = run(capsys, "stats", str(KICKED))
        assert (code, err) == (0, "")
        rows = {
            line.split()[0]: line.split()[1] for line in out.splitlines()[1:]
        }
        assert rows["A"] == "2"
        assert rows["P"] == "1"
        assert rows["C"] == "1"
        assert rows["F"] == "1"
        assert rows["H"] == "1"
        assert rows["edges"] == "6"
        assert rows["scene_units"] == "1"
        assert rows["tokens"] == "4"

    def test_json_matches_library(self, capsys):
        code, out, _ = run(capsys, "stats", str(KICKED), "--format", "json")
        assert code == 0
        expected = stats(parse_passage(KICKED.read_text()))
        assert json.loads(out) == expected.to_dict()

    def test_aggregates_across_files(self, capsys):
        code, combined, _ = run(
            capsys, "stats", str(KICKED), str(SHOWER), "--format", "json"
        )
        assert code == 0
        one = stats(parse_passage(KICKED.read_text()))
        two = stats(parse_passage(SHOWER.read_text()))
        assert json.loads(combined) == (one + two).to_dict()

    def test_counts_every_passage_in_file(self, capsys):
        code, out, _ = run(capsys, "stats", str(MULTI), "--format", "json")
        assert code == 0
        chunks = [
            stats(parse_passage(c))
            for c in MULTI.read_text().split("\n\n")
            if c.strip()
        ]
        assert json.loads(out) == (chunks[0] + chunks[1]).to_dict()

    def test_no_paths_zero_table(self, capsys):
        code, out, _ = run(capsys, "stats")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["category", "edges"]
        assert all(line.split()[1] == "0" for line in lines[1:])

    def test_missing_file_suppresses_output(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "stats", str(tmp_path / "nope.txt"), str(KICKED), "--keep-going"
        )
        assert code == 2
        assert out == ""
        assert "nope.txt" in err

    @pytest.mark.parametrize("keep_going", [False, True])
    def test_failing_files_stop_or_read_on(self, capsys, tmp_path, keep_going):
        missing = tmp_path / "nope.txt"
        argv = ["stats", str(UNBALANCED), str(KICKED), str(missing)]
        code, out, err = run(capsys, *argv, *(["--keep-going"] if keep_going else []))
        assert (code, out) == (2, "")
        named = [line.split(": ", 1)[0] for line in err.splitlines()]
        assert named == ([str(UNBALANCED), str(missing)] if keep_going else [str(UNBALANCED)])


class TestUsage:
    def test_no_command(self, capsys):
        code, out, err = run(capsys)
        assert code == 3
        assert out == ""
        assert "usage" in err

    def test_unknown_command(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 3
        assert out == ""

    def test_unknown_flag(self, capsys):
        code, out, err = run(capsys, "parse", str(KICKED), "--explode")
        assert code == 3
        assert out == ""

    def test_parse_requires_paths(self, capsys):
        code, out, err = run(capsys, "parse")
        assert code == 3
        assert out == ""

    def test_entry_point_exits_with_status(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["uccakit", "stats"])
        with pytest.raises(SystemExit) as exc:
            entry_point()
        assert exc.value.code == 0

    def test_console_script_installed(self):
        assert shutil.which("uccakit") is not None

    @pytest.mark.parametrize("module", ["uccakit", "uccakit.cli"])
    def test_runs_as_module(self, tmp_path, module):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-m", module, "parse", str(KICKED), "--out-dir", str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        written = tmp_path / "01-kicked-ball.ucca.json"
        expected = parse_passage(KICKED.read_text(), passage_id="01-kicked-ball")
        assert written.read_bytes() == to_interchange(expected)


# File names as the operating system hands them over: any bytes but "/" and
# NUL, with spaces, line breaks, undecodable bytes and both extensions made likely.
_NAME_PIECES = [b"a", b" ", b"-", b"\n", b"\xe9", b"\xff", b"\xc3\xa9", b".txt", b".ucca.json"]


def _file_name(pieces: list[bytes]) -> bytes:
    name = b"".join(pieces).replace(b"/", b"_").replace(b"\0", b"_")
    return name if name.strip(b".") else name + b"_"  # never "." or ".."


def _spelled(data: bytes, bom: bool, crlf: bool) -> bytes:
    """`data` after a UTF-8 byte-order mark, and with CRLF line ends, as asked."""
    return (b"\xef\xbb\xbf" if bom else b"") + (data.replace(b"\n", b"\r\n") if crlf else data)


file_names = st.lists(
    st.one_of(st.sampled_from(_NAME_PIECES), st.binary(min_size=1, max_size=2)),
    min_size=1,
    max_size=4,
).map(_file_name)
file_contents = st.builds(
    _spelled,
    st.one_of(
        st.lists(bracket_sources(), min_size=1, max_size=2).map(
            lambda texts: "\n\n".join(texts).encode("utf-8") + b"\n"
        ),
        mutated_documents(),
        st.binary(max_size=48),
    ),
    st.booleans(),
    st.booleans(),
)


@st.composite
def cli_calls(draw):
    """A command, its options, and its files as (name, contents or None if missing)."""
    command = draw(st.sampled_from(["parse", "validate", "convert", "score", "stats"]))
    count = {"convert": 1, "score": 2}.get(command) or draw(st.integers(1, 2))
    files = [
        (draw(file_names), None if draw(st.integers(0, 9)) == 0 else draw(file_contents))
        for _ in range(count)
    ]
    options = []
    if command in ("validate", "score", "stats"):
        options += ["--format", draw(st.sampled_from(["text", "json"]))]
    if command == "convert":
        options += ["--label-side", draw(st.sampled_from(["left", "right"]))]
        options += draw(st.sampled_from([[], ["--to", "text"], ["--to", "json"]]))
    if command in ("parse", "validate", "stats") and draw(st.booleans()):
        options.append("--keep-going")
    return command, options, files


def run_in_process(argv):
    """main(argv) over byte streams as a process has them: the exit code,
    stdout and stderr."""
    out, err = io.BytesIO(), io.BytesIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8")
    stderr = io.TextIOWrapper(err, encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        stdout.flush()
        stderr.flush()
    return code, out.getvalue(), err.getvalue()


def run_process(argv):
    env = {k: v for k, v in os.environ.items() if k != "UCCA_CONFIG"}
    done = subprocess.run(
        [sys.executable, "-m", "uccakit", *argv],
        env=dict(env, PYTHONPATH=str(SRC)),
        capture_output=True,
        timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def check_contract(run, call):
    command, options, files = call
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, (name, contents) in enumerate(files):
            # One directory per file, so that no output can land on another input.
            folder = os.path.join(os.fsencode(tmp), b"d%d" % i)
            os.mkdir(folder)
            path = os.path.join(folder, name)
            if contents is not None:
                with open(path, "wb") as handle:
                    handle.write(contents)
            paths.append(os.fsdecode(path))
        code, out, err = run([command, *options, "--", *paths])
        assert code in (0, 1, 2), err
        assert b"Traceback" not in err
        if code == 1:
            assert command == "validate"
            if "json" in options:
                assert any(row["severity"] == "error" for row in json.loads(out))
            else:
                assert re.search(rb": unit \d+: [A-Z]+\d+ error: ", out)
        if code != 2:
            assert err == b""
            return
        assert out == b""
        failed = 1
        if "--keep-going" in options and len(paths) > 1:
            failed = sum(run([command, *options, "--", path])[0] == 2 for path in paths)
        assert err.count(b"\n") == failed and err.endswith(b"\n"), err


class TestOperatingSystemBoundary:
    """Every command on generated files ends in exit 0, 1 or 2, with exit 1
    only for error diagnostics, and exit 2 with empty stdout and one stderr
    line per failed file, never a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(cli_calls())
    def test_in_process(self, call):
        check_contract(run_in_process, call)

    @settings(max_examples=3, deadline=None)
    @given(cli_calls())
    def test_as_a_process(self, call):
        check_contract(run_process, call)

    def test_line_break_in_a_name_is_escaped(self, capsys, tmp_path):
        shown = f"{tmp_path}{os.sep}a\\nb.txt"
        code, out, err = run(capsys, "stats", "--", str(tmp_path / "a\nb.txt"))
        assert (code, out) == (2, "")
        assert err == f"{shown}: [Errno 2] No such file or directory: '{shown}'\n"

    def test_control_characters_in_a_name_keep_stdout_rows_whole(self, capsys, tmp_path):
        # A parse summary names its input and its outputs, and a text row of
        # validate names its input: each stays one line, the name escaped.
        name, shown = "a\nb\tc\x1bd\u2028e", "a\\nb\\tc\\x1bd\\u2028e"
        out_dir = str(tmp_path / "out")
        commands = [(MULTI, ["parse", "--out-dir", out_dir], 0), (R1_MUTANT, ["validate"], 1)]
        for fixture, command, status in commands:
            outs = []
            for stem in (name, "plain"):
                source = tmp_path / f"{stem}.txt"
                source.write_bytes(fixture.read_bytes())
                code, out, err = run(capsys, *command, "--", str(source))
                assert (code, err) == (status, "")
                outs.append(out)
            assert outs[0].count("\n") == outs[1].count("\n") > 0
            assert outs[0] == outs[1].replace("plain", shown)

    def test_warning_naming_a_file_is_one_line(self, capsys, tmp_path):
        source = tmp_path / "a\nb.txt"
        source.write_bytes(AMBIGUOUS.read_bytes())
        out_dir = str(tmp_path / "out")
        argv = ["parse", "--lenient-remotes", "--out-dir", out_dir, "--", str(source)]
        code, _, err = run(capsys, *argv)
        assert code == 0
        assert err.count("\n") == 1
        assert err.startswith(f"{tmp_path}{os.sep}a\\nb.txt: warning: ")


# The decoder's depth limit at the top of a fresh interpreter.  A command
# runs deeper in the stack, so its own limit is at most this.
_DECODER_LIMIT = """
import json
lo, hi = 1, 1 << 20
while lo < hi:
    mid = (lo + hi + 1) // 2
    try:
        json.loads("[" * mid + "]" * mid)
        lo = mid
    except RecursionError:
        hi = mid - 1
print(lo)
"""


def reading(path):
    """Each command that reads input, run on `path` alone."""
    out_dir = os.path.join(os.path.dirname(path), "out")
    return [["parse", "--out-dir", out_dir, path], ["validate", path], ["convert", path],
            ["score", path, path], ["stats", path]]


class TestDeepInput:
    """Input nested past the interpreter's recursion limit ends, through
    `python -m uccakit` and for every command that reads it, in a result or
    in exit 2 with empty stdout and one stderr line: no command relies on
    catching `RecursionError`."""

    def fails(self, argv):
        code, out, err = run_process(argv)
        assert (code, out) == (2, b""), err
        assert err.count(b"\n") == 1 and b"Traceback" not in err, err
        return err

    def test_unclosed_groups(self, tmp_path):
        path = tmp_path / "deep.txt"
        path.write_text("[H " * 200_000 + "x\n", encoding="utf-8")
        for argv in reading(str(path)):
            assert b"bracket opened here is never closed" in self.fails(argv)

    def test_nested_arrays(self, tmp_path):
        path = tmp_path / "deep.ucca.json"
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        for argv in reading(str(path)):
            assert self.fails(argv).endswith(b": not valid JSON: nested too deeply\n")

    def test_json_around_the_decoder_limit(self, tmp_path):
        # A lone-surrogate escape makes the loader encode the decoded
        # document again, as deep as the decoder went.  Each command's
        # limit is found by bisection; the deepest document it decodes, one
        # level less and one level more all fail cleanly.
        child = subprocess.run([sys.executable, "-c", _DECODER_LIMIT], capture_output=True)
        top = int(child.stdout)
        for k in range(5):
            seen = {}

            def message(depth):
                if depth not in seen:
                    path = tmp_path / f"{k}-{depth}.ucca.json"
                    nested = "[" * depth + "]" * depth
                    path.write_text(f'{{"id": "\\ud800", "units": {nested}}}', encoding="utf-8")
                    seen[depth] = self.fails(reading(str(path))[k])
                return seen[depth]

            lo, hi = top - 128, top + 1  # lo decodes, hi does not
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if b"lone surrogate" in message(mid):
                    lo = mid
                else:
                    hi = mid
            assert b"lone surrogate" in message(lo - 1) and b"lone surrogate" in message(lo)
            assert message(hi).endswith(b": not valid JSON: nested too deeply\n")

    def test_thousand_level_chain(self, tmp_path):
        source = tmp_path / "chain.txt"
        source.write_text("[H [P ran] " + "[A " * 1000 + "x" + " ]" * 1001 + "\n", encoding="utf-8")
        document = str(tmp_path / "out" / "chain.ucca.json")
        runs = [
            ["parse", "--out-dir", str(tmp_path / "out"), str(source)],
            ["validate", str(source), document],
            ["convert", document, "--to", "text", "--label-side", "left"],
            ["convert", document, "--to", "text", "--label-side", "right"],
            ["score", str(source), document],
            ["stats", str(source), document],
        ]
        for argv in runs:
            code, out, err = run_process(argv)
            assert code in (0, 1), err
            assert b"Traceback" not in err
