"""Batch command line for parsing, validating, converting, scoring and
summarizing passages.

Exit codes: 0 success/conforming, 1 error-severity diagnostics found,
2 parse/IO/format failure, 3 usage error.  Per-file output is buffered
and flushed only on success, so a failing file contributes nothing to
stdout; errors go to stderr.  Stdout is UTF-8 whatever the locale.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from importlib import import_module
from pathlib import Path

from .core import FILE_EXTENSION, CategoryCounts, Passage, UccaError, stats


def _forward(module: str, name: str):
    """A stand-in for `module.name` that imports the module on its first
    call, so that each command loads only the modules it runs.  Commands
    look the stand-ins up as module globals at every call, so patching
    them here reaches every command."""
    target = None

    def call(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(import_module(module, __package__), name)
        return target(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


split_passages = _forward(".notation", "split_passages")
parse_passage = _forward(".notation", "parse_passage")
render = _forward(".notation", "render")
to_interchange = _forward(".interchange", "to_interchange")
from_interchange = _forward(".interchange", "from_interchange")
canonical_json_bytes = _forward(".interchange", "canonical_json_bytes")
score = _forward(".scoring", "score")
validate = _forward(".validation", "validate")
load_config = _forward(".validation", "load_config")

OK = 0
DIAGNOSTICS = 1
FAILURE = 2
USAGE = 3

NOTATION = "text"
INTERCHANGE = "json"


# Control characters, line breaks among them, as the escapes `ascii` writes,
# so that any output line naming a file stays one line whatever the name holds.
_ESCAPES = {c: ascii(chr(c))[1:-1] for c in [*range(32), *range(127, 160), 0x2028, 0x2029]}


class _Failure(Exception):
    """A failure, reported on stderr in one line and mapped to exit 2.  `_each_file`
    reports a file's and, with --keep-going, goes on to the next file; `main`, any other."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message.translate(_ESCAPES)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE, f"{self.prog}: error: {message}\n")


def _detect_format(path: str, override: str | None) -> str:
    if override:
        return override
    return INTERCHANGE if path.endswith(FILE_EXTENSION) else NOTATION


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise _Failure(f"{path}: {exc}") from exc


def _check_name(path: str) -> None:
    # Names become passage ids and output text, which are UTF-8.
    try:
        path.encode("utf-8")
    except UnicodeEncodeError:
        shown = os.fsencode(path).decode("utf-8", "backslashreplace")
        raise _Failure(f"{shown}: file name is not valid UTF-8") from None


def _stem(path: str) -> str:
    """The file name without `.txt`: the base of its passage ids and output names."""
    return Path(path).name.removesuffix(".txt")


def _load_passages(
    path: str,
    source_format: str | None = None,
    lenient_remotes: bool = False,
) -> list[Passage]:
    _check_name(path)
    fmt = _detect_format(path, source_format)
    try:
        if fmt == INTERCHANGE:
            return [from_interchange(_read(path))]
        # The file's bytes and text are freed before the first passage is parsed.
        chunks = split_passages(_read(path).decode("utf-8-sig"))
        stem = _stem(path)
        passages = []
        for i, chunk in enumerate(chunks, start=1):
            pid = stem if len(chunks) == 1 else f"{stem}.{i}"
            warn = lambda msg: print(f"{path}: warning: {msg}".translate(_ESCAPES), file=sys.stderr)
            passages.append(
                parse_passage(
                    chunk,
                    passage_id=pid,
                    lenient_remotes=lenient_remotes,
                    on_warning=warn,
                )
            )
        return passages
    except UnicodeDecodeError as exc:
        raise _Failure(f"{path}: not valid UTF-8: {exc}") from exc
    except UccaError as exc:
        raise _Failure(f"{path}: {exc}") from exc


def _load_single(path: str, source_format: str | None = None) -> Passage:
    passages = _load_passages(path, source_format)
    if len(passages) != 1:
        raise _Failure(
            f"{path}: contains {len(passages)} passages; this command handles one"
        )
    return passages[0]


def _config_from(args) -> dict[str, str]:
    path = args.config or os.environ.get("UCCA_CONFIG")
    if not path:
        return {}
    _check_name(path)
    try:
        return load_config(path)
    except (OSError, ValueError) as exc:
        raise _Failure(f"{path}: {exc}") from exc


def _out_path(path: str, out_dir: str | None, index: int, total: int) -> Path:
    stem = _stem(path)
    name = f"{stem}{FILE_EXTENSION}" if total == 1 else f"{stem}.{index}{FILE_EXTENSION}"
    directory = Path(out_dir) if out_dir else Path(path).parent
    return directory / name


def _write_out(data: str | bytes) -> None:
    """Write `data` to stdout as UTF-8 whatever the locale; a stdout with no
    byte buffer, such as a `StringIO`, takes text.  An undecodable byte of a
    command-line path, held as a surrogate, goes out as that byte."""
    raw = getattr(sys.stdout, "buffer", None)
    if raw is None:
        sys.stdout.write(data if isinstance(data, str) else data.decode("utf-8"))
    else:
        sys.stdout.flush()
        raw.write(data if isinstance(data, bytes) else data.encode("utf-8", "surrogateescape"))


def _flush(status: int, buffer: io.StringIO) -> int:
    if status < FAILURE:
        _write_out(buffer.getvalue())
    return status


def _each_file(args, run) -> int:
    """Call `run(path)` for each of `args.paths` and return the worst status.
    A failing file is reported on stderr and, unless --keep-going, ends the loop."""
    status = OK
    for path in args.paths:
        try:
            status = max(status, run(path))
        except _Failure as failure:
            print(failure.message, file=sys.stderr)
            status = FAILURE
            if not args.keep_going:
                break
    return status


def cmd_parse(args) -> int:
    if args.out_dir:
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            raise _Failure(f"{args.out_dir}: {exc}") from exc
    buffer = io.StringIO()
    written_by: dict[Path, str] = {}

    def parse(path: str) -> int:
        passages = _load_passages(path, lenient_remotes=args.lenient_remotes)
        written = []
        for i, passage in enumerate(passages, start=1):
            target = _out_path(path, args.out_dir, i, len(passages))
            earlier = written_by.setdefault(target.resolve(), path)
            if earlier != path:
                raise _Failure(
                    f"{target}: already written for {earlier}; {path} would overwrite it"
                )
            try:
                target.write_bytes(to_interchange(passage))
            except OSError as exc:
                raise _Failure(f"{target}: {exc}") from exc
            written.append(str(target))
        tokens = sum(len(p.tokens) for p in passages)
        summary = f"{path}: {len(passages)} passage(s), {tokens} token(s) -> {', '.join(written)}"
        buffer.write(summary.translate(_ESCAPES) + "\n")
        return OK

    return _flush(_each_file(args, parse), buffer)


def cmd_validate(args) -> int:
    config = _config_from(args)
    buffer = io.StringIO()
    json_rows: list[dict] = []

    def check(path: str) -> int:
        status = OK
        shown = path.translate(_ESCAPES)
        for passage in _load_passages(path, args.source_format):
            for d in validate(passage, config):
                if d.severity == "error":
                    status = DIAGNOSTICS
                if args.format == "json":
                    json_rows.append(
                        {
                            "file": path,
                            "passage": passage.id,
                            "unit": d.unit,
                            "rule": d.rule,
                            "severity": d.severity,
                            "message": d.message,
                        }
                    )
                else:
                    buffer.write(
                        f"{shown}: unit {d.unit}: {d.rule} {d.severity}: {d.message}\n"
                    )
        return status

    status = _each_file(args, check)
    if args.format == "json":
        buffer.write(canonical_json_bytes(json_rows).decode("utf-8"))
    return _flush(status, buffer)


def cmd_convert(args) -> int:
    passage = _load_single(args.path, args.source_format)
    target = args.to
    if target is None:
        source = _detect_format(args.path, args.source_format)
        target = NOTATION if source == INTERCHANGE else INTERCHANGE
    if target == INTERCHANGE:
        _write_out(to_interchange(passage))
    else:
        try:
            _write_out(render(passage, label_side=args.label_side) + "\n")
        except UccaError as exc:
            raise _Failure(f"{args.path}: {exc}") from exc
    return OK


def cmd_score(args) -> int:
    gold = _load_single(args.gold)
    predicted = _load_single(args.predicted)
    try:
        report = score(gold, predicted)
    except UccaError as exc:
        raise _Failure(str(exc)) from exc
    if args.format == "json":
        payload = report.to_dict()
        if args.mode != "all":
            payload = {
                args.mode: payload[args.mode],
                "per_category": payload["per_category"],
            }
        _write_out(canonical_json_bytes(payload))
        return OK
    lines = report.table().splitlines()
    if args.mode != "all":
        keep = [lines[0]]
        keep += [line for line in lines[1:5] if line.lstrip().startswith(args.mode)]
        keep += lines[5:]
        lines = keep
    _write_out("\n".join(lines) + "\n")
    return OK


def cmd_stats(args) -> int:
    counts: list[CategoryCounts] = []

    def count(path: str) -> int:
        counts.extend(stats(passage) for passage in _load_passages(path, args.source_format))
        return OK

    status = _each_file(args, count)
    total = sum(counts, CategoryCounts())
    buffer = io.StringIO()
    if args.format == "json":
        buffer.write(canonical_json_bytes(total.to_dict()).decode("utf-8"))
    else:
        lines = [f"{'category':<16}{'edges':>8}"]
        for label, count in sorted(total.categories.items()):
            lines.append(f"{label:<16}{count:>8}")
        for name, value in total.to_dict().items():
            if name != "categories":
                lines.append(f"{name:<16}{value:>8}")
        buffer.write("\n".join(lines) + "\n")
    return _flush(status, buffer)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="uccakit",
        description="Parse, validate, convert, score and summarize "
        "foundational-layer passages.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_from(p):
        p.add_argument(
            "--from",
            dest="source_format",
            choices=[NOTATION, INTERCHANGE],
            help="input format; default: by extension "
            f"({FILE_EXTENSION} is json, anything else text)",
        )

    p = sub.add_parser("parse", help="parse bracket files and write interchange JSON")
    p.add_argument("paths", nargs="+", metavar="path")
    p.add_argument("--out-dir", help="directory for output files; default: beside inputs")
    p.add_argument(
        "--lenient-remotes",
        action="store_true",
        help="resolve ambiguous remote references to the nearest match, with a warning",
    )
    p.add_argument("--keep-going", action="store_true", help="continue past failing files")
    p.set_defaults(handler=cmd_parse)

    p = sub.add_parser("validate", help="check passages against the annotation rules")
    p.add_argument("paths", nargs="+", metavar="path")
    p.add_argument("--config", help="severity overrides file; default: $UCCA_CONFIG")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--keep-going", action="store_true", help="continue past failing files")
    add_from(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("convert", help="rewrite one passage in the other representation")
    p.add_argument("path")
    p.add_argument(
        "--to",
        choices=[NOTATION, INTERCHANGE],
        help="target representation; default: the one the input is not",
    )
    p.add_argument("--label-side", choices=["left", "right"], default="left")
    add_from(p)
    p.set_defaults(handler=cmd_convert)

    p = sub.add_parser("score", help="compare a predicted annotation against gold")
    p.add_argument("gold")
    p.add_argument("predicted")
    p.add_argument("--mode", choices=["labeled", "unlabeled", "all"], default="all")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(handler=cmd_score)

    p = sub.add_parser("stats", help="aggregate category statistics over files")
    p.add_argument("paths", nargs="*", metavar="path")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--keep-going", action="store_true", help="continue past failing files")
    add_from(p)
    p.set_defaults(handler=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _Failure as failure:
        print(failure.message, file=sys.stderr)
        return FAILURE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
