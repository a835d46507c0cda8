"""End-to-end and per-layer benchmark for uccakit.

    python3 bench/run.py --workload corpus-batch --seed 1 --seconds 35 --trace 0

Run from the repository root.  Inputs are generated from the seed into a
scratch directory under .bench_out/ and removed afterwards; results and
spans are written next to it.  The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 reports the end-to-end metrics.  CLI cost is the wall time of
`uccakit` subprocesses, run one at a time, start-up included.  Library
cost is the time of direct calls into uccakit's public functions, made in
a worker process (pipelines.py) between the CLI calls; an item is one
input file, or one gold/predicted pair.  Each timing is the median over
the rounds that fit in --seconds.

Timings are rescaled to a reference CPU speed.  On the 2-CPU virtual
machine the bounds were set on, each CPU's speed wanders by up to 40%
within seconds, so raw wall times of 35-second runs spread by 15 to 40%
from run to run.  The children therefore run on one CPU, a fixed loop
(spawn.calibrate) is timed on it just before and after each timed call or
batch of library items, and each wall time is multiplied by REFERENCE_S
over the mean of the two.  The raw wall medians are in the context line.

--trace 1 reports the per-layer metrics: spans around uccakit's public
functions while cli.main runs in-process for each command and the library
pipeline runs once, the tracing overhead, and the size series.

Every run checks outputs against the generator's own counts, and runs
four known-defect probes whose expected outcome is the correct result.
Probes are counted only in failure_ratio and are never timed.

Every workload runs all five CLI commands, so that each reports every
end-to-end metric; score-eval's parse and convert read and write
interchange only, so it still runs no bracket parsing or rendering.

Which end-to-end metrics each layer should move, and where:
  notation.lex, parse_passage    validate_s parse_s stats_s lib_tokens_per_s
                                 on corpus-batch; not on score-eval
  core.build_passage             the same, and validate_s stats_s on score-eval
  notation.render, remotes       convert_s lib_item_p50_ms on long-remote only
  validation.validate            validate_s on corpus-batch and score-eval
  interchange.to_interchange     parse_s on corpus-batch and long-remote
  interchange.from_interchange   validate_s stats_s score_s on score-eval
  scoring.score, isomorphic      lib_tokens_per_s score_s on score-eval
  core.stats                     stats_s on corpus-batch and score-eval
  cli import and main self time  setup_s, and start-up in convert_s score_s

The machine has 2 CPUs and no CPU pinning of its own; the benchmark pins
only its children, to one CPU, for the calibration above.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import gen
import pipelines

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BOOT = "import sys; from uccakit.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import uccakit.cli; "
                "print(time.perf_counter() - t)")
TAIL_PERCENTILES = (99.9, 99, 90, 50)
LIB_SHARE = 0.3  # of the measured time, for library items
LIB_BATCH_S = 0.2  # library items run in batches of about this long
# Children run on this CPU, where spawn.calibrate() measures its speed.
CPU = min(os.sched_getaffinity(0))
# spawn.calibrate() on the 2-CPU machine the bounds were set on, at its
# usual speed.  Timings are reported as seconds at this speed.
REFERENCE_S = 0.003
RUN_LIMIT_S = 170  # a run that takes longer fails instead of reporting
CLI_METRICS = ("validate_s", "parse_s", "stats_s", "convert_s", "score_s")


class Ledger:
    """Counted operations and checks.  Probes are kept apart: they count
    only in failure_ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.check_failed = 0
        self.probes = 0
        self.probe_failed = 0

    def check(self, name: str, ok: bool, detail: str = "", verify: bool = True) -> bool:
        self.attempted += 1
        self.checked += verify
        if not ok:
            self.failed += 1
            self.check_failed += verify
            print(f"check failed: {name}: {detail}", file=sys.stderr)
        return ok

    def probe(self, name: str, ok: bool, detail: str) -> None:
        self.probes += 1
        if not ok:
            self.probe_failed += 1
            print(f"known-defect probe failed: {name}: {detail}", file=sys.stderr)

    def failure_ratio(self) -> float:
        return (self.check_failed + self.probe_failed) / (self.checked + self.probes)


class Call:
    """A finished child: exit code, output, wall seconds, peak RSS, and the
    factor that rescales its seconds to the reference CPU speed."""

    __slots__ = ("code", "out", "err", "seconds", "rss_mb", "scale")

    def __init__(self, code, out, err, seconds, rss_mb, scale):
        self.code, self.out, self.err = code, out, err
        self.seconds, self.rss_mb, self.scale = seconds, rss_mb, scale


class Cli:
    """Runs `uccakit` and other Python children one at a time, through the
    small spawner process in spawn.py, and collects their output."""

    def __init__(self, cwd: Path):
        self.cwd = cwd
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.capture = str(cwd.parent / (cwd.name + ".out"))
        # A session of its own, so that a run cut short can stop the
        # spawner and whatever child it is waiting for in one kill.
        self.spawner = subprocess.Popen([sys.executable, str(BENCH / "spawn.py"), str(CPU)],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True, start_new_session=True)

    def run(self, args, cwd: Path | None = None) -> Call:
        return self.python(["-c", BOOT, *args], cwd)

    def python(self, argv, cwd: Path | None = None) -> Call:
        job = {"argv": [sys.executable, *argv], "cwd": str(cwd or self.cwd), "env": self.env,
               "stdout": self.capture, "stderr": self.capture + ".err"}
        self.spawner.stdin.write(json.dumps(job) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        with open(self.capture, "rb") as out, open(self.capture + ".err", "rb") as err:
            return Call(reply["code"], out.read(), err.read(), reply["seconds"],
                        reply["maxrss_kb"] / 1024, REFERENCE_S / reply["calibration_s"])

    def close(self, abort: bool = False) -> None:
        if abort:
            os.killpg(self.spawner.pid, signal.SIGKILL)
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()
        for leftover in (self.capture, self.capture + ".err"):
            if os.path.exists(leftover):
                os.unlink(leftover)


def in_process(main, args, cwd: Path) -> int:
    """cli.main(args) with stdout and stderr captured, relative to cwd."""
    previous = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(args)
    finally:
        os.chdir(previous)


class Step:
    """One CLI call of a round: the metric it adds to, its arguments, its
    expected exit code, and the output checks for the verification round."""

    def __init__(self, metric, args, code, check, before=None, produced=None):
        self.metric, self.args, self.code, self.check = metric, args, code, check
        self.before = before
        self.produced = produced  # files the call writes, compared across rounds
        self.verified = None


def _digest(paths) -> tuple:
    return tuple((p.name, p.read_bytes()) for p in sorted(paths))


def _clear(directory: Path):
    def clear():
        shutil.rmtree(directory, ignore_errors=True)
    return clear


def _score_counts(stdout: bytes) -> dict:
    report = json.loads(stdout)
    return {m: {k: {x: report[m][k][x] for x in ("matched", "gold", "predicted")}
                for k in ("primary", "remote")} for m in ("labeled", "unlabeled")}


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.rng = random.Random(seed ^ 0x5EED)
        self.expected = self.generate()

    def roundtrip_checks(self, ledger, paths):
        from uccakit import from_interchange, to_interchange

        for path in paths:
            data = path.read_bytes()
            ledger.check(f"interchange round trip {path.name}",
                         to_interchange(from_interchange(data)) == data)

    def stats_check(self, ledger, call):
        got = json.loads(call.out)
        ledger.check("stats totals equal the generator's counts", got == self.expected["stats"],
                     f"got {got}, expected {self.expected['stats']}")

    def render_check(self, ledger, name, text: bytes, source: Path):
        from uccakit import from_interchange, isomorphic, parse_passage

        ok = isomorphic(parse_passage(text.decode("utf-8")), from_interchange(source.read_bytes()))
        ledger.check(f"render then reparse is isomorphic {name}", ok)


class CorpusBatch(Workload):
    """995 short passages over 100 bracket files, 30 with one rule violation."""

    name = "corpus-batch"

    def generate(self):
        return gen.corpus_batch(self.seed, self.work)

    def plan(self):
        exp = self.expected
        files = exp["files"]
        out = self.work / "out"
        by_id = {p.id: p for p in exp["passages"]}
        single = sorted(by_id)
        converted = self.rng.sample(single, 2)
        scored = self.rng.sample(single, 2)

        def check_validate(ledger, call):
            rows = json.loads(call.out)
            got = Counter(r["rule"] for r in rows)
            ledger.check("diagnostics by rule equal the injected violations",
                         got == Counter(exp["diagnostics"]), f"got {dict(got)}")
            ledger.check("R7 is reported as a warning",
                         all((r["severity"] == "warning") == (r["rule"] == "R7") for r in rows))

        def check_parse(ledger, call):
            names = {p.name for p in out.iterdir()}
            ledger.check("parse writes one output per passage",
                         names == {f"{pid}.ucca.json" for pid in by_id})
            self.roundtrip_checks(ledger, sorted(out.iterdir()))

        steps = [
            Step("validate_s", ["validate", *files, "--format", "json"],
                 1 if exp["error_rules"] else 0, check_validate),
            Step("parse_s", ["parse", *files, "--out-dir", "out"], 0, check_parse,
                 before=_clear(out), produced=lambda: list(out.iterdir())),
            Step("stats_s", ["stats", *files, "--format", "json"], 0, self.stats_check),
        ]
        for pid in converted:
            src = out / f"{pid}.ucca.json"
            steps.append(Step("convert_s", ["convert", f"out/{src.name}", "--to", "text"], 0,
                              lambda ledger, call, src=src: self.render_check(
                                  ledger, src.name, call.out, src)))
        for pid in scored:
            want = gen.score_counts(by_id[pid], by_id[pid])
            name = f"out/{pid}.ucca.json"
            steps.append(Step("score_s", ["score", name, name, "--format", "json"], 0,
                              lambda ledger, call, want=want, pid=pid: ledger.check(
                                  f"score counts {pid}", _score_counts(call.out) == want)))
        return steps

    def lib_units(self):
        return self.expected["files"]

    def lib_checks(self, ledger, kept):
        from uccakit import CategoryCounts

        exp = self.expected
        total = CategoryCounts()
        rules = Counter()
        for p, diagnostics, data, counts in kept:
            total = total + counts
            rules.update(d.rule for d in diagnostics)
            ledger.check(f"library interchange equals parse output {p.id}",
                         data == (self.work / "out" / f"{p.id}.ucca.json").read_bytes())
        ledger.check("library passages", len(kept) == len(exp["passages"]))
        ledger.check("library tokens", sum(len(k[0].tokens) for k in kept) == exp["tokens"])
        ledger.check("library units", sum(len(k[0].units) for k in kept) == exp["units"])
        ledger.check("library diagnostics by rule", rules == Counter(exp["diagnostics"]),
                     f"got {dict(rules)}")
        ledger.check("library stats totals", total.to_dict() == exp["stats"])


class LongRemote(Workload):
    """A few long passages, one per file, with many remotes and nested scenes."""

    name = "long-remote"

    def generate(self):
        return gen.long_remote(self.seed, self.work)

    def plan(self):
        exp = self.expected
        files = exp["files"]
        out = self.work / "out"

        def check_parse(ledger, call):
            from uccakit import from_interchange

            produced = sorted(out.iterdir())
            ledger.check("parse writes one output per file", len(produced) == len(files))
            self.roundtrip_checks(ledger, produced)
            tokens = sum(len(from_interchange(p.read_bytes()).tokens) for p in produced)
            ledger.check("parse output tokens", tokens == exp["tokens"])

        def check_quiet(ledger, call):
            ledger.check("validate reports nothing", json.loads(call.out) == [], call.out[:200])

        steps = [
            Step("parse_s", ["parse", *files, "--out-dir", "out"], 0, check_parse,
                 before=_clear(out), produced=lambda: list(out.iterdir())),
            Step("validate_s", ["validate", *files, "--format", "json"], 0, check_quiet),
            Step("stats_s", ["stats", *files, "--format", "json"], 0, self.stats_check),
        ]
        for name in files:
            src = out / name.replace(".txt", ".ucca.json")
            steps.append(Step("convert_s", ["convert", f"out/{src.name}", "--to", "text"], 0,
                              lambda ledger, call, src=src: self.render_check(
                                  ledger, src.name, call.out, src)))
        for name, want in zip(files, exp["self_scores"]):
            steps.append(Step("score_s", ["score", name, "out/" + name.replace(".txt", ".ucca.json"),
                                          "--format", "json"], 0,
                              lambda ledger, call, want=want, name=name: ledger.check(
                                  f"score counts {name}", _score_counts(call.out) == want)))
        return steps

    def lib_units(self):
        return self.expected["files"]

    def lib_checks(self, ledger, kept):
        from uccakit import from_interchange, isomorphic, parse_passage, to_interchange

        exp = self.expected
        for (p, right, same, data, loaded), want in zip(kept, exp["passages"]):
            ledger.check(f"left render reparses isomorphic {p.id}", same)
            ledger.check(f"right render reparses isomorphic {p.id}",
                         isomorphic(p, parse_passage(right)))
            ledger.check(f"interchange round trip {p.id}",
                         to_interchange(from_interchange(data)) == data and isomorphic(p, loaded))
            ledger.check(f"interchange equals the generator's {p.id}", data == want.interchange())
        ledger.check("library tokens", sum(len(k[0].tokens) for k in kept) == exp["tokens"])
        ledger.check("library units", sum(len(k[0].units) for k in kept) == exp["units"])


class ScoreEval(Workload):
    """Gold and predicted passages stored as interchange JSON, scored pairwise."""

    name = "score-eval"

    def generate(self):
        return gen.score_eval(self.seed, self.work)

    def plan(self):
        exp = self.expected
        golds = [g for g, _ in exp["pairs"]]
        every = golds + [p for _, p in exp["pairs"]]
        out = self.work / "out"

        def check_quiet(ledger, call):
            ledger.check("validate reports nothing", json.loads(call.out) == [], call.out[:200])

        def check_parse(ledger, call):
            for name in golds:
                written = out / (name + ".ucca.json")
                ledger.check(f"parse keeps interchange bytes {name}",
                             written.is_file() and written.read_bytes()
                             == (self.work / name).read_bytes())

        steps = [
            Step("validate_s", ["validate", *every, "--format", "json"], 0, check_quiet),
            Step("stats_s", ["stats", *every, "--format", "json"], 0, self.stats_check),
            Step("parse_s", ["parse", *golds, "--out-dir", "out"], 0, check_parse,
                 before=_clear(out), produced=lambda: list(out.iterdir())),
        ]
        for i in self.rng.sample(range(len(golds)), 4):
            name = golds[i]
            steps.append(Step("convert_s", ["convert", name, "--to", "json"], 0,
                              lambda ledger, call, name=name: ledger.check(
                                  f"convert keeps interchange bytes {name}",
                                  call.out == (self.work / name).read_bytes())))
        for i in exp["scored"]:
            g, p = exp["pairs"][i]
            steps.append(Step("score_s", ["score", g, p, "--format", "json"], 0,
                              lambda ledger, call, i=i: ledger.check(
                                  f"score counts pair {i}",
                                  _score_counts(call.out) == exp["scores"][i])))
        return steps

    def lib_units(self):
        return self.expected["pairs"]

    def lib_checks(self, ledger, kept):
        from uccakit import to_interchange

        exp = self.expected
        for i, (gold, predicted, g_data, p_data, report, same) in enumerate(kept):
            got = _score_counts(json.dumps(report.to_dict()))
            ledger.check(f"score counts pair {i}", got == exp["scores"][i])
            ledger.check(f"isomorphic pair {i}", same == exp["isomorphic"][i])
            ledger.check(f"interchange round trip pair {i}",
                         to_interchange(gold) == g_data and to_interchange(predicted) == p_data)
        ledger.check("library tokens", sum(len(k[0].tokens) + len(k[1].tokens) for k in kept)
                     == exp["tokens"])
        ledger.check("library units", sum(len(k[0].units) + len(k[1].units) for k in kept)
                     == exp["units"])


WORKLOADS = {w.name: w for w in (CorpusBatch, LongRemote, ScoreEval)}


# ---------------------------------------------------------------------------
# Known-defect probes (ROADMAP item 3): counted, never timed


def run_probes(cli: Cli, ledger: Ledger, rng) -> None:
    d = cli.cwd / "probes"
    d.mkdir()
    (d / "crlf.txt").write_bytes(b"[H [A mary1] [P left] ]\r\n\r\n[H [A john2] [P came] ]\r\n")
    call = cli.run(["parse", "crlf.txt", "--out-dir", "probe-crlf"], d)
    made = sorted(p.name for p in (d / "probe-crlf").glob("*.ucca.json"))
    ledger.probe("crlf_two_passages", call.code == 0 and made == ["crlf.1.ucca.json",
                                                                  "crlf.2.ucca.json"],
                 f"exit {call.code}, wrote {made}")

    (d / "bom.txt").write_bytes("﻿[H [A mary1] [P left] ]\n".encode("utf-8"))
    call = cli.run(["validate", "bom.txt"], d)
    ledger.probe("utf8_bom", call.code == 0 and not call.out,
                 f"exit {call.code}, stdout {call.out[:120]!r}")

    (d / "deep.txt").write_text(gen.nested_passage(rng, 1200) + "\n", encoding="utf-8")
    call = cli.run(["validate", "deep.txt"], d)
    ledger.probe("deep_nesting", call.code == 0 and b"Traceback" not in call.err,
                 f"exit {call.code}, stderr ends {call.err[-80:]!r}")

    for sub, name, text in (("a", "x.txt", "[H [A ana1] [P ran] ]\n\n[H [A li2] [P sat] ]\n"),
                            (".", "x.1.txt", "[H [A eva3] [P won] ]\n"),
                            ("b", "y.txt", "[H [A tom4] [P met] ]\n"),
                            ("c", "y.txt", "[H [A raj5] [P left] ]\n")):
        (d / sub).mkdir(exist_ok=True)
        (d / sub / name).write_text(text, encoding="utf-8")
    first = cli.run(["parse", "a/x.txt", "x.1.txt", "--out-dir", "probe-names1"], d)
    second = cli.run(["parse", "b/y.txt", "c/y.txt", "--out-dir", "probe-names2"], d)
    ledger.probe("parse_name_collision", first.code == 2 and second.code == 2,
                 f"exits {first.code} and {second.code}, expected 2 for colliding outputs")


# ---------------------------------------------------------------------------
# Runs


def _median_spread(values) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _tail(samples, per_pass: int) -> tuple[float, float]:
    """The highest listed percentile with at least 10 of one full pass's items
    beyond it, over all samples by nearest rank; the median when a pass has
    too few items.  Choosing by pass size keeps the percentile the same
    however many rounds fit in the run."""
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        if per_pass * (100 - pct) / 100 >= 10:
            return pct, ordered[max(math.ceil(len(ordered) * pct / 100), 1) - 1]
    return 50, statistics.median(ordered)


def cli_round(cli: Cli, ledger: Ledger, steps, between=lambda seconds: None
              ) -> tuple[dict, dict, float]:
    """Every step once, timed, calling `between` with each call's seconds.
    Returns rescaled and wall seconds per metric, and the peak RSS.  The
    first round verifies each call's exit code and outputs; later rounds
    must reproduce them."""
    times = dict.fromkeys(CLI_METRICS, 0.0)
    wall = dict.fromkeys(CLI_METRICS, 0.0)
    peak = 0.0
    for step in steps:
        if step.before:
            step.before()
        call = cli.run(step.args)
        times[step.metric] += call.seconds * call.scale
        wall[step.metric] += call.seconds
        peak = max(peak, call.rss_mb)
        produced = _digest(step.produced()) if step.produced else None
        if step.verified is None:
            step.verified = (call.code, call.out, produced)
            if ledger.check(f"exit code of {' '.join(step.args[:3])}", call.code == step.code,
                            f"exit {call.code}, expected {step.code}; "
                            f"{call.err[-300:].decode('utf-8', 'replace')}"):
                step.check(ledger, call)
        else:
            ledger.check(f"repeat of {step.args[0]}",
                         (call.code, call.out, produced) == step.verified,
                         "output differs from the verified round", verify=False)
        between(call.seconds)
    return times, wall, peak


class LibWorker:
    """A pipelines.py process on CPU that times batches of library items,
    cycling through the workload's items."""

    def __init__(self, workload):
        self.units = workload.lib_units()
        self.next = 0
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "pipelines.py"), workload.name, str(workload.work),
             str(CPU)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)))

    def batch(self, size: int) -> tuple[list[float], list[float], float]:
        """Wall seconds and source tokens per second of the next `size` items,
        and the factor that rescales the batch to the reference CPU speed."""
        units = [self.units[(self.next + i) % len(self.units)] for i in range(size)]
        self.next += size
        self.proc.stdin.write(json.dumps(units) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("library worker stopped")
        reply = json.loads(reply)
        return reply["seconds"], reply["rates"], REFERENCE_S / reply["calibration_s"]

    def close(self, abort: bool = False) -> None:
        if abort:
            self.proc.kill()
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def lib_verify(workload, ledger: Ledger) -> None:
    """The library pipeline over every item in this process, untimed, with
    every output checked."""
    kept = []
    pipelines.run_pass(workload.name, pipelines.library(), workload.work,
                       workload.lib_units(), [], kept)
    workload.lib_checks(ledger, kept)


def measure_setup(cli: Cli, ledger: Ledger, repeats=9) -> tuple[float, float]:
    """Median rescaled and wall time of `uccakit stats` with no paths:
    start-up, import, argparse."""
    samples, wall = [], []
    for i in range(repeats + 2):
        call = cli.run(["stats"])
        ledger.check("exit code of stats with no paths", call.code == 0, verify=False)
        if i >= 2:  # the first calls also write bytecode caches
            samples.append(call.seconds * call.scale)
            wall.append(call.seconds)
    return statistics.median(samples), statistics.median(wall)


def end_to_end(workload, cli, ledger, steps, seconds) -> tuple[dict, dict]:
    """Rounds of CLI calls for `seconds`, with batches of library items run
    between the calls so that they get LIB_SHARE of the measured time,
    spread over the whole run.  The first round also verifies.  No round
    starts that would not end in time, except the first."""
    setup, setup_wall = measure_setup(cli, ledger)
    rounds: dict[str, list[float]] = {m: [] for m in CLI_METRICS}
    walls: dict[str, list[float]] = {m: [] for m in CLI_METRICS}
    rss, rates, latencies, lib_wall = [], [], [], []
    spent = {"cli": 0.0, "lib": 0.0}
    worker = LibWorker(workload)

    def library_items(call_seconds):
        spent["cli"] += call_seconds
        size = 1
        while spent["lib"] < spent["cli"] * LIB_SHARE / (1 - LIB_SHARE):
            wall, batch_rates, scale = worker.batch(size)
            spent["lib"] += sum(wall)
            lib_wall.extend(wall)
            latencies.extend(t * scale for t in wall)
            rates.extend(r / scale for r in batch_rates)
            ledger.attempted += size
            size = max(1, int(LIB_BATCH_S * len(wall) / sum(wall)))

    finished = False
    try:
        start = time.perf_counter()
        last = 0.0
        while not rss or time.perf_counter() - start + last <= seconds:
            begun = time.perf_counter()
            times, wall, peak = cli_round(cli, ledger, steps, library_items)
            for metric in CLI_METRICS:
                rounds[metric].append(times[metric])
                walls[metric].append(wall[metric])
            rss.append(peak)
            last = time.perf_counter() - begun
        finished = True
    finally:
        worker.close(abort=not finished)
    lib_verify(workload, ledger)
    pct, tail = _tail(latencies, len(workload.lib_units()))
    metrics = {
        "setup_s": (setup, "s"),
        **{m: (statistics.median(v), "s") for m, v in rounds.items()},
        "cli_peak_rss_mb": (statistics.median(rss), "MB"),
        "lib_tokens_per_s": (statistics.median(rates), "tokens/s"),
        "lib_item_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "lib_item_tail_ms": (tail * 1e3, "ms"),
    }
    context = {
        "rounds": len(rss),
        "spread": {m: _median_spread(v) for m, v in rounds.items()},
        "wall": {"setup_s": setup_wall, **{m: statistics.median(v) for m, v in walls.items()},
                 "lib_item_p50_ms": statistics.median(lib_wall) * 1e3},
        "lib_tokens_per_s": _median_spread(rates),
        "lib_item_samples": len(latencies),
        "lib_item_tail_percentile": pct,
    }
    return metrics, context


def per_layer(workload, cli, ledger, steps, seconds) -> tuple[dict, dict]:
    import tracing
    import uccakit.cli

    cli_round(cli, ledger, steps)
    lib_verify(workload, ledger)
    imports = []
    for _ in range(5):
        call = cli.python(["-c", IMPORT_PROBE])
        ledger.check("import of uccakit.cli", call.code == 0, verify=False)
        imports.append(float(call.out))

    def iteration(f, main):
        start = time.perf_counter()
        for step in steps:
            if step.before:
                step.before()
            code = in_process(main, step.args, workload.work)
            ledger.check(f"in-process exit code of {step.args[0]}", code == step.code,
                         verify=False)
        pipelines.run_pass(workload.name, f, workload.work, workload.lib_units(), [])
        return time.perf_counter() - start

    # Half the run for the in-process iterations: the size series that
    # follow take about as long again.
    plain, traced, layers = [], [], []
    tracer = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + plain[-1] + traced[-1] <= seconds / 2:
        plain.append(iteration(pipelines.library(), uccakit.cli.main))
        tracer = tracing.Tracer()
        with tracer.installed() as f:
            traced.append(iteration(f, tracer.wrap("cli.main", uccakit.cli.main)))
        layers.append(tracer.layer_metrics())
    metrics = {key: (statistics.median(m[key] for m in layers), _unit(key)) for key in layers[0]}
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    for key, value in tracing.growth(random.Random(workload.seed)).items():
        metrics[key] = (value, "exponent")
    metrics["src.lines"] = (_src_lines(), "lines")
    spans = OUT / f"spans-{workload.name}-seed{workload.seed}.json"
    spans.write_text(json.dumps(tracer.dump()))
    return metrics, {"iterations": len(traced), "spans_file": str(spans.relative_to(ROOT)),
                     "spans": len(tracer.spans)}


def _unit(key: str) -> str:
    return "s" if key.endswith("_s") else "count"


def _src_lines() -> int:
    return sum(p.read_bytes().count(b"\n") for p in sorted((SRC / "uccakit").glob("*.py")))


def _overrun(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "uccakit" / "cli.py").is_file():
        print(f"bench: no uccakit sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _overrun)
    signal.alarm(RUN_LIMIT_S)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    cli = None
    finished = False
    try:
        cli = Cli(work)
        workload = WORKLOADS[args.workload](args.seed, work)
        ledger = Ledger()
        steps = workload.plan()
        # The generator's trees live as long as the run; keep them out of
        # the collector's way so that the in-process traced runs collect
        # about as often as a process holding only uccakit's data would.
        gc.collect()
        gc.freeze()
        run_probes(cli, ledger, random.Random(args.seed))
        if args.trace:
            metrics, context = per_layer(workload, cli, ledger, steps, args.seconds)
        else:
            metrics, context = end_to_end(workload, cli, ledger, steps, args.seconds)
            metrics["failure_ratio"] = (ledger.failure_ratio(), "ratio")
        finished = True
    finally:
        if cli is not None:
            cli.close(abort=not finished)
        shutil.rmtree(work, ignore_errors=True)

    context.update({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_pinning": False,
        "src.lines": _src_lines(),
        "checks": ledger.checked,
        "checks_failed": ledger.check_failed,
        "probes": ledger.probes,
        "probes_failed": ledger.probe_failed,
    })
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"context": context, **result}, indent=1))
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
