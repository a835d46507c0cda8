"""The library pipeline of each workload, and the worker that times it.

    PYTHONPATH=src python3 bench/pipelines.py <workload> <input directory> <cpu>

The worker reads one batch of items per line on stdin, as a JSON list (of
file names, or of [gold, predicted] pairs of names), runs the workload's
pipeline on each and answers with one JSON line: {"seconds": [...],
"rates": [...], "calibration_s": ...}, seconds and source tokens per
second for each item, and the mean of spawn.calibrate() before and after
the batch.  It runs on the given CPU, in an interpreter of its own that
holds nothing but uccakit and the item at hand, so that the collector's
pauses are those a user's process would see.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

LIBRARY = {
    "split_passages": "notation.split_passages",
    "parse_passage": "notation.parse_passage",
    "validate": "validation.validate",
    "render": "notation.render",
    "to_interchange": "interchange.to_interchange",
    "from_interchange": "interchange.from_interchange",
    "score": "scoring.score",
    "isomorphic": "core.isomorphic",
    "stats": "core.stats",
}


def real(layer: str):
    """The public function `<module>.<name>` of uccakit."""
    module, name = layer.rsplit(".", 1)
    return getattr(importlib.import_module("uccakit." + module), name)


def library():
    """The untraced public functions the pipelines call."""
    return SimpleNamespace(**{k: real(v) for k, v in LIBRARY.items()})


def corpus_batch(f, work: Path, name: str, keep):
    """split_passages, then per passage parse -> validate -> to_interchange -> stats."""
    clock = time.perf_counter
    text = (work / name).read_text(encoding="utf-8")
    stem = name.removesuffix(".txt")
    tokens = 0
    start = clock()
    chunks = f.split_passages(text)
    busy = clock() - start
    for i, chunk in enumerate(chunks, start=1):
        pid = stem if len(chunks) == 1 else f"{stem}.{i}"
        start = clock()
        p = f.parse_passage(chunk, passage_id=pid)
        diagnostics = f.validate(p)
        data = f.to_interchange(p)
        counts = f.stats(p)
        busy += clock() - start
        tokens += len(p.tokens)
        if keep is not None:
            keep.append((p, diagnostics, data, counts))
    return tokens, busy


def long_remote(f, work: Path, name: str, keep):
    """parse -> render both sides -> reparse -> isomorphic -> to/from interchange."""
    text = (work / name).read_text(encoding="utf-8")
    start = time.perf_counter()
    p = f.parse_passage(text, passage_id=name.removesuffix(".txt"))
    left = f.render(p)
    right = f.render(p, "right")
    again = f.parse_passage(left, passage_id=p.id)
    same = f.isomorphic(p, again)
    data = f.to_interchange(p)
    loaded = f.from_interchange(data)
    elapsed = time.perf_counter() - start
    if keep is not None:
        keep.append((p, right, same, data, loaded))
    return len(p.tokens), elapsed


def score_eval(f, work: Path, pair, keep):
    """from_interchange x2 -> score -> isomorphic."""
    g_data = (work / pair[0]).read_bytes()
    p_data = (work / pair[1]).read_bytes()
    start = time.perf_counter()
    gold = f.from_interchange(g_data)
    predicted = f.from_interchange(p_data)
    report = f.score(gold, predicted)
    same = f.isomorphic(gold, predicted)
    elapsed = time.perf_counter() - start
    if keep is not None:
        keep.append((gold, predicted, g_data, p_data, report, same))
    return len(gold.tokens) + len(predicted.tokens), elapsed


PIPELINES = {"corpus-batch": corpus_batch, "long-remote": long_remote, "score-eval": score_eval}


def run_pass(workload: str, f, work: Path, units, latencies: list, keep=None) -> list[float]:
    """One pass over the items in `units`: returns source tokens per second
    for each, and appends each one's seconds to `latencies`."""
    step = PIPELINES[workload]
    rates = []
    for unit in units:
        tokens, busy = step(f, work, unit, keep)
        latencies.append(busy)
        rates.append(tokens / busy)
    return rates


if __name__ == "__main__":
    from spawn import calibrate

    workload, work = sys.argv[1], Path(sys.argv[2])
    os.sched_setaffinity(0, {int(sys.argv[3])})
    functions = library()
    for line in sys.stdin:
        before = calibrate()
        seconds: list[float] = []
        rates = run_pass(workload, functions, work, json.loads(line), seconds)
        reply = {"seconds": seconds, "rates": rates, "calibration_s": (before + calibrate()) / 2}
        print(json.dumps(reply), flush=True)
