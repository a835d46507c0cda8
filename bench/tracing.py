"""Per-layer measurement for the uccakit benchmark: spans and size series.

The tracer swaps uccakit's public functions, where each module looks them
up, for span recorders, without touching the package's source.  A span is
(name, start, end, parent); spans stay in memory until the run writes
them out.  The size series time each layer at two sizes 4x apart.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import statistics
import time
from collections import Counter, defaultdict
from types import SimpleNamespace

import gen
from pipelines import LIBRARY, library, real

# What each layer counts as its work, from (arguments, result).
WORK = {
    "notation.split_passages": ("bytes", lambda a, r: len(a[0].encode("utf-8"))),
    "notation.lex": ("tokens", lambda a, r: len(r)),
    "notation.parse_passage": ("tokens", lambda a, r: len(r.tokens)),
    "core.build_passage": ("units", lambda a, r: len(r.units)),
    "validation.validate": ("diagnostics", lambda a, r: len(r)),
    "notation.render": ("bytes", lambda a, r: len(r.encode("utf-8"))),
    "interchange.to_interchange": ("bytes", lambda a, r: len(r)),
    "interchange.from_interchange": ("bytes", lambda a, r: len(a[0])),
    "scoring.score": ("edges", lambda a, r: r.labeled_primary.gold + r.labeled_primary.predicted
                      + r.labeled_remote.gold + r.labeled_remote.predicted),
    "core.isomorphic": ("units", lambda a, r: len(a[0].units) + len(a[1].units)),
    "core.stats": ("edges", lambda a, r: r.edges),
    "cli.main": (None, None),
}
LAYERS = list(WORK)

# (module, attribute looked up there, layer).  uccakit.cli imports its
# layer functions by name; notation and interchange call lex and
# build_passage through their own module globals.
PATCHES = [
    ("uccakit.notation", "lex", "notation.lex"),
    ("uccakit.notation", "build_passage", "core.build_passage"),
    ("uccakit.interchange", "build_passage", "core.build_passage"),
    ("uccakit.cli", "split_passages", "notation.split_passages"),
    ("uccakit.cli", "parse_passage", "notation.parse_passage"),
    ("uccakit.cli", "validate", "validation.validate"),
    ("uccakit.cli", "render", "notation.render"),
    ("uccakit.cli", "to_interchange", "interchange.to_interchange"),
    ("uccakit.cli", "from_interchange", "interchange.from_interchange"),
    ("uccakit.cli", "score", "scoring.score"),
    ("uccakit.cli", "stats", "core.stats"),
]


class Tracer:
    """Records a span around every call of a wrapped function."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._open: list[int] = []

    def wrap(self, layer: str, fn):
        what, count = WORK[layer]

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [layer, 0.0, 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            failed = True
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
                self.counts[layer]["calls"] += 1
                self.counts[layer]["failed"] += failed
            if what:
                self.counts[layer][what] += count(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every looked-up name for the duration; yields the traced
        library functions."""
        saved = []
        wrapped = {}
        try:
            for module_name, attr, layer in PATCHES:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(layer, getattr(module, attr)))
            for key, layer in LIBRARY.items():
                wrapped[key] = self.wrap(layer, real(layer))
            yield SimpleNamespace(**wrapped)
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """busy_s, self_s and work counts per layer."""
        busy = Counter()
        child = Counter()
        for name, start, end, parent in self.spans:
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.counts[layer]["calls"]
            out[f"{layer}.busy_s"] = busy[layer]
            out[f"{layer}.self_s"] = own[layer]
            what = WORK[layer][0]
            if what:
                out[f"{layer}.{what}"] = self.counts[layer][what]
        out["notation.render.failed"] = self.counts["notation.render"]["failed"]
        return out

    def dump(self) -> list:
        return [[n, round(s, 9), round(e, 9), p] for n, s, e, p in self.spans]


# ---------------------------------------------------------------------------
# Size series

GROWTH_LAYERS = [
    "notation.parse_passage",
    "core.build_passage",
    "validation.validate",
    "notation.render",
    "interchange.to_interchange",
    "interchange.from_interchange",
    "scoring.score",
    "core.isomorphic",
]

# Two sizes 4x apart per dimension.  The remotes series tops out at 2,001
# units and 400 remotes.  Depth stops at 200 levels: `isomorphic` raises
# RecursionError between 300 and 350 levels of this nesting.
SERIES = {
    "scenes": (100, 400),
    "remotes": (100, 400),
    "depth": (50, 200),
}


def _series_input(rng, dim: str, n: int) -> str:
    if dim == "depth":
        return gen.nested_passage(rng, n)
    return gen.scenes_passage(rng, n, with_remotes=dim == "remotes")


def _calls(text: str):
    from uccakit import EdgeSpec, UnitSpec

    f = library()
    build = real("core.build_passage")
    p = f.parse_passage(text)
    q = f.parse_passage(text)
    data = f.to_interchange(p)
    units = [UnitSpec(u.id, u.kind, tuple(sorted(u.tokens))) for u in p.units.values()]
    edges = [EdgeSpec(e.parent, e.child, e.categories, e.remote) for e in p.edges()]
    return {
        "notation.parse_passage": lambda: f.parse_passage(text),
        "core.build_passage": lambda: build(p.tokens, units, edges, require_coverage=False),
        "validation.validate": lambda: f.validate(p),
        "notation.render": lambda: f.render(p),
        "interchange.to_interchange": lambda: f.to_interchange(p),
        "interchange.from_interchange": lambda: f.from_interchange(data),
        "scoring.score": lambda: f.score(p, q),
        "core.isomorphic": lambda: f.isomorphic(p, q),
    }


def _time(call, budget=0.15, least=3, most=40) -> float:
    """Median of repeated calls: at least `least`, more while under `budget` seconds."""
    samples = []
    spent = 0.0
    while len(samples) < least or (spent < budget and len(samples) < most):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
        spent += samples[-1]
    return statistics.median(samples)


def growth(rng) -> dict[str, float]:
    """<layer>.growth.<dim> = log(t(4n) / t(n)) / log 4 for every layer and dimension."""
    out = {}
    for dim, (small, large) in SERIES.items():
        low = _calls(_series_input(rng, dim, small))
        high = _calls(_series_input(rng, dim, large))
        for layer in GROWTH_LAYERS:
            t_low, t_high = _time(low[layer]), _time(high[layer])
            out[f"{layer}.growth.{dim}"] = math.log(t_high / t_low) / math.log(4)
    return out
