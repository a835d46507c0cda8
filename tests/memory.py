"""Traced memory per layer: what `parse_passage`, `to_interchange`,
`from_interchange` and `render` peak at on one passage, and what is left
allocated once each has returned.

    python tests/memory.py [SEED]

generates the benchmark's long-remote passages for SEED (default 1) with
bench/gen.py, which it only reads, and prints a Markdown table for the
first one, L0.  The tests run `measure` in a child interpreter, on a
passage they build, and bound its ratios.  Only the standard library is
used; the name keeps pytest from collecting this file.
"""

from __future__ import annotations

import gc
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def traced(call):
    """(result, peak, held) of `call()`, in bytes traced from its start.
    `held` is counted after a full collection, which also empties the
    interpreter's free lists, so it is what the result keeps alive."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return result, peak, held


def measure(source: str) -> dict[str, dict[str, float]]:
    """Each layer's peak and held bytes on the passage `source`, and for the
    readers and writers the tests bound, the ratio they bound.  Every layer
    runs once first, so that first-use tables are filled before tracing."""
    from uccakit import from_interchange, parse_passage, render, to_interchange

    render(from_interchange(to_interchange(parse_passage(source))))
    passage, peak, held = traced(lambda: parse_passage(source))
    out = {"parse_passage": dict(peak=peak, held=held, ratio=(peak - held) / held,
                                 what="(peak - held) / held")}
    data, peak, held = traced(lambda: to_interchange(passage))
    out["to_interchange"] = dict(peak=peak, held=held, ratio=peak / len(data),
                                 what="peak / result bytes")
    _, peak, held = traced(lambda: from_interchange(data))
    out["from_interchange"] = dict(peak=peak, held=held, ratio=(peak - held) / len(data),
                                   what="(peak - held) / document bytes")
    _, peak, held = traced(lambda: render(passage))
    out["render"] = dict(peak=peak, held=held)
    return out


def main(seed: int) -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    import gen

    with tempfile.TemporaryDirectory() as tmp:
        gen.long_remote(seed, Path(tmp))
        source = (Path(tmp) / "L0.txt").read_text(encoding="utf-8")
    print(f"Traced memory per layer, long-remote seed {seed}, passage L0 (a bracket source"
          f" of {len(source.encode('utf-8')):,} bytes), Python {sys.version.split()[0]}\n")
    print("| layer | peak KB | held KB | ratio | of |")
    print("|---|---:|---:|---:|---|")
    for layer, m in measure(source).items():
        ratio = f"{m['ratio']:.2f} | {m['what']}" if "ratio" in m else "|"
        print(f"| `{layer}` | {m['peak'] / 1024:,.0f} | {m['held'] / 1024:,.0f} | {ratio} |")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1)
