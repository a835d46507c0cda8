import functools
import json
import os
import pathlib
import subprocess
import sys

import uccakit

TESTS = pathlib.Path(__file__).parent
FIXTURES = TESTS / "fixtures"
CORPUS_DIR = FIXTURES / "corpus"
EDGE_DIR = FIXTURES / "edge"

CORPUS = sorted(CORPUS_DIR.glob("*.txt"))

# The directory holding the package this process imported.  Subprocess tests
# put it on the children's PYTHONPATH, so that they run the same copy, also
# when that copy is not this checkout's (as under tests/mutants.py).
SRC = pathlib.Path(uccakit.__file__).resolve().parents[1]


def corpus_ids():
    return [p.name for p in CORPUS]


def long_source(scenes: int = 150) -> str:
    """A passage of `scenes` scenes, with linkers, punctuation, a nested
    scene in every seventh and a remote participant in three of every five."""
    parts = []
    for k in range(scenes):
        nested = f" [A [A m{k}] [P saw] [A [F the] [C x{k}]]]" if k % 7 == 0 else ""
        remote = f" (n{k - 3} A)" if k >= 3 and k % 5 < 3 else ""
        scene = f"[H [A n{k}] [D often] [P took] [A [F the] [E big] [C ball]]{nested}{remote}]"
        parts += [scene, "[L and]" if k % 2 else ","]
    return " ".join(parts)


@functools.cache
def layer_memory() -> dict[str, dict[str, float]]:
    """tests/memory.py's `measure` of `long_source()`, in a fresh interpreter
    on the package this process imported."""
    script = "import json, sys, memory; print(json.dumps(memory.measure(sys.stdin.read())))"
    child = subprocess.run(
        [sys.executable, "-c", script],
        input=long_source(),
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)])),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)
