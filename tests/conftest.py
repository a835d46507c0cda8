import pathlib

import uccakit

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
CORPUS_DIR = FIXTURES / "corpus"
EDGE_DIR = FIXTURES / "edge"

CORPUS = sorted(CORPUS_DIR.glob("*.txt"))

# The directory holding the package this process imported.  Subprocess tests
# put it on the children's PYTHONPATH, so that they run the same copy, also
# when that copy is not this checkout's (as under tests/mutants.py).
SRC = pathlib.Path(uccakit.__file__).resolve().parents[1]


def corpus_ids():
    return [p.name for p in CORPUS]
