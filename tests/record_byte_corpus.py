"""Record byte_corpus.json: the digest of every capture of the byte-identity corpus.

    PYTHONPATH=src python3 tests/record_byte_corpus.py

Run from the root of a checkout, on the commit whose outputs are the
reference.  The corpus inputs are written to a temporary directory, and each
capture, one CLI call run in-process through ``main()``, is recorded with its
argv, the sha256 of its input file (None when it reads none) and the sha256
of its (exit code, stdout, stderr).  ``tests/test_byte_corpus.py`` replays
the same captures and names each one whose digest differs.

The inputs: every catalog entry, the seed-77 ``random_structure`` stream at
indices 0-35 of dims 4 and 6, and its odd indices again after the random
rational basis change of ``tests/corpora.py``.  Each is run
through check, curvature and classify in both output modes.  Besides them:
``verify --output machine`` of every suite at dims 4 and 6, seed 1007, and
catalog show and export of two entries.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from corpora import CATALOG, changed_basis, stream_structure

from antikahler.cli.main import main as cli_main
from antikahler.cli.textio import format_structure
from antikahler.verifier import list_suites

CORPUS_PATH = Path(__file__).resolve().parent / "byte_corpus.json"

STREAM_INDICES = range(36)
VERIFY_SEED = 1007
CATALOG_ENTRIES = ("n7_J-1", "sl2c_killing")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def inputs() -> dict:
    """File name -> text of every corpus input."""
    structures = dict(CATALOG)
    for dim in (4, 6):
        for index in STREAM_INDICES:
            s = structures[f"stream{dim}-{index}"] = stream_structure(dim, index)
            if index % 2:
                structures[f"stream{dim}-{index}-basis"] = changed_basis(s, f"{dim}:{index}")
    return {f"{name}.txt": format_structure(s) for name, s in structures.items()}


def captures(files) -> list:
    """(argv, input file name or None) of every capture."""
    out = [((command, name, "--output", mode), name)
           for name in files
           for command in ("check", "curvature", "classify")
           for mode in ("human", "machine")]
    out += [(("verify", suite, "--seed", str(VERIFY_SEED), "--dim", str(dim),
              "--output", "machine"), None)
            for dim in (4, 6) for suite in list_suites()]
    for name in CATALOG_ENTRIES:
        out += [(("catalog", "show", name), None),
                (("catalog", "show", name, "--output", "machine"), None),
                (("catalog", "export", name), None)]
    return out


def run(argv) -> str:
    """The sha256 of (exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return sha256(json.dumps([code, out.getvalue(), err.getvalue()]))


def write_inputs(directory) -> dict:
    """Write every input into directory; file name -> sha256 of its text."""
    digests = {}
    for name, text in inputs().items():
        Path(directory, name).write_text(text, encoding="utf-8")
        digests[name] = sha256(text)
    return digests


def record() -> list:
    with tempfile.TemporaryDirectory() as directory:
        digests = write_inputs(directory)
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            return [{"argv": list(argv), "input_sha256": digests.get(name),
                     "output_sha256": run(argv)}
                    for argv, name in captures(digests)]
        finally:
            os.chdir(cwd)


def main() -> int:
    corpus = record()
    with open(CORPUS_PATH, "w", encoding="utf-8") as handle:
        handle.write("[\n" + ",\n".join(json.dumps(c) for c in corpus) + "\n]\n")
    print(f"{len(corpus)} captures written to {CORPUS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
