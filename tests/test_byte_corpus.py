"""Byte-identity corpus: every capture of tests/byte_corpus.json, replayed.

Each capture is one CLI call run in-process through ``main()`` on inputs
regenerated here; its (exit code, stdout, stderr) must hash to the recorded
digest, and its input file to the recorded input digest.  A change that
means to alter an output records the corpus again with
``tests/record_byte_corpus.py`` and names the captures that changed.
"""

import json

from record_byte_corpus import CORPUS_PATH, run, write_inputs


def test_every_capture_is_byte_identical(tmp_path, monkeypatch):
    corpus = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))
    digests = write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    inputs_differ, outputs_differ = [], []
    for capture in corpus:
        argv, name = capture["argv"], " ".join(capture["argv"])
        if capture["input_sha256"] is not None and \
                digests.get(argv[1]) != capture["input_sha256"]:
            inputs_differ.append(name)
        elif run(argv) != capture["output_sha256"]:
            outputs_differ.append(name)
    assert len(corpus) == 722
    assert (inputs_differ, outputs_differ) == ([], [])
