"""Correctness gate applied to every CLI call of every op.

``golden.json`` maps the key of each call of each workload's universe to
the digest of its exit code and standard output, recorded on the commit
that introduced the benchmark, or to ``fail:<error class>`` for calls that
failed there (``classify`` on stream kinds 0 and 3 raises
NormalizationFailed).  A call whose golden entry is a digest must reproduce
it byte for byte.  A call that failed on that commit may keep failing with
the recorded error class (its op then counts as failed); failing with
another class, or raising, is wrong.  Once it succeeds, its answer is
checked against facts known without the program: the verdict fixed by the
stream kind, the derived-algebra dimension (recomputed with sympy), and the
agreement of the two anti-Kahler tests in the ``check`` output of the same
input.
"""

from __future__ import annotations

import hashlib
import json
import os

from oracle import derived_dim

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
FAIL_PREFIX = "fail:"

KIND_VERDICT = {0: "abelian", 1: "r-1-1", 2: "affC", 3: "affC"}
VERDICT_DERIVED_DIM = {"abelian": 0, "r-1-1": 3, "affC": 2}

OK, FAILED, WRONG = "ok", "failed", "wrong"
SEVERITY = (OK, FAILED, WRONG)


def worst(outcomes) -> str:
    """Outcome of an op from the outcomes of its calls."""
    return max(outcomes, key=SEVERITY.index)


def digest(rc, out: str) -> str:
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()[:32]


def failure_class(rc, out: str) -> str:
    """Error class of a CLI run that did not succeed, for golden markers."""
    try:
        return json.loads(out)["error"]["class"]
    except (ValueError, KeyError, TypeError):
        return f"exit{rc}"


def load_golden(workload: str) -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)[workload]


class Gate:
    def __init__(self, golden: dict):
        self.golden = golden
        self.wrong = []             # (call key, reason)
        self._check_output = {}     # input id -> latest `check` stdout

    def judge(self, call, rc, out: str) -> str:
        if call.argv[0] == "check":
            self._check_output[call.input_id] = out
        if call.argv[0] == "verify" and rc in (0, 1):
            try:
                checks = json.loads(out)["checks"]
            except (ValueError, KeyError, TypeError):
                checks = None
            if not checks:
                return self._wrong(call, "suite reported no checks")
        expected = self.golden.get(call.key)
        if expected is None:
            return self._wrong(call, "no golden entry")
        if not expected.startswith(FAIL_PREFIX):
            if digest(rc, out) == expected:
                return OK
            return self._wrong(call, f"output differs from golden (exit {rc})")
        if rc == 0:
            reason = self._known_answer(call, out)
            return OK if reason is None else self._wrong(call, reason)
        if rc == 1:
            return self._wrong(call, "anti-Kahler input reported as not anti-Kahler")
        recorded, now = expected[len(FAIL_PREFIX):], failure_class(rc, out)
        if now != recorded:
            return self._wrong(call, f"fails with {now}, recorded {recorded}")
        return FAILED

    def _wrong(self, call, reason: str) -> str:
        self.wrong.append((call.key, reason))
        return WRONG

    def _known_answer(self, call, out: str):
        if call.argv[0] != "classify" or call.kind not in KIND_VERDICT:
            return "call failed on the recording commit and has no known answer"
        try:
            verdict = json.loads(out)["verdict"]
            predicates = json.loads(self._check_output[call.input_id])["predicates"]
        except (ValueError, KeyError, TypeError):
            return "classify or check output is not a verdict document"
        if verdict != KIND_VERDICT[call.kind]:
            return f"verdict {verdict} for stream kind {call.kind}"
        with open(call.argv[1], encoding="utf-8") as handle:
            if VERDICT_DERIVED_DIM[verdict] != derived_dim(handle.read()):
                return f"verdict {verdict} disagrees with the derived dimension"
        if predicates["anti_kahler_nabla"] != predicates["anti_kahler_theta"]:
            return "anti_kahler_nabla and anti_kahler_theta disagree"
        return None
