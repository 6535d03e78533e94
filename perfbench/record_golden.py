"""Record golden.json: the digest of every op of every workload's universe.

    python3 perfbench/record_golden.py <workload> [<workload> ...]

Run from the root of a checkout, on the commit whose outputs are the
reference.  Each op of the universe (every variant of every ladder slot,
every recorded dim-4 stream index, every suite at every recorded seed) is
run once through the same runner the benchmark uses, and its digest, or
``fail:<class>`` when it does not succeed, is merged into golden.json.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from gate import FAIL_PREFIX, GOLDEN_PATH, digest, failure_class  # noqa: E402
from run import InProcessRunner, ProcessRunner, import_package  # noqa: E402


def record(workload: str, root: str) -> dict:
    directory = os.path.join(root, ".perfbench_work", "golden", workload)
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    ops = workloads.prepare(workload, workloads.universe(workload),
                            os.path.relpath(directory, root))
    runner = (ProcessRunner if workload == "verify-cli" else InProcessRunner)(root)
    calls = [call for op in ops for call in op]
    entries = {}
    for number, call in enumerate(calls, 1):
        rc, out = runner.run(call)
        if rc == 0 or (rc == 1 and call.argv[0] == "classify"):
            entries[call.key] = digest(rc, out)
        else:
            entries[call.key] = FAIL_PREFIX + failure_class(rc, out)
            print(f"{call.key}: {entries[call.key]}", file=sys.stderr)
        if number % 50 == 0:
            print(f"{workload}: {number}/{len(calls)}", file=sys.stderr)
    return entries


def main() -> int:
    root = os.getcwd()
    import_package(root)
    golden = {}
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            golden = json.load(handle)
    for workload in sys.argv[1:]:
        golden[workload] = record(workload, root)
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=0, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
