"""One traced CLI process of the verify-cli workload.

    python3 perfbench/traced_child.py <aggregate.json> <antikahler CLI args...>

Installs the tracer around the package's functions, runs the CLI in this
process with the given arguments, writes the spans and their aggregate to
the JSON file, and exits with the CLI's exit code.  Expects ``src`` on
PYTHONPATH.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer, install  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    from antikahler.cli import main as cli_main

    tracer = Tracer()
    install(tracer)
    tracer.begin_command(argv[0])
    try:
        rc = cli_main.main(argv)
    finally:
        tracer.end_command()
        tracer.dump(out_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
