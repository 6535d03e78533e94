"""Seeded inputs and op lists of the three benchmark workloads.

Every workload draws its inputs from a fixed universe whose outputs were
recorded once (``golden.json``), so each op can be checked against an
exact digest whatever ``--seed`` is:

- ``highdim-ladder``: seven dim-8/dim-10 structure slots; five of them come
  in ``VARIANTS`` seeded variants and the seed picks one variant per slot.
  Each structure is checked and its curvature dumped, except that the two
  heaviest dense slots only have their curvature dumped.
- ``dim4-classify``: the ``random_structure`` stream of the dim-4 generator
  at ``DIM4_MASTER_SEED``; the seed picks ``DIM4_PER_KIND`` stream indices
  of each of the six kinds out of the first ``DIM4_UNIVERSE_PER_KIND``.
  Each structure is checked and then classified.
- ``verify-cli``: every suite at dims 4 and 6, as one CLI process each; the
  seed picks the suite seed out of ``VARIANTS`` recorded ones.

Run as a script, this module is the benchmark's set-up step: it imports the
package from ``src``, generates the selected inputs and writes them with a
manifest of ops into a directory::

    python3 perfbench/workloads.py <workload> <seed> <directory>
"""

from __future__ import annotations

import json
import os
import random
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

WORKLOADS = ("highdim-ladder", "dim4-classify", "verify-cli")

VARIANTS = 16
COEFFICIENT_BOUND = 2

# slot -> (dimension, kind); kinds: generic sparse/dense, anti-Kahler sparse/dense
HIGHDIM_SLOTS = {
    "g8s": (8, "generic"),
    "g8d": (8, "generic-dense"),
    "ak8s": (8, "anti-kahler"),
    "ak8d": (8, "anti-kahler-dense"),
    "g10s": (10, "generic"),
    "ak10s": (10, "anti-kahler"),
    "g10d": (10, "generic-dense"),
}
HIGHDIM_COMMANDS = ("check", "curvature")
# The check of these two dense slots took 3-5 s on a busy host, three times
# the median op or more; only their curvature is run, so that no op
# dominates a pass.
HIGHDIM_CURVATURE_ONLY = ("ak8d", "g10d")

DIM4_MASTER_SEED = 20240601
DIM4_UNIVERSE_PER_KIND = 64
DIM4_PER_KIND = 16
DIM4_COMMANDS = ("check", "classify")

VERIFY_DIMS = (4, 6)
VERIFY_SEED_BASE = 1000


@dataclass(frozen=True)
class Call:
    """One CLI call: ``argv`` for the CLI, ``key`` into golden.json."""

    key: str
    argv: tuple
    input_id: str
    kind: Optional[int] = None


# An op, the unit that is timed, is a tuple of calls run one after another:
# one call on highdim-ladder and verify-cli, check then classify on dim4-classify.


def selection_rng(seed: int, workload: str) -> random.Random:
    """The selection RNG of a workload; the same seed gives the same inputs."""
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# structure builders (package public API only)


def _direct_sum_algebra(a, b):
    from antikahler.liealg import LieAlgebra

    n, m = a.dim, b.dim
    zero = Fraction(0)
    brackets = {}
    for (i, j), vec in a.nonzero_brackets().items():
        brackets[(i, j)] = list(vec) + [zero] * m
    for (i, j), vec in b.nonzero_brackets().items():
        brackets[(i + n, j + n)] = [zero] * n + list(vec)
    return LieAlgebra.from_brackets(n + m, brackets)


def _block(x, y):
    from antikahler.scalars import Matrix

    n, m = x.nrows, y.nrows
    zero = Fraction(0)
    return Matrix([list(row) + [zero] * m for row in x.rows]
                  + [[zero] * n + list(row) for row in y.rows])


def _direct_sum(s, t):
    from antikahler.geometry import AntiHermitianStructure

    return AntiHermitianStructure(_direct_sum_algebra(s.algebra, t.algebra),
                                  _block(s.g, t.g), _block(s.J, t.J))


def highdim_structure(slot: str, variant: int):
    """The structure of one ladder slot; fixed slots ignore ``variant``."""
    from antikahler import catalog
    from antikahler.classify4 import (aff_c_real, r_minus_one_minus_one,
                                      transform_algebra, transform_structure)
    from antikahler.verifier import (random_anti_hermitian_metric,
                                     random_complex_structure,
                                     random_invertible_matrix)

    dim, kind = HIGHDIM_SLOTS[slot]
    rng = random.Random(f"highdim:{slot}:{variant}")
    bound = COEFFICIENT_BOUND
    if kind.startswith("generic"):
        if dim == 8:
            algebra = _direct_sum_algebra(aff_c_real(), r_minus_one_minus_one())
        else:
            algebra = _direct_sum_algebra(catalog.get("n7_J-1").structure.algebra,
                                          aff_c_real())
        if kind == "generic-dense":
            algebra = transform_algebra(
                algebra, random_invertible_matrix(rng, dim, bound))
        j_map = random_complex_structure(rng, dim, bound)
        return random_anti_hermitian_metric(algebra, j_map, rng, bound)
    affc = catalog.get("affC_std").structure
    if dim == 8:
        product = _direct_sum(catalog.get("r-1-1_std").structure, affc)
    else:
        product = _direct_sum(catalog.get("n7_J-1").structure, affc)
    if kind == "anti-kahler-dense":
        return transform_structure(product, random_invertible_matrix(rng, dim, bound))
    return product


def highdim_varies(slot: str) -> bool:
    return HIGHDIM_SLOTS[slot][1] != "anti-kahler"


def dim4_structure(index: int):
    from antikahler.verifier import GeneratorConfig, random_structure

    return random_structure(GeneratorConfig(dim=4, master_seed=DIM4_MASTER_SEED), index)


# ---------------------------------------------------------------------------
# selection and op lists


def select(workload: str, seed: int) -> list:
    """The inputs of one run, as a selection from the workload's universe."""
    rng = selection_rng(seed, workload)
    if workload == "highdim-ladder":
        return [(slot, rng.randrange(VARIANTS) if highdim_varies(slot) else 0)
                for slot in HIGHDIM_SLOTS]
    if workload == "dim4-classify":
        return sorted(6 * r + kind for kind in range(6)
                      for r in rng.sample(range(DIM4_UNIVERSE_PER_KIND), DIM4_PER_KIND))
    return [(suite, dim, VERIFY_SEED_BASE + rng.randrange(VARIANTS))
            for dim in VERIFY_DIMS for suite in _suites()]


def universe(workload: str) -> list:
    """Every input a seed can select, in the form ``select`` returns."""
    if workload == "highdim-ladder":
        return [(slot, v) for slot in HIGHDIM_SLOTS
                for v in (range(VARIANTS) if highdim_varies(slot) else (0,))]
    if workload == "dim4-classify":
        return list(range(6 * DIM4_UNIVERSE_PER_KIND))
    return [(suite, dim, VERIFY_SEED_BASE + v) for v in range(VARIANTS)
            for dim in VERIFY_DIMS for suite in _suites()]


def _suites():
    from antikahler.verifier import list_suites

    return list_suites()


def _input_file(workload: str, item, directory: str) -> str:
    name = f"{item[0]}.{item[1]}.txt" if workload == "highdim-ladder" else f"s{item}.txt"
    return os.path.join(directory, name)


def ops_for(workload: str, selection, directory: str) -> list:
    """The op list of a selection whose inputs live in ``directory``."""
    ops = []
    for item in selection:
        if workload == "verify-cli":
            suite, dim, seed = item
            argv = ("verify", suite, "--seed", str(seed), "--dim", str(dim), "--output",
                    "machine")
            ops.append((Call(f"{suite}.{dim}.{seed}", argv, f"{suite}.{dim}.{seed}"),))
            continue
        path = _input_file(workload, item, directory)
        if workload == "highdim-ladder":
            input_id = f"{item[0]}.{item[1]}"
            commands = (("curvature",) if item[0] in HIGHDIM_CURVATURE_ONLY
                        else HIGHDIM_COMMANDS)
            ops += [(Call(f"{input_id}.{cmd}", (cmd, path, "--output", "machine"), input_id),)
                    for cmd in commands]
        else:
            ops.append(tuple(Call(f"{item}.{cmd}", (cmd, path, "--output", "machine"),
                                  str(item), kind=item % 6) for cmd in DIM4_COMMANDS))
    return ops


def prepare(workload: str, selection, directory: str) -> list:
    """Generate and write the inputs of a selection; return its op list."""
    from antikahler.cli.textio import format_structure

    os.makedirs(directory, exist_ok=True)
    for item in selection if workload != "verify-cli" else ():
        structure = (highdim_structure(*item) if workload == "highdim-ladder"
                     else dim4_structure(item))
        with open(_input_file(workload, item, directory), "w", encoding="utf-8") as handle:
            handle.write(format_structure(structure))
    return ops_for(workload, selection, directory)


def write_manifest(ops: list, directory: str) -> None:
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump([[asdict(call) for call in op] for op in ops], handle)


def read_manifest(directory: str) -> list:
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as handle:
        return [tuple(Call(d["key"], tuple(d["argv"]), d["input_id"], d["kind"]) for d in op)
                for op in json.load(handle)]


if __name__ == "__main__":
    sys.path.insert(0, os.path.abspath("src"))
    name, seed_text, out_dir = sys.argv[1:4]
    write_manifest(prepare(name, select(name, int(seed_text)), out_dir), out_dir)
