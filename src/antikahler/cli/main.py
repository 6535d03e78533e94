"""Command-line interface.

Commands: check, curvature, classify, catalog (list | show | export) and
verify.  Every command accepts --output human|machine; machine output is a
single JSON document whose numbers are exact rational strings, never floats.
Exit codes: 0 success, 1 semantic failure (classify on a non-anti-Kahler
input, verify with failing assertions) or stdout closed early, 2 input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from .. import catalog
from ..classify4 import (
    NormalizationFailedError,
    NotAntiKahlerError,
    classify,
)
from ..geometry import (
    curvature,
    curvature_is_pure,
    is_anti_kahler,
    is_bi_invariant_metric,
    is_einstein,
    is_flat,
    is_ricci_flat,
    killing_anti_invariant,
    levi_civita,
    ricci,
)
from ..liealg import (
    LieAlgebra,
    is_abelian_j,
    is_anti_abelian_j,
    is_bi_invariant_j,
    nijenhuis,
)
from ..scalars import format_rational, signature
from ..theta import anti_kahler_via_theta
from ..verifier import GeneratorConfig, UnknownSuiteError, list_suites, run_suite
from .textio import StructureFileError, StructureSyntaxError, format_structure, parse_structure


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antikahler",
        description="exact computations with left-invariant anti-Kahler structures")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--output", choices=("human", "machine"), default="human")

    p_check = sub.add_parser("check", help="validate a file and run the predicate ladder")
    p_check.add_argument("file")
    add_output(p_check)

    p_curv = sub.add_parser("curvature", help="dump connection, curvature and Ricci")
    p_curv.add_argument("file")
    add_output(p_curv)

    p_cls = sub.add_parser("classify", help="run the dimension-4 classification")
    p_cls.add_argument("file")
    add_output(p_cls)

    p_cat = sub.add_parser("catalog", help="list, show or export built-in structures")
    p_cat.add_argument("action", choices=("list", "show", "export"))
    p_cat.add_argument("name", nargs="?")
    add_output(p_cat)

    p_ver = sub.add_parser("verify", help="run a randomized proposition suite")
    p_ver.add_argument("suite")
    p_ver.add_argument("--seed", type=int, default=20240601)
    p_ver.add_argument("--samples", type=int, default=12)
    p_ver.add_argument("--dim", type=int, choices=(4, 6), default=4)
    add_output(p_ver)

    return parser


# main() builds its parser on the first call and reuses it after that.
_shared_parser = functools.cache(build_parser)


def main(argv: Optional[list] = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed early, as by `| head`: write nothing more, and
        # send what is still buffered to os.devnull so the final flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (StructureSyntaxError, StructureFileError) as exc:
        _emit_error(args, getattr(exc, "code", "SyntaxError"),
                    getattr(exc, "line", 0), str(exc))
        return 2
    except OSError as exc:
        _emit_error(args, "IOError", 0, str(exc))
        return 2
    except UnicodeDecodeError as exc:
        _emit_error(args, "EncodingError", 0, f"input is not UTF-8 text: {exc}")
        return 2


def _emit_error(args, code: str, line: int, message: str):
    if getattr(args, "output", "human") == "machine":
        print(json.dumps({"error": {"class": code, "line": line,
                                    "message": message}},
                         indent=2, sort_keys=True))
    else:
        print(f"error[{code}] {message}", file=sys.stderr)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_structure(handle.read())


def _emit(args, document: dict, human_lines: list):
    if args.output == "machine":
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _terms(texts) -> str:
    """'c e1 + c e2 ...' over the nonzero coefficient strings, or ''."""
    return " + ".join(f"{t} e{k + 1}" for k, t in enumerate(texts) if t != "0")


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _cmd_check(args) -> int:
    obj = _load(args.file)
    if isinstance(obj, LieAlgebra):
        doc = {
            "command": "check",
            "valid": True,
            "dim": obj.dim,
            "structure": "algebra",
            "predicates": {
                "unimodular": obj.is_unimodular(),
                "abelian": obj.is_abelian(),
            },
            "derived_dim": obj.derived_dim(),
            "center_dim": obj.center_dim(),
        }
        human = [f"valid algebra, dim {obj.dim}",
                 f"unimodular: {_flag(doc['predicates']['unimodular'])}",
                 f"derived_dim: {doc['derived_dim']}",
                 f"center_dim: {doc['center_dim']}"]
        _emit(args, doc, human)
        return 0
    s = obj
    einstein, lam = is_einstein(s)
    sig = signature(s.g)
    anti_kahler, abelian_j = is_anti_kahler(s), is_abelian_j(s.algebra, s.J)
    # anti-Kahler curvature is pure, and flat when J is also abelian; the
    # curvature_purity and abelian_implies_flat suites test both theorems
    predicates = {
        "anti_hermitian": True,
        "abelian_complex_structure": abelian_j,
        "bi_invariant_complex_structure": is_bi_invariant_j(s.algebra, s.J),
        "anti_abelian_complex_structure": is_anti_abelian_j(s.algebra, s.J),
        "nijenhuis_zero": nijenhuis(s.algebra, s.J).is_zero(),
        "unimodular": s.algebra.is_unimodular(),
        "anti_kahler_nabla": anti_kahler,
        "anti_kahler_theta": anti_kahler_via_theta(s),
        "flat": (anti_kahler and abelian_j) or is_flat(s),
        "einstein": einstein,
        "ricci_flat": is_ricci_flat(s),
        "curvature_pure": anti_kahler or curvature_is_pure(s),
        "killing_anti_invariant": killing_anti_invariant(s),
        "bi_invariant_metric": is_bi_invariant_metric(s),
    }
    doc = {
        "command": "check",
        "valid": True,
        "dim": s.dim,
        "structure": "anti_hermitian",
        "signature": list(sig),
        "predicates": predicates,
        "einstein_constant": format_rational(lam) if einstein else None,
    }
    human = [f"valid anti-Hermitian structure, dim {s.dim}",
             f"signature: {sig}"]
    human += [f"{key}: {_flag(val)}" for key, val in predicates.items()]
    if einstein:
        human.append(f"einstein_constant: {format_rational(lam)}")
    _emit(args, doc, human)
    return 0


def _cmd_curvature(args) -> int:
    obj = _load(args.file)
    if isinstance(obj, LieAlgebra):
        _emit_error(args, "SyntaxError", 0,
                    "curvature needs metric and complex-structure sections")
        return 2
    s = obj
    gamma = levi_civita(s).tensor.texts()
    r = curvature(s).tensor
    rc, ric = ricci(s)
    n = s.dim
    riemann = r.texts()
    ricci_rows = rc.texts()
    if args.output == "machine":
        print(json.dumps({
            "command": "curvature",
            "dim": n,
            "gamma": gamma,
            "riemann": riemann,
            "ricci": ricci_rows,
            "ricci_operator": ric.texts(),
        }, indent=2, sort_keys=True))
        return 0
    for i in range(n):
        for j in range(n):
            if terms := _terms(gamma[i][j]):
                print(f"nabla e{i + 1} e{j + 1} = {terms}")
    flat = r.is_zero()
    print(f"flat: {_flag(flat)}")
    if not flat:
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    if terms := _terms(riemann[i][j][k]):
                        print(f"R(e{i + 1}, e{j + 1}) e{k + 1} = {terms}")
    print("ricci:")
    for row in ricci_rows:
        print("  " + " ".join(row))
    return 0


def _cmd_classify(args) -> int:
    obj = _load(args.file)
    if isinstance(obj, LieAlgebra) or obj.dim != 4:
        _emit_error(args, "SyntaxError", 0,
                    "classify needs a dimension-4 anti-Hermitian structure")
        return 2
    try:
        report = classify(obj)
    except NotAntiKahlerError as exc:
        doc = {"command": "classify", "anti_kahler": False,
               "error": {"class": "NotAntiKahler", "message": str(exc)}}
        _emit(args, doc, [f"not anti-Kahler: {exc}"])
        return 1
    except NormalizationFailedError as exc:
        _emit_error(args, "NormalizationFailed", 0, str(exc))
        return 2
    doc = {
        "command": "classify",
        "anti_kahler": True,
        "verdict": report.verdict,
        "zeta": str(report.zeta) if report.zeta is not None else None,
        "flat": report.flat,
        "einstein": report.einstein,
        "lambda": (format_rational(report.einstein_constant)
                   if report.einstein_constant is not None else None),
        "ricci_flat": report.ricci_flat,
        "witness": [[format_rational(x) for x in row] for row in report.witness.rows]
        if report.witness is not None else None,
    }
    human = [f"verdict: {report.verdict}"]
    if report.zeta is not None:
        human.append(f"zeta: {report.zeta}")
    human.append(f"flat: {_flag(report.flat)}")
    human.append(f"einstein: {_flag(report.einstein)}")
    if report.einstein_constant is not None:
        human.append(f"lambda: {format_rational(report.einstein_constant)}")
    human.append(f"ricci_flat: {_flag(report.ricci_flat)}")
    _emit(args, doc, human)
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "list":
        names = catalog.list_names()
        _emit(args, {"command": "catalog", "names": list(names)}, list(names))
        return 0
    if args.name is None:
        _emit_error(args, "SyntaxError", 0, "catalog show/export needs a name")
        return 2
    try:
        entry = catalog.get(args.name)
    except catalog.UnknownEntryError:
        _emit_error(args, "UnknownEntry", 0, f"no catalog entry {args.name!r}")
        return 2
    if args.action == "export":
        sys.stdout.write(format_structure(entry.structure))
        return 0
    s = entry.structure
    einstein, lam = is_einstein(s)
    doc = {
        "command": "catalog",
        "name": entry.name,
        "description": entry.description,
        "dim": s.dim,
        "anti_kahler": is_anti_kahler(s),
        "flat": is_flat(s),
        "einstein": einstein,
        "lambda": format_rational(lam) if einstein else None,
        "unimodular": s.algebra.is_unimodular(),
        "signature": list(signature(s.g)),
    }
    human = [f"{entry.name}: {entry.description}",
             f"dim: {s.dim}",
             f"anti_kahler: {_flag(doc['anti_kahler'])}",
             f"flat: {_flag(doc['flat'])}",
             f"einstein: {_flag(einstein)}"]
    if einstein:
        human.append(f"lambda: {format_rational(lam)}")
    _emit(args, doc, human)
    return 0


def _cmd_verify(args) -> int:
    if args.samples <= 0:
        _emit_error(args, "SyntaxError", 0,
                    f"--samples must be a positive integer, got {args.samples}")
        return 2
    config = GeneratorConfig(master_seed=args.seed, samples=args.samples,
                             dim=args.dim)
    try:
        report = run_suite(args.suite, config)
    except UnknownSuiteError:
        _emit_error(args, "UnknownSuite", 0,
                    f"unknown suite {args.suite!r}; known: {', '.join(list_suites())}")
        return 2
    if args.output == "machine":
        print(json.dumps(report.to_machine(), indent=2, sort_keys=True))
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.passed else 1


_COMMANDS = {
    "check": _cmd_check,
    "curvature": _cmd_curvature,
    "classify": _cmd_classify,
    "catalog": _cmd_catalog,
    "verify": _cmd_verify,
}


if __name__ == "__main__":
    sys.exit(main())
