"""Line-oriented text format for algebras and anti-Hermitian structures.

Grammar: '#' starts a comment; section headers are exactly [algebra],
[metric] and [complex_structure].  The algebra section has one 'dim = N'
line, 1 <= N <= MAX_DIM (64), and bracket lines
'bracket e<i> e<j> = <coeff> e<k> [+ <coeff> e<k>]...' with i < j; unlisted
brackets are zero, duplicates are errors.  Matrix sections hold dim rows
'row = r1 r2 ... rdim' of rational tokens.  Printing is canonical, so
parse -> print -> parse is the identity byte for byte.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Union

from ..geometry import (
    AntiHermitianStructure,
    BadJSquareError,
    NotAntiIsometryError,
    SingularMetricError,
)
from ..liealg import AntisymmetryViolation, JacobiViolation, LieAlgebra
from ..scalars import Matrix, format_rational, parse_rational


class StructureSyntaxError(ValueError):
    """Malformed input text; `code` and `line` feed the CLI error document."""

    code = "SyntaxError"

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.reason = message


class StructureFileError(ValueError):
    """Validation failure, wrapping the underlying exception with a line."""

    def __init__(self, code: str, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.code = code
        self.line = line
        self.reason = message


_SECTIONS = ("[algebra]", "[metric]", "[complex_structure]")

# Largest accepted 'dim'; checked before anything of that size is allocated.
MAX_DIM = 64

# Integers in 'dim' lines and basis tokens: ASCII digits only, as int() would
# also take other Unicode decimal digits and underscores.
_DIM_RE = re.compile(r"[+-]?[0-9]+")
_BASIS_RE = re.compile(r"e([0-9]+)")


def parse_structure(text: str) -> Union[LieAlgebra, AntiHermitianStructure]:
    """Parse the text format; returns a bare LieAlgebra when the metric and
    complex-structure sections are absent."""
    section = None
    section_lines = {}
    dim: Optional[int] = None
    dim_line = 0
    brackets: dict = {}
    bracket_lines: dict = {}
    matrix_rows: dict = {"[metric]": [], "[complex_structure]": []}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line not in _SECTIONS:
                raise StructureSyntaxError(lineno, f"unknown section {line}")
            if line in section_lines:
                raise StructureSyntaxError(lineno, f"duplicate section {line}")
            if line != "[algebra]" and "[algebra]" not in section_lines:
                raise StructureSyntaxError(lineno, "[algebra] section must come first")
            section_lines[line] = lineno
            section = line
            continue
        if section is None:
            raise StructureSyntaxError(lineno, "content before any section header")
        if section == "[algebra]":
            new_dim = _parse_algebra_line(line, lineno, brackets, bracket_lines, dim)
            if new_dim is not None:
                dim, dim_line = new_dim, lineno
        else:
            tokens = line.split()
            if len(tokens) < 2 or tokens[0] != "row" or tokens[1] != "=":
                raise StructureSyntaxError(lineno, "expected 'row = ...' line")
            if dim is None:
                raise StructureSyntaxError(lineno, "dim must be declared before rows")
            values = tokens[2:]
            if len(values) != dim:
                raise StructureSyntaxError(lineno, f"expected {dim} entries, got {len(values)}")
            try:
                row = [parse_rational(tok) for tok in values]
            except ValueError as exc:
                raise StructureSyntaxError(lineno, str(exc)) from None
            matrix_rows[section].append(row)

    if "[algebra]" not in section_lines:
        raise StructureSyntaxError(0, "missing [algebra] section")
    if dim is None:
        raise StructureSyntaxError(section_lines["[algebra]"], "missing 'dim = N' line")

    for (i, j), lineno in bracket_lines.items():
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise StructureSyntaxError(lineno, f"basis index out of range e{i} e{j}")

    try:
        algebra = LieAlgebra.from_brackets(
            dim, {(i - 1, j - 1): vec for (i, j), vec in brackets.items()})
    except AntisymmetryViolation as exc:  # guarded at line level already
        raise StructureFileError("AntisymmetryViolation", dim_line, str(exc)) from None
    except JacobiViolation as exc:
        raise StructureFileError("JacobiViolation", section_lines["[algebra]"],
                                 str(exc)) from None

    has_metric = "[metric]" in section_lines
    has_j = "[complex_structure]" in section_lines
    if not has_metric and not has_j:
        return algebra
    if not (has_metric and has_j):
        missing = "[complex_structure]" if has_metric else "[metric]"
        raise StructureSyntaxError(0, f"missing {missing} section")

    for name in ("[metric]", "[complex_structure]"):
        if len(matrix_rows[name]) != dim:
            raise StructureSyntaxError(
                section_lines[name], f"{name} needs exactly {dim} row lines")
    g = Matrix(matrix_rows["[metric]"])
    j = Matrix(matrix_rows["[complex_structure]"])
    try:
        return AntiHermitianStructure(algebra, g, j)
    except BadJSquareError as exc:
        raise StructureFileError("BadJSquare", section_lines["[complex_structure]"],
                                 str(exc)) from None
    except SingularMetricError as exc:
        raise StructureFileError("SingularMetric", section_lines["[metric]"],
                                 str(exc)) from None
    except NotAntiIsometryError as exc:
        raise StructureFileError("NotAntiIsometry", section_lines["[metric]"],
                                 str(exc)) from None


def _parse_algebra_line(line, lineno, brackets, bracket_lines, dim) -> Optional[int]:
    tokens = line.split()
    if tokens[0] == "dim":
        if len(tokens) != 3 or tokens[1] != "=":
            raise StructureSyntaxError(lineno, "expected 'dim = <int>'")
        if dim is not None:
            raise StructureSyntaxError(lineno, "duplicate dim line")
        if not _DIM_RE.fullmatch(tokens[2]):
            raise StructureSyntaxError(lineno, f"bad dimension {tokens[2]!r}")
        value = int(tokens[2])
        if value < 1:
            raise StructureSyntaxError(lineno, "dim must be positive")
        if value > MAX_DIM:
            raise StructureSyntaxError(lineno, f"dim {value} exceeds the maximum {MAX_DIM}")
        return value
    if tokens[0] != "bracket":
        raise StructureSyntaxError(lineno, f"unexpected line {line!r}")
    if dim is None:
        raise StructureSyntaxError(lineno, "dim must be declared before brackets")
    if len(tokens) < 4 or tokens[3] != "=":
        raise StructureSyntaxError(lineno, "expected 'bracket e<i> e<j> = ...'")
    i = _parse_basis_token(tokens[1], lineno)
    j = _parse_basis_token(tokens[2], lineno)
    if i >= j:
        raise StructureFileError(
            "AntisymmetryViolation", lineno,
            f"bracket e{i} e{j} must be listed with i < j")
    if (i, j) in brackets:
        raise StructureSyntaxError(lineno, f"duplicate bracket e{i} e{j}")
    rhs = tokens[4:]
    if not rhs:
        raise StructureSyntaxError(lineno, "empty bracket right-hand side")
    vec = [Fraction(0)] * dim
    pos = 0
    while pos < len(rhs):
        if pos > 0:
            if rhs[pos] != "+":
                raise StructureSyntaxError(lineno, f"expected '+', got {rhs[pos]!r}")
            pos += 1
        if pos + 1 >= len(rhs):
            raise StructureSyntaxError(lineno, "truncated bracket term")
        try:
            coeff = parse_rational(rhs[pos])
        except ValueError as exc:
            raise StructureSyntaxError(lineno, str(exc)) from None
        k = _parse_basis_token(rhs[pos + 1], lineno)
        if not (1 <= k <= dim):
            raise StructureSyntaxError(lineno, f"basis index out of range e{k}")
        vec[k - 1] += coeff
        pos += 2
    brackets[(i, j)] = vec
    bracket_lines[(i, j)] = lineno
    return None


def _parse_basis_token(token: str, lineno: int) -> int:
    match = _BASIS_RE.fullmatch(token)
    if match is None:
        raise StructureSyntaxError(lineno, f"expected basis token e<k>, got {token!r}")
    return int(match[1])


def format_structure(obj: Union[LieAlgebra, AntiHermitianStructure]) -> str:
    """Canonical printer; byte-stable and round-trips through parse_structure."""
    if isinstance(obj, AntiHermitianStructure):
        algebra, g, j = obj.algebra, obj.g, obj.J
    else:
        algebra, g, j = obj, None, None
    lines = ["[algebra]", f"dim = {algebra.dim}"]
    for (i, jdx), vec in algebra.nonzero_brackets().items():
        terms = [f"{format_rational(vec[k])} e{k + 1}"
                 for k in range(algebra.dim) if vec[k]]
        lines.append(f"bracket e{i + 1} e{jdx + 1} = " + " + ".join(terms))
    if g is not None:
        lines.append("[metric]")
        for row in g.rows:
            lines.append("row = " + " ".join(format_rational(x) for x in row))
        lines.append("[complex_structure]")
        for row in j.rows:
            lines.append("row = " + " ".join(format_rational(x) for x in row))
    return "\n".join(lines) + "\n"
