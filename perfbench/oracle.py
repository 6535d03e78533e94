"""Independent oracle: Levi-Civita connection and Ricci tensor with sympy.

Shares no code with the package: the structure text is parsed here, the
metric is inverted with ``sympy.Matrix.inv`` and the connection comes from
the Koszul formula

    2 g(nabla_{e_i} e_j, e_k) = g([e_i,e_j], e_k) - g([e_j,e_k], e_i)
                                + g([e_k,e_i], e_j),

the curvature from R(x,y) = [nabla_x, nabla_y] - nabla_[x,y] and the Ricci
tensor from Rc_jk = sum_i R^i_ijk.  ``compare`` checks a ``curvature
--output machine`` document against it.
"""

from __future__ import annotations

import re

_TERM = re.compile(r"^([+-]?\d+(?:/\d+)?) e(\d+)$")


def parse(text: str):
    """Return (dim, brackets {(i, j): {k: c}} with i < j, g rows, J rows)."""
    from sympy import Rational

    section, dim = None, None
    brackets, rows = {}, {"[metric]": [], "[complex_structure]": []}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line
        elif line.startswith("dim"):
            dim = int(line.split("=")[1])
        elif line.startswith("bracket"):
            lhs, rhs = line.split("=")
            _, a, b = lhs.split()
            vec = {}
            for term in rhs.split(" + "):
                coeff, k = _TERM.match(term.strip()).groups()
                vec[int(k) - 1] = vec.get(int(k) - 1, 0) + Rational(coeff)
            brackets[(int(a[1:]) - 1, int(b[1:]) - 1)] = vec
        else:
            rows[section].append([Rational(tok) for tok in line.split()[2:]])
    return dim, brackets, rows["[metric]"], rows["[complex_structure]"]


def derived_dim(text: str) -> int:
    """Dimension of the span of all brackets, by sympy rank."""
    from sympy import Matrix

    dim, brackets, _, _ = parse(text)
    vecs = [[vec.get(k, 0) for k in range(dim)] for vec in brackets.values()]
    return Matrix(vecs).rank() if vecs else 0


def connection_and_ricci(text: str):
    """Gamma[i][j][k] (e_k-coefficient of nabla_{e_i} e_j) and Rc[j][k]."""
    from sympy import Matrix, Rational

    n, brackets, g_rows, _ = parse(text)
    g = Matrix(g_rows)
    g_inv = g.inv()
    zero = Rational(0)

    def br(i, j):
        if (i, j) in brackets:
            return brackets[(i, j)]
        if (j, i) in brackets:
            return {k: -c for k, c in brackets[(j, i)].items()}
        return {}

    def g_of(vec, k):
        return sum((c * g[m, k] for m, c in vec.items()), zero)

    gamma = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            lowered = [(g_of(br(i, j), k) - g_of(br(j, k), i) + g_of(br(k, i), j)) / 2
                       for k in range(n)]
            for m in range(n):
                gamma[i][j][m] = sum((g_inv[m, k] * lowered[k] for k in range(n)), zero)

    # operator M_i with column j = nabla_{e_i} e_j: M_i[l][j] = gamma[i][j][l]
    def op(i, l, j):
        return gamma[i][j][l]

    ricci = [[zero] * n for _ in range(n)]
    for j in range(n):
        for k in range(n):
            total = zero
            for i in range(n):
                for m in range(n):
                    total += op(i, i, m) * op(j, m, k) - op(j, i, m) * op(i, m, k)
                for l, c in br(i, j).items():
                    total -= c * op(l, i, k)
            ricci[j][k] = total
    return gamma, ricci


def compare(text: str, document: dict) -> list:
    """Mismatches between a curvature machine document and the oracle."""
    from sympy import Rational

    gamma, ricci = connection_and_ricci(text)
    n = len(ricci)
    problems = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if Rational(document["gamma"][i][j][k]) != gamma[i][j][k]:
                    problems.append(f"gamma[{i}][{j}][{k}]")
    for j in range(n):
        for k in range(n):
            if Rational(document["ricci"][j][k]) != ricci[j][k]:
                problems.append(f"ricci[{j}][{k}]")
    return problems
