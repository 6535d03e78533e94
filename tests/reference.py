"""The paper's definitions, entry by entry, from the raw numbers.

A left-invariant structure is three arrays of exact numbers (Fractions, or
any numbers that add, multiply and divide exactly):

    c[a][b][k]   the coefficient of e_k in [e_a, e_b]
    g[i][k]      the metric, g(e_i, e_k)
    j[i][k]      the matrix of J, so J e_k = sum_i j[i][k] e_i

Each quantity below is a sum over basis indices written from its
definition, with no shared contraction, memo or integer kernel, and this
module imports nothing from ``antikahler``: it is the tests' reference for
the package's values.  Tensors are nested lists: gamma[i][j][k] is the
coefficient of e_k in nabla_{e_i} e_j, r[i][j][k][l] that of e_l in
R(e_i, e_j) e_k with R(x, y) = [nabla_x, nabla_y] - nabla_[x, y], and a
form t[i][j][k] is t(e_i, e_j, e_k).
"""


def order(t) -> int:
    return 1 + order(t[0]) if isinstance(t, list) else 0


def is_zero(t) -> bool:
    return all(map(is_zero, t)) if isinstance(t, list) else not t


def neg(t):
    return [neg(x) for x in t] if isinstance(t, list) else -t


def inverse(m):
    """m^-1 by Gauss-Jordan elimination."""
    n = len(m)
    rows = [list(row) + [int(i == k) for k in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def col(m, k) -> list:
    return [row[k] for row in m]


def apply(m, v) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def ad_j(c, j):
    """[J e_a, e_b] at [a][b]."""
    return [combination(col(j, a), c) for a in range(len(c))]


def lower(vectors, g):
    """g(v, e_k) at [a][b][k] for the vectors v = vectors[a][b]."""
    n = len(g)
    return [[[sum(v[m] * g[m][k] for m in range(n)) for k in range(n)] for v in row]
            for row in vectors]


def cyclic(p):
    """P(x, y, z) + P(y, z, x) + P(z, x, y)."""
    n = range(len(p))
    return [[[p[x][y][z] + p[y][z][x] + p[z][x][y] for z in n] for y in n] for x in n]


def combination(coeffs, ts):
    """sum_m coeffs[m] ts[m] of tensors of one shape."""
    if isinstance(ts[0], list):
        return [combination(coeffs, parts) for parts in zip(*ts)]
    return sum(a * x for a, x in zip(coeffs, ts) if a)


def with_j(t, j, slot):
    """t with J e_i in `slot`: sum_m j[m][i] t(.., e_m, ..)."""
    if slot:
        return [with_j(sub, j, slot - 1) for sub in t]
    return [combination(col(j, i), t) for i in range(len(j))]


def is_pure(t, j) -> bool:
    """Moving J into any slot of t gives one tensor."""
    first = with_j(t, j, 0)
    return all(with_j(t, j, slot) == first for slot in range(1, order(t)))


def is_skew(t) -> bool:
    """An order-3 form changes sign under every transposition of its slots."""
    n = range(len(t))
    return all(t[b][a][k] == -t[a][b][k] == t[a][k][b] for a in n for b in n for k in n)


# ---------------------------------------------------------------------------
# the Levi-Civita connection and its curvature


def christoffel(c, g):
    """The Koszul formula 2 g(nabla_x y, z) = g([x, y], z) - g([y, z], x)
    + g([z, x], y) on basis vectors, solved for nabla_{e_i} e_j by g^-1."""
    n, gi, low = range(len(g)), inverse(g), lower(c, g)
    return [[[sum(gi[l][k] * (low[i][j][k] - low[j][k][i] + low[k][i][j]) for k in n) / 2
              for l in n] for j in n] for i in n]


def curvature(c, gamma):
    """R(e_i, e_j) e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k
    - nabla_[e_i, e_j] e_k, coefficient of e_l at [i][j][k][l]."""
    n = len(c)
    # twice[i][j][k] = nabla_{e_i} (sum_m gamma[j][k][m] e_m)
    twice = [[[combination(gamma[j][k], gamma[i]) for k in range(n)] for j in range(n)]
             for i in range(n)]
    return [[[[p - q - r for p, q, r in zip(twice[i][j][k], twice[j][i][k],
                                             combination(c[i][j], col(gamma, k)))]
              for k in range(n)] for j in range(n)] for i in range(n)]


def ricci(r, g):
    """(Rc, Ric): Rc_jk = sum_i R^i_ijk, the trace over the first slot, and
    Ric = g^-1 Rc."""
    n = len(g)
    rc = [[sum(r[i][j][k][i] for i in range(n)) for k in range(n)] for j in range(n)]
    return rc, raise_first(rc, g)


def raise_first(rc, g):
    gi = inverse(g)
    n = len(g)
    return [[sum(gi[i][k] * rc[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def milnor_ricci(c, g):
    """(Rc, Ric) from c and g alone, with no connection.

    Milnor, "Curvatures of left invariant metrics on Lie groups" (1976), and
    Besse, *Einstein Manifolds*, Cor. 7.38, give Ricci in an orthonormal
    frame.  The formula is algebraic, so in any basis each frame sum becomes
    a contraction with g^-1:

        Rc_jk = -1/2 sum_ab g^ab g([e_j, e_a], [e_k, e_b]) - 1/2 B_jk
                + 1/4 sum_abcd g^ab g^cd L_acj L_bdk
                - 1/2 (g([H, e_j], e_k) + g([H, e_k], e_j))

    with L_acj = g([e_a, e_c], e_j), the Killing form B and
    H^b = sum_a g^ab tr(ad_{e_a}).  One index is raised at a time, so it
    costs O(n^4).
    """
    n, gi, low = len(g), inverse(g), lower(c, g)
    span = range(n)
    # up[k][a][p]: the coefficient of e_p in sum_b g^ab [e_k, e_b]
    up = [[[sum(gi[a][b] * c[k][b][p] for b in span) for p in span] for a in span]
          for k in span]
    bracket_norms = [[sum(low[j][a][p] * up[k][a][p] for a in span for p in span)
                      for k in span] for j in span]
    form = killing(c)
    # raise both bracket slots of L: once[b][c][j] = sum_a g^ab L_acj, then c -> d
    once = [[[sum(gi[a][b] * low[a][c_][j] for a in span) for j in span] for c_ in span]
            for b in span]
    twice = [[[sum(gi[c_][d] * once[b][c_][j] for c_ in span) for j in span] for d in span]
             for b in span]
    pairings = [[sum(twice[b][d][j] * low[b][d][k] for b in span for d in span)
                 for k in span] for j in span]
    trace = [sum(c[a][p][p] for p in span) for a in span]
    h = [sum(gi[a][b] * trace[a] for a in span) for b in span]
    mean = [[sum(h[b] * low[b][j][k] for b in span) for k in span] for j in span]
    rc = [[-bracket_norms[j][k] / 2 - form[j][k] / 2 + pairings[j][k] / 4
           - (mean[j][k] + mean[k][j]) / 2 for k in span] for j in span]
    return rc, raise_first(rc, g)


def is_einstein(rc, g):
    """(True, lambda) when Rc = lambda g, else (False, None)."""
    n = len(g)
    i, k = next((i, k) for i in range(n) for k in range(n) if g[i][k])
    lam = rc[i][k] / g[i][k]
    if all(rc[a][b] == lam * g[a][b] for a in range(n) for b in range(n)):
        return True, lam
    return False, None


def curvature_is_pure(r, g, j) -> bool:
    """g(R(x, y) z, w) is pure."""
    return is_pure([lower(plane, g) for plane in r], j)


def curvature_j_anticommutes(r, j) -> bool:
    """R(J e_i, J e_j) = -R(e_i, e_j)."""
    return with_j(with_j(r, j, 0), j, 1) == neg(r)


def nabla_j(gamma, j):
    """(nabla_{e_i} J) e_k = nabla_{e_i} (J e_k) - J nabla_{e_i} e_k, laid
    out as gamma."""
    n = len(j)
    return [[[a - b for a, b in zip(
        [sum(j[m][k] * gamma[i][m][l] for m in range(n)) for l in range(n)],
        apply(j, gamma[i][k]))] for k in range(n)] for i in range(n)]


def j_direction_rule(t, j, sign) -> bool:
    """t_{J e_i} = sign J t_{e_i} for t laid out as a connection:
    sum_m j[m][i] t[m][k] = sign J t[i][k] for all i, k."""
    n = len(j)
    return all([sum(j[m][i] * t[m][k][l] for m in range(n)) for l in range(n)]
               == [sign * x for x in apply(j, t[i][k])]
               for i in range(n) for k in range(n))


def second_derivatives_commute(gamma) -> bool:
    """nabla_{e_i} nabla_{e_j} = nabla_{e_j} nabla_{e_i} on every e_k."""
    n = len(gamma)

    def twice(i, j, k):
        return [sum(gamma[j][k][m] * gamma[i][m][l] for m in range(n)) for l in range(n)]

    return all(twice(i, j, k) == twice(j, i, k)
               for i in range(n) for j in range(i + 1, n) for k in range(n))


def abelian_j_gamma(c, j):
    """The closed form nabla_x y = 1/2 ([x, y] - J [x, Jy]) for abelian J,
    laid out as gamma."""
    n = len(c)
    return [[[(a - b) / 2 for a, b in zip(c[i][k], apply(j, combination(col(j, k), c[i])))]
             for k in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# theta


def theta(c, g, j):
    """theta(x, y, z) = <[Jx, y], z> + <[Jy, z], x> + <[Jz, x], y>."""
    return cyclic(lower(ad_j(c, j), g))


def theta_from_d(g, j, gamma):
    """The cyclic sum of <D(x, y), z> with D(x, y) = nabla_{Jx} y + J nabla_x y."""
    n = len(g)
    d = [[[sum(j[m][a] * gamma[m][b][l] for m in range(n)) + x
           for l, x in enumerate(apply(j, gamma[a][b]))] for b in range(n)] for a in range(n)]
    return cyclic(lower(d, g))


# ---------------------------------------------------------------------------
# the algebra and J


def nijenhuis(c, j):
    """N(x, y) = [Jx, Jy] - J[Jx, y] - J[x, Jy] - [x, y] at basis pairs,
    laid out as c."""
    n, cj = len(c), ad_j(c, j)

    def entry(a, b):
        jy = col(j, b)
        terms = (combination(jy, cj[a]), apply(j, cj[a][b]), apply(j, combination(jy, c[a])),
                 c[a][b])
        return [p - q - r - s for p, q, r, s in zip(*terms)]

    return [[entry(a, b) for b in range(n)] for a in range(n)]


def is_abelian_j(c, j, sign=1) -> bool:
    """[Jx, Jy] = sign [x, y] at basis pairs; sign -1 tests anti-abelian J."""
    n, cj = len(c), ad_j(c, j)
    return all(combination(col(j, b), cj[a]) == [sign * x for x in c[a][b]]
               for a in range(n) for b in range(a + 1, n))


def is_bi_invariant_j(c, j) -> bool:
    """[Jx, y] = J[x, y] at basis pairs."""
    n, cj = len(c), ad_j(c, j)
    return all(cj[a][b] == apply(j, c[a][b]) for a in range(n) for b in range(n))


def killing(c):
    """B(x, y) = tr(ad_x ad_y) at basis pairs."""
    n = len(c)
    return [[sum(c[a][m][k] * c[b][k][m] for k in range(n) for m in range(n))
             for b in range(n)] for a in range(n)]


def killing_anti_invariant(c, j) -> bool:
    """B(Jx, Jy) = -B(x, y)."""
    b = killing(c)
    return with_j(with_j(b, j, 0), j, 1) == neg(b)


# ---------------------------------------------------------------------------
# the paper's implications between the verdicts of `check`


def broken_implications(doc) -> list:
    """The implications that a `check --output machine` document of an
    anti-Hermitian structure breaks, by name; it reads the JSON only."""
    p = doc["predicates"]
    ak = p["anti_kahler_nabla"]
    holds = {
        "anti_kahler_nabla == anti_kahler_theta": ak == p["anti_kahler_theta"],
        "bi-invariant J => anti-Kahler": ak or not p["bi_invariant_complex_structure"],
        "anti-Kahler with abelian J => unimodular and flat":
            not (ak and p["abelian_complex_structure"]) or (p["unimodular"] and p["flat"]),
        "anti-Kahler => nijenhuis_zero": p["nijenhuis_zero"] or not ak,
        "flat => ricci_flat": p["ricci_flat"] or not p["flat"],
        "ricci_flat <=> Einstein with constant 0":
            p["ricci_flat"] == (p["einstein"] and doc["einstein_constant"] == "0"),
    }
    return [name for name, ok in holds.items() if not ok]
