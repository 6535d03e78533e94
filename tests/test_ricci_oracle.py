"""Ricci of a left-invariant metric from the structure constants alone.

Milnor, "Curvatures of left invariant metrics on Lie groups" (1976), and
Besse, *Einstein Manifolds*, Cor. 7.38, give Ricci in an orthonormal frame
with no connection at all.  The formula is algebraic, so in any basis each
frame sum becomes a contraction with g^-1:

    Rc_jk = -1/2 sum_ab g^ab g([e_j, e_a], [e_k, e_b]) - 1/2 B_jk
            + 1/4 sum_abcd g^ab g^cd L_acj L_bdk
            - 1/2 (g([H, e_j], e_k) + g([H, e_k], e_j))

with L_acj = g([e_a, e_c], e_j), the Killing form B_jk = sum_pq C_jp^q C_kq^p
and H^b = sum_a g^ab tr(ad_{e_a}).  It is written here in plain Fractions
and reads only C, g and g^-1, one index raised at a time, so it costs
O(n^4).  The package's `ricci` takes Ricci from the Levi-Civita connection;
both must agree on the cases of test_curvature_routes, with 60 stream
samples at each dimension.
"""

import pytest
from test_curvature_routes import fresh, structures

from antikahler.geometry import ricci

CASES = structures(60)


def oracle_ricci(s):
    """(Rc, Ric) as nested lists of Fractions, from C, g and g^-1 only."""
    n, alg = s.dim, s.algebra
    g, gi = [list(row) for row in s.g.rows], [list(row) for row in s.g_inv.rows]
    assert all(sum(g[i][k] * gi[k][j] for k in range(n)) == (i == j)
               for i in range(n) for j in range(n))
    span = range(n)
    c = [[alg.bracket_basis(a, b) for b in span] for a in span]
    # low[a][b][k] = g([e_a, e_b], e_k)
    low = [[[sum(c[a][b][m] * g[m][k] for m in span) for k in span] for b in span]
           for a in span]
    # up[k][a][p]: the coefficient of e_p in sum_b g^ab [e_k, e_b]
    up = [[[sum(gi[a][b] * c[k][b][p] for b in span) for p in span] for a in span]
          for k in span]
    bracket_norms = [[sum(low[j][a][p] * up[k][a][p] for a in span for p in span)
                      for k in span] for j in span]
    killing = [[sum(c[j][p][q] * c[k][q][p] for p in span for q in span) for k in span]
               for j in span]
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
    rc = [[-bracket_norms[j][k] / 2 - killing[j][k] / 2 + pairings[j][k] / 4
           - (mean[j][k] + mean[k][j]) / 2 for k in span] for j in span]
    ric = [[sum(gi[i][k] * rc[k][j] for k in span) for j in span] for i in span]
    return rc, ric


@pytest.mark.parametrize("s", [s for _, s in CASES], ids=[name for name, _ in CASES])
def test_ricci_matches_the_connection_free_formula(s):
    rc, ric = oracle_ricci(s)
    ours_rc, ours_ric = ricci(fresh(s))
    assert [list(row) for row in ours_rc.fractions()] == rc
    assert [list(row) for row in ours_ric.fractions()] == ric


def test_cases_reach_nonzero_ricci():
    """The comparison is not made on Ricci-flat input alone: most cases, the
    dense dim-8 and dim-10 ones included, have a nonzero Ricci tensor."""
    nonzero = {name for name, s in CASES if not ricci(s)[0].is_zero()}
    assert len(nonzero) > len(CASES) // 2
    assert {"ak8d", "g8d", "ak10d", "g10d"} <= nonzero
