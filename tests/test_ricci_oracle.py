"""Ricci of a left-invariant metric from the structure constants alone.

`reference.milnor_ricci` is Milnor's connection-free formula (Besse,
*Einstein Manifolds*, Cor. 7.38) in plain Fractions, from c and g only, in
O(n^4).  The package's `ricci` takes Ricci from the Levi-Civita
connection; both must agree on corpora.named_structures, with 60 stream
samples at each dimension.
"""

import pytest
import reference
from corpora import fresh, lists, named_structures, raw

from antikahler.geometry import ricci

CASES = named_structures(60)


@pytest.mark.parametrize("s", [s for _, s in CASES], ids=[name for name, _ in CASES])
def test_ricci_matches_the_connection_free_formula(s):
    c, g, _ = raw(s)
    assert [lists(x) for x in ricci(fresh(s))] == list(reference.milnor_ricci(c, g))


def test_cases_reach_nonzero_ricci():
    """The comparison is not made on Ricci-flat input alone: most cases, the
    dense dim-8 and dim-10 ones included, have a nonzero Ricci tensor."""
    nonzero = {name for name, s in CASES if not ricci(s)[0].is_zero()}
    assert len(nonzero) > len(CASES) // 2
    assert {"ak8d", "g8d", "ak10d", "g10d"} <= nonzero
