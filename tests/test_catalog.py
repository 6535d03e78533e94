from fractions import Fraction

import pytest

from antikahler import catalog
from antikahler.classify4 import make_family_case1, make_family_case2
from antikahler.cli.textio import format_structure, parse_structure
from antikahler.geometry import (
    is_anti_kahler,
    is_bi_invariant_metric,
    is_einstein,
    is_flat,
    is_ricci_flat,
)
from antikahler.liealg import (
    is_abelian_j,
    is_anti_abelian_j,
    is_bi_invariant_j,
    nijenhuis,
)
from antikahler.scalars import signature


def recompute_flags(s) -> dict:
    einstein, lam = is_einstein(s)
    return {
        "anti_kahler": is_anti_kahler(s),
        "flat": is_flat(s),
        "ricci_flat": is_ricci_flat(s),
        "einstein": einstein,
        "einstein_constant": lam,
        "unimodular": s.algebra.is_unimodular(),
        "abelian_j": is_abelian_j(s.algebra, s.J),
        "bi_invariant_j": is_bi_invariant_j(s.algebra, s.J),
        "anti_abelian_j": is_anti_abelian_j(s.algebra, s.J),
        "bi_invariant_metric": is_bi_invariant_metric(s),
        "nijenhuis_zero": nijenhuis(s.algebra, s.J).is_zero(),
        "signature": signature(s.g),
        "derived_dim": s.algebra.derived_dim(),
    }


def test_expected_flags_recomputed():
    for name in catalog.list_names():
        entry = catalog.get(name)
        assert recompute_flags(entry.structure) == entry.expected, name


def test_unknown_entry():
    with pytest.raises(catalog.UnknownEntryError):
        catalog.get("does_not_exist")


def test_entries_are_cached():
    assert catalog.get("n7_J-1") is catalog.get("n7_J-1")


def test_exports_byte_stable():
    for name in catalog.list_names():
        s = catalog.get(name).structure
        first = format_structure(s)
        second = format_structure(s)
        assert first == second
        assert parse_structure(first) == s


def test_parametrized_generators():
    s = make_family_case1(1, 0, 1)
    assert s == catalog.get("r-1-1_std").structure
    s2 = make_family_case2(1, 0, 0, 0)
    assert s2 == catalog.get("affC_std").structure


def test_sl2c_einstein_quarter():
    entry = catalog.get("sl2c_killing")
    einstein, lam = is_einstein(entry.structure)
    assert einstein and lam == Fraction(1, 4)
