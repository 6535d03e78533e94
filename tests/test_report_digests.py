"""Byte-stability gate: sha256 digests of exact machine reports.

The digests were recorded before the integer J-contraction and
fraction-free elimination kernels replaced the Fraction code paths, so any
kernel change that alters a computed verdict, count or number fails here.
"""

import hashlib

import pytest

from antikahler import catalog
from antikahler.cli.main import main
from antikahler.cli.textio import format_structure
from antikahler.verifier import list_suites

CHECK_DIGESTS = {
    "abelian4": "8a22f488ff782a6971654c689db47597f384a382650f8fd837e796c3f8aef60e",
    "n7_J-1": "023331ca2beb40f25ac5de91d0804bcd57af51404b9802ceb29ef6a2c16e2b87",
    "sl2c_killing": "b424e35ae82c30d0a8724ee3712ae080c5d274f45d162d07e161b02d4e2cb963",
    "r-1-1_std": "ff65d60c6593ccae8fe739d2ea53379cd07f4639b69e4d5525f594f2688f2324",
    "affC_std": "30b1d111d4e35ab9a098ccfa437f7156980eeee33568eb5811508438be975a96",
}

# verify <suite> --seed 1000 --dim 4 --output machine (default 12 samples)
VERIFY_DIGESTS = {
    "neutral_signature": "744c85d1c2404f753d50b2f2a68a6a1624c70296a87afd56b389c47e15b8129d",
    "complexified_form": "eb6519f1ca244bab05ef73661e273e205d64ccc618ffc4db72789c2adf08ebce",
    "group_equality": "34c9f88fbf13c7957351629fa99067b6eeb87220548b001ce9a4d3c3b3651938",
    "nabla_j_symmetric": "35b02adaf1d30cf4fc9c62b87873e8bdb5a8f851242dc65d3fa2a3334e9d0f1a",
    "epsilon_parallelism": "cdf4633e593f218c3df4f1eada21096de085cea5b93ee5418eb40c0809140c2f",
    "connection_rules": "c55bfbb3708817efc74f68fdf80d42d0a0428f049af3e6c8f8fd3f76a747f040",
    "bi_invariant_j_anti_kahler":
        "246b7136516d2df756a215a9aa72e3b0de2cfd9e25bcfb8ca639fafdcb63cb25",
    "killing_metric_einstein": "eabebb8e6cea1a30e44a75b7384ee6c0021f2cf2518485950d1ef847a06c4ea8",
    "abelian_j_obstructions": "7bafe56865a649e12bf85b450344947fd6b46ee795c446d7b01392680b87c5e1",
    "abelian_implies_flat": "0dd41a275ae1a783ba5c890a0d610ee4dcb676e3f9c4ae22075dd23adfb7904f",
    "worked_example_n7": "e89da26043280cbe099fd6901e87427ea751a6ece75fa7290b7b84d35c684dfe",
    "theta_iff_antikahler": "f1d79b8de5dd42ecbe83437da4ef7ad678f90c1102fdab5b686097161a4370a4",
    "dim4_classification": "063b7878a2524a749e5ecc9215cbc5e8012e4fc34b40ada2ccefc914af7a5677",
    "case2_moduli": "de049cb02bd8e5a47a8b40cbafe233ea132f6d4280c1e493f883dfbd7e84457f",
    "case2_curvature": "22c08462a50327fcd9e5e5197b12b6e808daeaae84f78656dd208151117b507d",
    "twin_metric": "a8f7f2d8f041c321c0f781c7f27c2639b9ba6548b6595c0b529de96afe1c87c1",
    "curvature_purity": "2ea77208111ecf2836efad38cae8557730fde61b1d7e540c0f897fd6d396d5c1",
    "integrability": "654e3b566f663bec82fdcb5c68f19245f2f7580461a0e3cf342e8622ecc348e9",
    "koszul_laws": "79271fbded1e444a8dc695bb0c1d445bfe37f65a0cd6200689a452a4d5ff197f",
}


def digest_of(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


def test_every_suite_is_pinned():
    assert set(VERIFY_DIGESTS) == set(list_suites())


@pytest.mark.parametrize("name", sorted(CHECK_DIGESTS))
def test_check_report(name, tmp_path, capsys):
    path = tmp_path / f"{name}.txt"
    path.write_text(format_structure(catalog.get(name).structure), encoding="utf-8")
    assert digest_of(capsys, "check", str(path), "--output", "machine") == \
        (0, CHECK_DIGESTS[name])


@pytest.mark.parametrize("suite", sorted(VERIFY_DIGESTS))
def test_verify_report(suite, capsys):
    assert digest_of(capsys, "verify", suite, "--seed", "1000", "--dim", "4",
                     "--output", "machine") == (0, VERIFY_DIGESTS[suite])
