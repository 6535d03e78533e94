"""Byte-stability gate: sha256 digests of exact CLI reports.

The check and dim-4 verify digests were recorded before the integer
J-contraction and fraction-free elimination kernels replaced the Fraction code
paths; the curvature, human check and classify digests before machine
curvature text was formatted from integer numerators and before the CLI
stopped building the report it does not print; the dim-6 verify digests
before det, rank, nullspace and inverse over Q(i) were merged into one
Gauss-Jordan routine.  So any change that alters a computed verdict, count,
number or line fails here.
"""

import hashlib
import random

import pytest

from antikahler import catalog
from antikahler.cli.main import main
from antikahler.cli.textio import format_structure
from antikahler.verifier import GeneratorConfig, list_suites, random_structure

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

# verify <suite> --seed 1000 --dim 6 --output machine (default 12 samples):
# the generator's Gram matrices over Q(i) are 3x3 here, 2x2 at dim 4
VERIFY_DIGESTS_DIM6 = {
    "neutral_signature": "ba91ef4906246a95a9229d9ac0db8d1356a3a31d5e4b2f4bcdb8cd8649ce7d95",
    "complexified_form": "5ee662e76493a18d819e702f749a37c53a0b2d37546449410e836972706e9ee7",
    "group_equality": "11410963cb7133c31ff1396f30062555f7af5c7627d921174dc11621ee1da538",
    "nabla_j_symmetric": "61d3a561ac14ae5e4bdfab987df6cfbdbb6e9f0d767df81f66af8272d8263fd0",
    "epsilon_parallelism": "e9db4d4a859fb777de7ad0b654257c4324c17940a8c85e44f9b8395fadcfcbf5",
    "connection_rules": "1f4c16d1605ec7e6552b99a095faa1d1d317b7ff7f16fdf25a320ce1d7f53aeb",
    "bi_invariant_j_anti_kahler":
        "51df3e49e71d78c1cbff806b62feaab4d1bc5fd070d14e20e5ac5faaa49eb97a",
    "killing_metric_einstein": "6dad0e22ef527638dc964e9a1cb6301ec76c4114e7a3ad98758e90064fc2aeef",
    "abelian_j_obstructions": "809d38121b8662cc24b3991af3751028fb8a0ff956c6a4d925c31ece246ffde2",
    "abelian_implies_flat": "84eff6cf61cab0e138184092918058d9286028584de40c593e3a5ba7d87f9c87",
    "worked_example_n7": "a33977b915455f739b3d4cb2ac903e59746a22039d121007cea19556a6ace61e",
    "theta_iff_antikahler": "e5fbaaf23d0b8cc6ea551149f5e155556c5f5c058bb118a14b7cc0f70c2595d7",
    "dim4_classification": "a9f602c2189d5d857a9dbcfecf433d33aa1030e3ddb67c2913f5c2482e200cf8",
    "case2_moduli": "cfb853da0b844ebd72355d497e18af16bdb77056b7014b8250bdc6274597be63",
    "case2_curvature": "f6076baeecb63876cdfa1434954b8e2bf8e2d0ea5d2a4f2505ef54b7f2106c92",
    "twin_metric": "8365b04050cf88e81cc6b96dc743f505a1f77022d61c60ea5e053d0a99ffb67a",
    "curvature_purity": "8af9bbcce9d99f257ceed7c0b388de4475e0fb069e4e4efb0911f7cb0b776ab2",
    "integrability": "6576245411ff903523e55d53b97a7304f96b6b2bb3ea883b6dbca21c15757cf6",
    "koszul_laws": "284ce00c44eac3593b1011a419b3e5b3f01cd589e0293ef72106696806c6a73f",
}


# (command, output, catalog entry) -> (exit code, digest of stdout)
REPORT_DIGESTS = {
    ("curvature", "machine", "abelian4"):
        (0, "a6930a31756ba0e320c45a251e48334515efd15eea11bec53f43b793a1193fce"),
    ("curvature", "machine", "n7_J-1"):
        (0, "ec6439f0f60f02adfd8e1e9f59178b5c07babe44e657839af18178990fd0a53c"),
    ("curvature", "machine", "sl2c_killing"):
        (0, "bd90a7c7e990fd3b54c9cf7936e18200ef55c1f086b30f02cf84e56961de3b83"),
    ("curvature", "machine", "r-1-1_std"):
        (0, "7ff676ea23a5a9b8d97fc53215f1c923523fbf6c30346d8cf43ef04bdd34ef86"),
    ("curvature", "machine", "affC_std"):
        (0, "11a0a57f0a19afa633815b913cb05f7f516321fed435c1d6eb5efb6ffb346b2d"),
    ("curvature", "human", "abelian4"):
        (0, "f5bc101a87b74ed6a6a9af5a732f595c7c1bd8df1ddbbb080df159b4211bccc6"),
    ("curvature", "human", "n7_J-1"):
        (0, "519265b4e115e3d9dcdcf4adf25498070b443b3fde5dee8147beb830ae295a34"),
    ("curvature", "human", "sl2c_killing"):
        (0, "f672f94d4334ee82992908818928f8c8f8b3c75ba390f98d63e1aec4a2b3d8a3"),
    ("curvature", "human", "r-1-1_std"):
        (0, "68ad141110bc1f1c49e04b214508e2c38633ea26e35155df8c7ae47c65ac4e6a"),
    ("curvature", "human", "affC_std"):
        (0, "f216e53e12346f306358c0198d21341ee282a5a09b8058382f8d13dba2f464ea"),
    ("check", "human", "abelian4"):
        (0, "51a07a398c8f3bd1d3ced3f1473ef52034611c1f2f0ef48c5288f597e0bc4d4a"),
    ("check", "human", "n7_J-1"):
        (0, "2bb25d297a08d6324c847ce0fb40c8443d08aae006899a736932c991e0d26ca6"),
    ("check", "human", "sl2c_killing"):
        (0, "aff36b479697f3d24dcb588d701001d1ec6663c90385f04dcbf2250df67acc3c"),
    ("check", "human", "r-1-1_std"):
        (0, "10990856d19b5af04ca2f6bc9c7981470905d1500c286df3dc949a39bbf9f8a7"),
    ("check", "human", "affC_std"):
        (0, "b487d441e491f138b0269ae3fb041d93c146f07bde05760f77738f6a023ae890"),
    ("classify", "machine", "abelian4"):
        (0, "129d3fb8561a45ccebf04476be275f77325e00cfb83e63912b31d212d2f86c21"),
    ("classify", "machine", "r-1-1_std"):
        (0, "b85a91b7ea7e167203861344e17d32f6dbbb02f1a4e2640ec009366a5387dbc0"),
    ("classify", "machine", "affC_std"):
        (0, "94547ba629487ebe57f7e83a6dc16b05cdf4e1501aa538ae47a854b50b38ed51"),
}

# classify --output machine on index 0 (kind 0) of the dim-4 stream at
# master seed 20240601: the NormalizationFailed error document
STREAM_CLASSIFY = (2, "f62e08f129484658dea0613921fb9093e48cf9edd720f0add60636a6e31bf57d")


def digest_of(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


def test_every_suite_is_pinned():
    assert set(VERIFY_DIGESTS) == set(VERIFY_DIGESTS_DIM6) == set(list_suites())


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


@pytest.mark.parametrize("suite", sorted(VERIFY_DIGESTS_DIM6))
def test_verify_report_dim6(suite, capsys):
    assert digest_of(capsys, "verify", suite, "--seed", "1000", "--dim", "6",
                     "--output", "machine") == (0, VERIFY_DIGESTS_DIM6[suite])


@pytest.fixture(scope="module")
def catalog_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("catalog")
    paths = {}
    for name in catalog.list_names():
        paths[name] = root / f"{name}.txt"
        paths[name].write_text(format_structure(catalog.get(name).structure),
                               encoding="utf-8")
    return paths


def test_every_catalog_entry_is_pinned():
    for command, output in (("curvature", "machine"), ("curvature", "human"),
                            ("check", "human")):
        assert {name for c, o, name in REPORT_DIGESTS if (c, o) == (command, output)} \
            == set(catalog.list_names())


@pytest.mark.parametrize("key", sorted(REPORT_DIGESTS), ids="-".join)
def test_report(key, catalog_files, capsys):
    command, output, name = key
    assert digest_of(capsys, command, str(catalog_files[name]), "--output", output) == \
        REPORT_DIGESTS[key]


def test_stream_classify_error_document(tmp_path, capsys):
    s = random_structure(GeneratorConfig(dim=4, master_seed=20240601), 0)
    path = tmp_path / "s0.txt"
    path.write_text(format_structure(s), encoding="utf-8")
    assert digest_of(capsys, "classify", str(path), "--output", "machine") == \
        STREAM_CLASSIFY


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reports_in_any_order(seed, catalog_files, capsys):
    """One process, one shared parser: each report is the same in any order."""
    pinned = dict(REPORT_DIGESTS)
    pinned.update({("check", "machine", name): (0, digest)
                   for name, digest in CHECK_DIGESTS.items()})
    keys = sorted(pinned)
    random.Random(seed).shuffle(keys)
    for command, output, name in keys:
        assert digest_of(capsys, command, str(catalog_files[name]), "--output", output) \
            == pinned[command, output, name]
