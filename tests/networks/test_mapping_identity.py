"""Pinned mapper outputs: a speed-up of the k-LUT mapper must not move them.

``technology_map`` maps each of the 20 EPFL profiles at ``k=6`` and at
``k=2`` with the default two area-recovery rounds, plus a few profiles at
``area_rounds`` 0 and 1.  ``PINNED`` holds, per case, the SHA-256 of the
written BLIF, the sorted node map and the statistics of the run, so a
change that selects another cut anywhere, or reports another count,
changes a digest.  ``CHOICE_PINNED`` holds the SHA-256 of the BLIF that
``repro map --choices`` writes, which covers the choice-aware run and its
plain fallback.  Regenerate both tables only for a change that is meant
to alter mappings::

    PYTHONPATH=src python tests/networks/test_mapping_identity.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from repro.circuits import EPFL_BENCHMARKS, epfl_benchmark
from repro.harness.cli import map_main
from repro.io import write_aiger_file, write_blif
from repro.networks.mapping import technology_map

#: (profile, k, area_rounds) of every pinned ``technology_map`` call.
CASES = [(name, k, 2) for k in (6, 2) for name in EPFL_BENCHMARKS] + [
    (name, k, rounds) for rounds in (0, 1) for k in (6, 2) for name in ("adder", "cavlc", "router", "sin")
]
CHOICE_PROFILES = ["cavlc", "router"]

PINNED = {
    "adder/k6/r2": "f63dd6746a6aa1e2f5eea1431ebce7f3e65a254cb9dadaf09df4916b43df3c4d",
    "bar/k6/r2": "922a9f181bfdae8874b35caccc55b7c734e8f997a9c3108a492851c56377e3cd",
    "div/k6/r2": "f32858fa63ca5414efaf81a04ec6331b31c1b88b5ec7e0239ab4d5c22a0947c2",
    "hyp/k6/r2": "321e84e26fea6bd166e1af115286a96f19aedd021580c1074360a1a16b0a9420",
    "log2/k6/r2": "75d74c54ddecdd717bfe9c5dc195b44affc77ee68983e5e6709133bb5911a3a0",
    "max/k6/r2": "13cd9faabe021e8f1669c973e203f1852b38ce5a6ce2fef1c7c8564658c8373b",
    "multiplier/k6/r2": "762873bef21ed437ae9f3437630edc8c58c53f155929d0f89243bb9f13011abd",
    "sin/k6/r2": "57f7225c90b5fa0ca88f20d6254bba2ebf92a25c1698d20c5eb260d1cef8aec4",
    "sqrt/k6/r2": "0cb6d65e12e1a9aaa0fea7f6385149e9c5df41304f8a84c2ea7c27d9740fb24c",
    "square/k6/r2": "70a4399c7993267af345148b62e1d8ead33ca4d8c3d59135858915848e114888",
    "arbiter/k6/r2": "027779c10e5585376ed021bf50bf00f59abf1ff776346d76a9838f581aa45ebc",
    "cavlc/k6/r2": "877c8d953946da51b33f5c8d3a4ca111fc227709fabd5f9e628efdb4a373ea8f",
    "ctrl/k6/r2": "eae0adcc16c190c0055ee218ec390caa801928ed4e0f5337a5d0c28580ba1985",
    "dec/k6/r2": "06b478991f232f994a1425792cb431e214a8b84377cb0e07a731f1b966555034",
    "i2c/k6/r2": "f140e5dd25d7edad29f4999e7b9e4546cf6542dc33a162cd4c8aeccdbf26f640",
    "int2float/k6/r2": "85d73710d32784e1f64ef09af408022ec285e6aa26440c81f676d799463dd500",
    "mem_ctrl/k6/r2": "13065eadb4ad9c983523eacbc2ad4822f9a2443727e8ec5199d193f25a5e418f",
    "priority/k6/r2": "cd4af5b9c6ae32661e06a4b39e23949515153be849d6cf587ff025035d6d098a",
    "router/k6/r2": "664865b6e605b3090f32b3e5ba5965bab4b5dc28b614a73a51153aa5b08be6a0",
    "voter/k6/r2": "fb7b2c89e44b55c0945682b5421ac4dba9a06752a420134f95917c37044d79bf",
    "adder/k2/r2": "5fb295a17433171124f5522fc75433b3acf2c2fd36984475bb06d3b760ff0893",
    "bar/k2/r2": "4a62fd1ee6351bdb01a0ae4653ba9dedd77791a18d48b4329067b8d8b0b2b8a1",
    "div/k2/r2": "94a87f16ab99e039cd39624f11d5f42b50ab185f45db095c2dbebb47bc66ca2c",
    "hyp/k2/r2": "912447e44d0a46095b57fc76f91217f1f48382e21601a505699286f0afd42e82",
    "log2/k2/r2": "f5a3121bf0e761eed26fa4d55641ca195e6102bf23237a4babcbcfe655e5730b",
    "max/k2/r2": "d86bf55b77c956066db92aa076433bfe3d941151129874bbcdadd0983e606469",
    "multiplier/k2/r2": "4c805b24c87648f1cbeb2840fc0e009a7debe336791f2d7da7831331d1c5274e",
    "sin/k2/r2": "64f10fdbbb358209350063aaca98e034519b796e0c474536f4c13d883e32b1d3",
    "sqrt/k2/r2": "8a02a64ee351639d49316f4e4c6a3492980d909a229cf285970ab971b0d49d7e",
    "square/k2/r2": "7e23a64186980fba93d1536ecea701645fbea22285df0ce4ce31f1edfd81c035",
    "arbiter/k2/r2": "3f0866d1fca2310fe7d5baf8f22427291898207f40963f5780525eeea3db2d22",
    "cavlc/k2/r2": "f6131f1060fce3b92579edb3a9485824f1dad18b212d7aab6b7361dee5002238",
    "ctrl/k2/r2": "a60df60b79b9d301ba8077a90723504ccbff5028e70716dff0c8b3b00819556b",
    "dec/k2/r2": "c7307e05cd0192e12ca6e07d4d56a862208c120eefadb73df2147ac9d6110c4b",
    "i2c/k2/r2": "2c6a46308513b5119b400405faa138d2039c5436287a942df75fb034e8fd12df",
    "int2float/k2/r2": "80edbb3ab797299c557e134ffc5b244cd1b365ece9ffc67e61bfcf7766af513f",
    "mem_ctrl/k2/r2": "3a955681a348072443426cf12f897f9e8534c7c87934e0406929f88d9573cf69",
    "priority/k2/r2": "8da868712693c73471a83114ca981de54abd61bce96230cc32e7f24df39f9f0d",
    "router/k2/r2": "7f7635e492d446233ebf65ee99fb4c687808442a1884dc88d284368a9d317e74",
    "voter/k2/r2": "bda1535962787b3f6480d458e72ed525a982914f757ff5f81a681715c6352002",
    "adder/k6/r0": "6c06bb7c0183b700bd14f2de647822615d04b8d8a30dfd8a62e25592f0b10d92",
    "cavlc/k6/r0": "ea4972f67ea32e04b0403ff8beb52ce0e7bf6968e17b06b7d9d7bcdb02339965",
    "router/k6/r0": "48f97ca257d6cf99b88315ede00e8b36122c9457fbbc7aaf7dbb63fdcf799123",
    "sin/k6/r0": "2a834739ef51862f11d7301d7d311c63ca50474d117bb49cb5b85065f3cdee4e",
    "adder/k2/r0": "1106be1278834dd8841405199d5155142b80b92c1f8a569bf90a81c8308a092a",
    "cavlc/k2/r0": "5e5fd24d5f1f273e0599a3645fe72b820b3231e041d25befca8624f9874a84d6",
    "router/k2/r0": "ce0a22dc41b40d3ee29a5e9e9adebbc934799c4a74f5c1db15e7a550016dd6ef",
    "sin/k2/r0": "c3bf45000eb983078fbbd92e8a06d30ee16fa7609e68131fd563fe7e99b7212e",
    "adder/k6/r1": "1d97ebb78e02e7eafaa1cff3863eeb15586323f66dfc0f40c15f854720cbf096",
    "cavlc/k6/r1": "a7e50873d1f2d66ef528e153e989ec5d07625354ecd31bf2a0df57f3a43ce261",
    "router/k6/r1": "be2e8aa9a7ce4c765e91e932d0b6f231dab5c2191725a0f8001965a62efb0f7d",
    "sin/k6/r1": "cf85aa222549c10820997f5a9f9283a5e4ab4b1568a78aec5b01e631aff79a2d",
    "adder/k2/r1": "826179d28324defabedadca459dcb85ca10611ca1ec9456e7f14b5f468c77281",
    "cavlc/k2/r1": "f3a122921b7609a5f6c7d13a46d74bd172d7ece55e634d01ec8701e337969f42",
    "router/k2/r1": "18b7ff5e27efa78357ac4ce55090979643d3bf91d8a0480ed5ec3697868de6e6",
    "sin/k2/r1": "1861ca2ad68d543f346d01f85f7f510a55488648ef81d087bd2c7552bbc55058",
}

CHOICE_PINNED = {
    "cavlc": "ab5f555245979abaaef6fa9f05f116bd6f806349a1697cc269d10abec1199cbe",
    "router": "a6561e8dcd9c6e7ef6b3c1cc0c19f3878662c7828245b0eb66b0c2883e0090e6",
}


def _case_id(name: str, k: int, rounds: int) -> str:
    return f"{name}/k{k}/r{rounds}"


def _mapping_digest(name: str, k: int, rounds: int) -> str:
    """SHA-256 of one mapping's BLIF, sorted node map and statistics."""
    result = technology_map(epfl_benchmark(name), k=k, area_rounds=rounds)
    digest = hashlib.sha256(write_blif(result.network).encode())
    digest.update(repr(sorted(result.node_map.items())).encode())
    digest.update(repr(sorted(result.stats.as_details().items())).encode())
    return digest.hexdigest()


def _choice_digest(directory: Path, name: str) -> str:
    """SHA-256 of the BLIF ``repro map --choices`` writes for one profile."""
    circuit = directory / f"{name}.aag"
    write_aiger_file(epfl_benchmark(name), str(circuit))
    blif = directory / f"{name}.blif"
    with contextlib.redirect_stdout(io.StringIO()):
        assert map_main([str(circuit), "--choices", "--no-verify", "-o", str(blif)]) == 0
    return hashlib.sha256(blif.read_bytes()).hexdigest()


@pytest.mark.parametrize(("name", "k", "rounds"), CASES, ids=[_case_id(*case) for case in CASES])
def test_mapping_matches_pinned_digest(name: str, k: int, rounds: int) -> None:
    assert _mapping_digest(name, k, rounds) == PINNED[_case_id(name, k, rounds)]


@pytest.mark.parametrize("name", CHOICE_PROFILES)
def test_choice_mapping_matches_pinned_digest(tmp_path: Path, name: str) -> None:
    assert _choice_digest(tmp_path, name) == CHOICE_PINNED[name]


if __name__ == "__main__":
    sys.stdout.write("PINNED = {\n")
    for case in CASES:
        sys.stdout.write(f'    "{_case_id(*case)}": "{_mapping_digest(*case)}",\n')
    sys.stdout.write("}\n\nCHOICE_PINNED = {\n")
    with tempfile.TemporaryDirectory() as scratch:
        for profile in CHOICE_PROFILES:
            sys.stdout.write(f'    "{profile}": "{_choice_digest(Path(scratch), profile)}",\n')
    sys.stdout.write("}\n")
