"""Pinned flow outputs: a speed-up of the rewriting passes must not move them.

``repro optimize --jobs 1 --seed 1`` writes a BLIF for ``resyn2; fraig;
map`` and for ``choice; map`` on a few small EPFL profiles, and
``PINNED`` holds the SHA-256 of each file.  Both scripts run DAG-aware
rewriting (``rw``/``rwz``, and ``choice``'s additive rewrite stage), so
a change that picks another rewrite, or the same rewrites in another
order, changes some digest.  Regenerate the table only for a change that
is meant to alter flows::

    PYTHONPATH=src python tests/rewriting/test_flow_identity.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from repro.circuits import epfl_benchmark
from repro.harness.cli import optimize_main
from repro.io import write_aiger_file

SCRIPTS = {"flow": "resyn2; fraig; map", "choice": "choice; map"}
PROFILES = ["cavlc", "int2float", "priority", "router", "i2c"]

PINNED = {
    "flow/cavlc": "a11d937958a2fc5375ced2fb81696c94fe4c3fa828968b865e636aa919bd4ff7",
    "choice/cavlc": "46499679ccab584a4b42295d9a1bbc40f537a9ae692ce4240cfa7d9378c27b0a",
    "flow/int2float": "229f64c99943126bc95ebc149f870fe2b3670b64ba7a0d368e3288c7a6fef4cb",
    "choice/int2float": "2367a674bae845c33ce414f5cf0a022032bd5f172ce1d37ee46d84709f560b49",
    "flow/priority": "5bbd77f508934be4016608f982240c58c178e71f6a0af0fd4c89bfa7c62aa0e6",
    "choice/priority": "4b6c891bef2bc77101f28c5997e1ea471b3881dcd73d49aa2ced7da4101290db",
    "flow/router": "852af0bc5c0d56b2ee877ef976ae78fa230cb016e21eb1d3807293b724b619ba",
    "choice/router": "bda136a9a893d7e808b7234f74d1d16743044323b740d5698c72911f19d0a3f3",
    "flow/i2c": "927b22696637bb1ee2e4e7a6eb46d1570a94780608deff6fe9276e55952ff667",
    "choice/i2c": "35932e64f0abbe30607267caa27f579aaecbcbed7473e16971080b92d010565b",
}


def _digest(directory: Path, profile: str, script: str) -> str:
    """SHA-256 of the BLIF ``repro optimize`` writes for one profile and script."""
    circuit = directory / f"{profile}.aag"
    if not circuit.exists():
        write_aiger_file(epfl_benchmark(profile), str(circuit))
    blif = directory / f"{profile}.{script}.blif"
    argv = [str(circuit), "--script", SCRIPTS[script], "--jobs", "1", "--seed", "1", "--no-verify", "-o", str(blif)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert optimize_main(argv) == 0
    return hashlib.sha256(blif.read_bytes()).hexdigest()


@pytest.mark.parametrize("script", list(SCRIPTS))
@pytest.mark.parametrize("profile", PROFILES)
def test_flow_matches_pinned_digest(tmp_path: Path, profile: str, script: str) -> None:
    assert _digest(tmp_path, profile, script) == PINNED[f"{script}/{profile}"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for name in PROFILES:
            for kind in SCRIPTS:
                sys.stdout.write(f'    "{kind}/{name}": "{_digest(Path(scratch), name, kind)}",\n')
