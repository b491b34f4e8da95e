"""Report bytes on an input large enough for the probe kernel.

``data/demo`` has 60 nodes, so ``demo_digests.json`` pins the dense
``intersection_counts`` path only.  ``generate --nodes 600 --seed 1``
is above the dense limit of 512 nodes, so every count here comes from
the sorted-key probe.  ``probe_digests.json`` holds the sha256 of each
command's stdout, keyed by its arguments.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tieplex import kernels
from tieplex.cli import main

PROBE_DIGESTS = json.loads(Path(__file__).with_name("probe_digests.json").read_text(encoding="utf-8"))
NODES, SEED = 600, 1


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("probe")
    assert main(["generate", "--out", str(root), "--nodes", str(NODES), "--seed", str(SEED)]) == 0
    return root / "manifest.json"


def test_input_takes_the_probe():
    assert 4 * NODES * NODES > kernels._DENSE_BYTES


@pytest.mark.parametrize("command", sorted(PROBE_DIGESTS))
def test_probe_report_bytes_unchanged(command, manifest, capsys):
    assert main([*command.split(), "--manifest", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PROBE_DIGESTS[command]
