"""What each entry point loads: ``generate`` and a bare ``import tieplex``
import no numpy, and the lazily resolved package namespace still holds
every public name."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tieplex

ROOT = Path(__file__).resolve().parent.parent
GENERATE_DIGESTS = json.loads(Path(__file__).with_name("generate_digests.json").read_text(encoding="utf-8"))


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter with ``src`` on its path; return the last line it prints."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_generate_imports_no_numpy(tmp_path):
    code = (
        "import json, sys\n"
        "from tieplex.cli import main\n"
        f"assert main(['generate', '--out', {str(tmp_path)!r}, '--nodes', '60', '--seed', '3']) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    loaded = set(json.loads(run_fresh(code)))
    assert loaded & {"numpy", "tieplex.graph", "tieplex.kernels"} == set()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == GENERATE_DIGESTS["--nodes 60 --seed 3"]


def test_bare_import_loads_no_submodule():
    code = "import json, sys, tieplex\nprint(json.dumps(sorted(sys.modules)))\n"
    loaded = set(json.loads(run_fresh(code)))
    assert "numpy" not in loaded
    assert {name for name in loaded if name.startswith("tieplex")} == {"tieplex"}


def test_from_package_import_returns_the_submodule():
    # the floor leg of CI reads the popcount path this way
    code = "from tieplex import kernels\nprint(kernels.__name__, type(kernels._BITWISE_COUNT).__name__)\n"
    assert run_fresh(code) == "tieplex.kernels bool"


@pytest.mark.parametrize("name", tieplex.__all__)
def test_public_name_is_its_module_object(name):
    value = getattr(tieplex, name)
    assert getattr(sys.modules[value.__module__], name) is value


def test_public_names_reexported_from_their_modules():
    import tieplex.graph
    import tieplex.layers
    import tieplex.metrics

    assert tieplex.layer_metrics is tieplex.metrics.layer_metrics
    assert tieplex.LayerSpec is tieplex.graph.LayerSpec is tieplex.layers.LayerSpec


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from tieplex import *", namespace)
    assert set(tieplex.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(tieplex, name) for name in tieplex.__all__)
    assert set(tieplex.__all__) <= set(dir(tieplex))
    # the 60 public names before they were resolved lazily, less ActorMetrics and JaccardConvention
    assert len(set(tieplex.__all__)) == 58


def test_version_unchanged():
    assert tieplex.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        tieplex.no_such_name
