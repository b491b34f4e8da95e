"""Exit-code contract under corrupted input files.

Every report verb and ``validate`` must exit 0 or 2 on any input, never
3 (an internal error), and must write to stderr exactly when it fails.
When loading fails, the message names the input file at fault.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tieplex import TieplexError, load_dataset, load_manifest, write_demo_dataset
from tieplex.cli import main

from conftest import REPORT_VERBS

FILES = ("manifest.json", "nodes.txt", "edges.csv", "attributes.csv")
KINDS = ("overwrite", "delete", "truncate", "insert")
TOKENS = (b",", b"\n", b"\t", b"nan", b"null", b"{}")
PAYLOADS = st.one_of(st.sampled_from(TOKENS), st.binary(min_size=1, max_size=1))
VERBS = (*REPORT_VERBS, ["validate"])


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("original")
    write_demo_dataset(root, seed=3, n_nodes=8)
    return {name: (root / name).read_bytes() for name in FILES}


def mutate(data: bytes, kind: str, at: int, payload: bytes) -> bytes:
    if kind == "overwrite":
        return data[:at] + payload + data[at + 1:]
    if kind == "delete":
        return data[:at] + data[at + 1:]
    if kind == "truncate":
        return data[:at]
    return data[:at] + payload + data[at:]


@given(st.data())
@settings(derandomize=True, max_examples=50, deadline=None)
def test_corrupted_inputs_exit_0_or_2(tmp_path_factory, originals, data):
    files = dict(originals)
    changes = []
    for _ in range(data.draw(st.integers(1, 3))):
        name = data.draw(st.sampled_from(FILES))
        change = (name, data.draw(st.sampled_from(KINDS)), data.draw(st.integers(0, len(files[name]))))
        files[name] = mutate(files[name], *change[1:], data.draw(PAYLOADS))
        changes.append(change)
    root = tmp_path_factory.mktemp("mutated")
    for name, content in files.items():
        (root / name).write_bytes(content)
    for load in (load_manifest, load_dataset):
        try:
            load(root / "manifest.json")
        except (TieplexError, OSError) as exc:
            assert any(name in str(exc) for name in FILES), (load.__name__, changes, str(exc))
    for verb in VERBS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*verb, "--manifest", str(root / "manifest.json")])
        assert code in (0, 2), (verb, changes, err.getvalue())
        assert (err.getvalue() == "") == (code == 0), (verb, changes, err.getvalue())
