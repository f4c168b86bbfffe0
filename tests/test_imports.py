"""What importing hankelkit loads, and the lazy package namespace.

`import hankelkit` loads no submodule, and the CLI loads only the layer its
command computes with: an exact command, exact solve among them, never
imports mpmath.  The budget is checked in fresh interpreters, since this
process has long since loaded everything.  The namespace tests check that the
lazy `hankelkit` still gives every public name, `dir`, `import *` and
submodule access as before.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hankelkit

SRC = str(Path(hankelkit.__file__).resolve().parents[1])
NUMERIC = ("mpmath", "hankelkit.measures", "hankelkit.inverse")
EXACT_LAYERS = ("hankelkit.rank", "hankelkit.approximants", "hankelkit.polynomials")


def loaded_after(code: str, *argv: str) -> set[str]:
    """The modules a fresh interpreter has loaded after running code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    report = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code + report, *argv], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


def run_cli(tmp_path, command: list[str], payload: dict) -> set[str]:
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(payload), encoding="utf-8")
    code = "import sys\nfrom hankelkit.cli import main\nassert main(sys.argv[1:]) == 0"
    return loaded_after(code, *command, str(doc))


@pytest.mark.parametrize(
    "code",
    ["import hankelkit", "import hankelkit.cli\nhankelkit.cli.build_parser()"],
    ids=["package", "cli parser"],
)
def test_import_loads_no_layer(code):
    loaded = loaded_after(code)
    assert "hankelkit" in loaded
    assert loaded.isdisjoint(NUMERIC + EXACT_LAYERS), sorted(loaded & set(NUMERIC + EXACT_LAYERS))


@pytest.mark.parametrize(
    "command, payload",
    [
        (["det"], {"sequence": ["2", "1", "1", "1"]}),
        (["jacobi", "--invert"], {"a": ["1", "-2"], "b": ["3", "1/2"]}),
    ],
    ids=["det", "jacobi --invert"],
)
def test_exact_commands_leave_mpmath_out(tmp_path, command, payload):
    loaded = run_cli(tmp_path, command, payload)
    assert "hankelkit.cli" in loaded
    assert loaded.isdisjoint(NUMERIC), sorted(loaded & set(NUMERIC))


@pytest.mark.parametrize("command", [["solve"], ["solve", "--construct"]], ids=["solve", "solve --construct"])
def test_exact_solve_leaves_mpmath_out(tmp_path, command):
    target = ["1", "2", "0", "-18"]  # every root it takes is rational, the last sqrt(18 / 2) = 3
    assert hankelkit.solve_inverse(target).mode == "exact"
    loaded = run_cli(tmp_path, command, {"target": target})
    assert "hankelkit.inverse" in loaded
    assert "mpmath" not in loaded


def test_bigfloat_solve_loads_mpmath(tmp_path):
    assert "mpmath" in run_cli(tmp_path, ["solve", "--construct"], {"target": ["1", "0", "-2"]})


def test_measure_loads_mpmath(tmp_path):
    loaded = run_cli(tmp_path, ["measure"], {"sequence": ["2", "1", "1", "1", "1", "1"]})
    assert {"mpmath", "hankelkit.measures"} <= loaded


def test_one_default_tolerance():
    from hankelkit import inverse, scalars

    assert inverse.DEFAULT_TOLERANCE is scalars.DEFAULT_TOLERANCE


def test_every_public_name_is_its_module_object():
    for name in hankelkit.__all__:
        module = importlib.import_module(f"hankelkit.{hankelkit._MODULES[name]}")
        assert getattr(hankelkit, name) is getattr(module, name), name


def test_dir_lists_all():
    assert set(hankelkit.__all__) <= set(dir(hankelkit))


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from hankelkit import *", namespace)
    assert set(hankelkit.__all__) <= set(namespace)


def test_unknown_name():
    with pytest.raises(AttributeError, match="^module 'hankelkit' has no attribute 'no_such_name'$"):
        hankelkit.no_such_name  # noqa: B018


def test_submodules_still_import():
    from hankelkit import measures

    assert measures is sys.modules["hankelkit.measures"]
    # A module that defines public names is an attribute before anything imports it.
    assert "hankelkit.rank" in loaded_after("import hankelkit\nhankelkit.rank.hankel_rank")
