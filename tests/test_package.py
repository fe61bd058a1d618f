"""The package surface: the finite-ring oracle (rings, theorems) loads only
when it is used, and its names read through `ginv` as before."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import ginv
from ginv.cli import main

ORACLE = {
    "rings": ("FiniteStarRing", "enumerate_ring", "green_relations", "solve_equations"),
    "theorems": ("CATALOG", "TheoremReport", "verify_all", "verify_theorem"),
}
NAMES = [(module, name) for module, names in ORACLE.items() for name in names]

# runs in a fresh interpreter; prints which oracle modules are loaded after
# `import ginv`, after compute and check, and after verify
_START_UP = """
import contextlib, io, json, sys
loaded = lambda: [m for m in ("ginv.rings", "ginv.theorems") if m in sys.modules]
import ginv
steps = {"import ginv": loaded()}
from ginv.cli import main
a, out = sys.argv[1], sys.argv[2]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["compute", "--kind", "mp", "--a", a, "--out", out]),
        main(["compute", "--kind", "w-core", "--a", a, "--w", a, "--out", out]),
        main(["check", "--kind", "mp", "--a", a, "--candidate", a]),
    ]
    steps["compute and check"] = loaded()
    codes.append(main(["verify", "--ring", "zmod:2", "--theorem", "uniqueness"]))
    steps["verify"] = loaded()
print(json.dumps({"codes": codes, "steps": steps}))
"""


def test_compute_and_check_do_not_load_the_oracle(tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"rows": 1, "cols": 1, "domain": {"kind": "rational"}, "data": [["1"]]}))
    src = os.path.dirname(os.path.dirname(ginv.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _START_UP, str(a), str(tmp_path / "out.json")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0]
    assert result["steps"] == {
        "import ginv": [],
        "compute and check": [],
        "verify": ["ginv.rings", "ginv.theorems"],
    }


@pytest.mark.parametrize("module, name", NAMES)
def test_oracle_names_read_through_the_package(monkeypatch, module, name):
    # unbind the name, so that this read goes through the package's __getattr__
    monkeypatch.delattr(ginv, name, raising=False)
    owner = getattr(importlib.import_module(f"ginv.{module}"), name)
    assert getattr(ginv, name) is owner
    assert vars(ginv)[name] is owner  # bound: later reads are plain attribute hits
    namespace = {}
    exec(f"from ginv import {name}", namespace)
    assert namespace[name] is owner


def test_dir_and_star_import_list_the_oracle_names():
    namespace = {}
    exec("from ginv import *", namespace)
    for _, name in NAMES:
        assert name in dir(ginv)
        assert namespace[name] is getattr(ginv, name)
    assert namespace["w_core"] is ginv.w_core


def test_unknown_names_are_missing():
    assert not hasattr(ginv, "no_such_name")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ginv.no_such_name


def test_verify_without_cap_uses_the_default_cap(capsys):
    assert main(["verify", "--ring", "mat:3:gf3", "--theorem", "uniqueness"]) == 1
    err = capsys.readouterr().err
    assert err == "ginv verify: bad ring spec: ring mat:3:gf3 has 19683 elements, cap is 6561\n"
