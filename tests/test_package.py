"""The package surface: `import ginv` loads no submodule, each command loads
only the modules it reaches, and every public name reads through `ginv` as
before."""

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

# runs in a fresh interpreter; prints which ginv submodules (and whether
# numpy) are loaded after `import ginv`, after bad input, after compute mp
# and check, after compute w-core, and after verify
_START_UP = """
import contextlib, io, json, sys
loaded = lambda: sorted(m for m in sys.modules if m == "numpy" or m.startswith("ginv."))
import ginv
steps = {"import ginv": loaded()}
from ginv.cli import main
a, bad, out = sys.argv[1:]
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for path in (bad, bad + ".missing"):
        codes.append(main(["compute", "--kind", "mp", "--a", path]))
    steps["bad input"] = loaded()
    codes.append(main(["compute", "--kind", "mp", "--a", a, "--out", out]))
    codes.append(main(["check", "--kind", "mp", "--a", a, "--candidate", a]))
    steps["compute mp and check"] = loaded()
    codes.append(main(["compute", "--kind", "w-core", "--a", a, "--w", a, "--out", out]))
    steps["compute w-core"] = loaded()
    codes.append(main(["verify", "--ring", "zmod:2", "--theorem", "uniqueness"]))
    steps["verify"] = loaded()
print(json.dumps({"codes": codes, "steps": steps}))
"""


def test_compute_and_check_do_not_load_the_oracle(tmp_path):
    a, bad = tmp_path / "a.json", tmp_path / "bad.json"
    a.write_text(json.dumps({"rows": 1, "cols": 1, "domain": {"kind": "rational"}, "data": [["1"]]}))
    bad.write_text('{"rows": 1,')
    src = os.path.dirname(os.path.dirname(ginv.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _START_UP, str(a), str(bad), str(tmp_path / "out.json")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    result = json.loads(proc.stdout)
    assert result["codes"] == [1, 1, 0, 0, 0, 0]
    cli = ["ginv.cli", "ginv.errors"]
    mp = sorted(cli + ["ginv.domains", "ginv.equations", "ginv.matrix", "ginv.regular", "numpy"])
    w_core = sorted(mp + ["ginv.along", "ginv.classical", "ginv.wcore"])
    assert result["steps"] == {
        "import ginv": [],
        "bad input": cli,
        "compute mp and check": mp,
        "compute w-core": w_core,
        "verify": sorted(w_core + ["ginv.rings", "ginv.theorems"]),
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


# the public API, in the order of __all__: engine submodules, then the names
# they define, then the oracle's
PUBLIC = [
    "errors", "domains", "matrix", "equations", "regular", "classical", "along", "bc_inverse",
    "green_leq", "group_formula_along", "inverse_along", "inverse_along_via_unit",
    "jacobson_partner", "one_along_a", "IndexedInverse", "core_ep_inverse", "core_inverse",
    "drazin_index", "drazin_inverse", "dual_core_inverse", "group_inverse", "COMPLEX_FLOAT",
    "GAUSSIAN_RATIONAL", "RATIONAL", "GaussianRational", "ScalarDomain", "integer_mod",
    "make_domain", "prime_field", "Certificate", "InverseResult", "certify", "DomainMismatch",
    "GinvError", "NotInvertible", "PreconditionFailed", "RouteDisagreement", "ShapeMismatch",
    "TooLarge", "ToleranceWarning", "UnknownTheorem", "UnsupportedDomain", "DEFAULT_TOL",
    "RankFactorization", "StarMatrix", "ToleranceThresholds", "full_rank_factorize",
    "is_projection", "matrix_from_json", "matrix_to_json", "rank", "solve_left", "solve_right",
    "canonical_one_four", "canonical_one_three", "inner_inverse", "mp_inverse", "mp_via_unit",
    "one_four_inverse", "one_three_inverse", "wcore", "UnitReport", "dual_v_core",
    "ideal_form_membership", "section3_units", "special_cases", "star_duality_check", "w_core",
    "w_core_exists", "w_core_of_w_core", "w_core_via_projection", "wcore_as_along", "wcore_as_bc",
    "FiniteStarRing", "enumerate_ring", "green_relations", "solve_equations", "CATALOG",
    "TheoremReport", "verify_all", "verify_theorem",
]


SUBMODULES = ("errors", "domains", "matrix", "equations", "regular", "classical", "along", "wcore")


@pytest.mark.parametrize("name", PUBLIC)
def test_every_public_name_reads_through_the_package(monkeypatch, name):
    assert ginv.__all__ == PUBLIC and name in dir(ginv)
    modules = [importlib.import_module(f"ginv.{m}") for m in SUBMODULES + tuple(ORACLE)]
    if name in SUBMODULES:
        owner = importlib.import_module(f"ginv.{name}")
    else:  # the one object that every submodule holding the name holds
        (owner,) = {id(vars(m)[name]): vars(m)[name] for m in modules if name in vars(m)}.values()
    monkeypatch.delattr(ginv, name, raising=False)
    assert getattr(ginv, name) is owner  # through the package's __getattr__
    assert vars(ginv)[name] is owner


def test_unknown_names_are_missing():
    assert not hasattr(ginv, "no_such_name")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ginv.no_such_name


def test_verify_without_cap_uses_the_default_cap(capsys):
    assert main(["verify", "--ring", "mat:3:gf3", "--theorem", "uniqueness"]) == 1
    err = capsys.readouterr().err
    assert err == "ginv verify: bad ring spec: ring mat:3:gf3 has 19683 elements, cap is 6561\n"
