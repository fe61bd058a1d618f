"""End-to-end CLI tests: compute / verify / check, exit codes, JSON output."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import ginv.cli
from ginv import StarMatrix
from ginv.cli import main
from ginv.errors import RouteDisagreement
from ginv.matrix import matrix_from_json

GAUSSIAN = {"kind": "gaussian_rational"}


def write_matrix(path, rows, domain=GAUSSIAN):
    obj = {
        "rows": len(rows),
        "cols": len(rows[0]),
        "domain": domain,
        "data": rows,
    }
    path.write_text(json.dumps(obj))
    return str(path)


def enc(x):
    return {"re": str(x), "im": "0"}


def nilp_rows():
    return [[enc(0), enc(1)], [enc(0), enc(0)]]


def w1_rows():
    return [[enc(3), enc(6)], [enc(1), enc(0)]]


@pytest.fixture
def nilp(tmp_path):
    return write_matrix(tmp_path / "a.json", nilp_rows())


@pytest.fixture
def w1(tmp_path):
    return write_matrix(tmp_path / "w.json", w1_rows())


def run(args):
    return main(args)


def test_compute_w_core_example(nilp, w1, tmp_path, capsys):
    out = tmp_path / "out.json"
    code = run(
        ["compute", "--kind", "w-core", "--a", nilp, "--w", w1, "--out", str(out)]
    )
    assert code == 0
    result = json.loads(out.read_text())
    assert result["schema"] == 1
    assert result["exists"] is True
    value = matrix_from_json(result["value"])
    assert [[str(x) for x in r] for r in value.data] == [["1", "0"], ["0", "0"]]
    assert result["certificate"]["ok"] is True
    assert all(v == 0.0 for v in result["certificate"]["residuals"].values())


def test_compute_core_not_exists(nilp, capsys):
    code = run(["compute", "--kind", "core", "--a", nilp])
    assert code == 3
    result = json.loads(capsys.readouterr().out)
    assert result["exists"] is False
    assert result["reason"] == "no group inverse"


def test_compute_mp_zero(tmp_path, capsys):
    z = write_matrix(tmp_path / "z.json", [[enc(0), enc(0)], [enc(0), enc(0)]])
    code = run(["compute", "--kind", "mp", "--a", z])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    value = matrix_from_json(result["value"])
    assert value.is_zero()


def test_compute_one_sided_kinds(nilp, capsys):
    for kind in ("one", "one3", "one4"):
        code = run(["compute", "--kind", kind, "--a", nilp])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        value = matrix_from_json(result["value"])
        assert [[str(x) for x in r] for r in value.data] == [["0", "0"], ["1", "0"]]
        assert result["certificate"]["ok"] is True


@pytest.mark.parametrize(
    "rows, kind, code, reason",
    [
        # a* a = 0 over GF(2): no {1,3}-inverse, while a a* S = a S gives a {1,4}-inverse
        ([[1, 0], [1, 0]], "core", 3, "no {1,3}-inverse"),
        ([[1, 0], [1, 0]], "dual-core", 0, None),
        # the transpose: a {1,3}-inverse but no {1,4}-inverse
        ([[1, 1], [0, 0]], "one3", 0, None),
        ([[1, 1], [0, 0]], "one4", 3, "a is not in a a* S"),
        ([[1, 1], [0, 0]], "dual-core", 3, "no {1,4}-inverse"),
    ],
)
def test_compute_core_reasons_name_the_missing_one_sided_inverse(
    tmp_path, capsys, rows, kind, code, reason
):
    a = write_matrix(tmp_path / "a.json", rows, domain={"kind": "prime_field", "modulus": 2})
    assert run(["compute", "--kind", kind, "--a", a]) == code
    result = json.loads(capsys.readouterr().out)
    assert result["exists"] is (code == 0)
    assert result["reason"] == reason


def test_compute_drazin_reports_index(nilp, capsys):
    code = run(["compute", "--kind", "drazin", "--a", nilp])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["index"] == 2
    assert matrix_from_json(result["value"]).is_zero()


def test_compute_then_check_roundtrip(nilp, w1, tmp_path, capsys):
    out = tmp_path / "res.json"
    assert run(["compute", "--kind", "w-core", "--a", nilp, "--w", w1, "--out", str(out)]) == 0
    value = json.loads(out.read_text())["value"]
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps(value))
    code = run(["check", "--kind", "w-core", "--a", nilp, "--w", w1, "--candidate", str(cand)])
    assert code == 0


def test_check_rejects_zero_candidate(nilp, w1, tmp_path, capsys):
    zero = write_matrix(tmp_path / "zero.json", [[enc(0), enc(0)], [enc(0), enc(0)]])
    code = run(["check", "--kind", "w-core", "--a", nilp, "--w", w1, "--candidate", zero])
    assert code == 3
    cert = json.loads(capsys.readouterr().out)["certificate"]
    assert cert["residuals"]["E2"] is None  # exact failure serialized as null


def test_check_mp_roundtrip(nilp, tmp_path, capsys):
    out = tmp_path / "mp.json"
    assert run(["compute", "--kind", "mp", "--a", nilp, "--out", str(out)]) == 0
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps(json.loads(out.read_text())["value"]))
    assert run(["check", "--kind", "mp", "--a", nilp, "--candidate", str(cand)]) == 0


def test_compute_missing_operand(nilp):
    assert run(["compute", "--kind", "w-core", "--a", nilp]) == 1


def test_compute_route_invalid_for_kind(nilp):
    assert run(["compute", "--kind", "mp", "--a", nilp, "--route", "mary_13"]) == 1


def test_compute_single_route(nilp, w1, capsys):
    code = run(
        ["compute", "--kind", "w-core", "--a", nilp, "--w", w1, "--route", "mary_13"]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["certificate"]["route"] == "mary_13"


def test_compute_missing_file(tmp_path):
    assert run(["compute", "--kind", "mp", "--a", str(tmp_path / "nope.json")]) == 1


def test_compute_bad_tolerance(nilp):
    assert run(["compute", "--kind", "mp", "--a", nilp, "--tol", "-3"]) == 1


def test_verify_zmod6_all(capsys):
    assert run(["verify", "--ring", "zmod:6", "--all"]) == 0
    out = capsys.readouterr().out
    assert "uniqueness" in out and "FAIL" not in out


def test_verify_single_theorem(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = run(
        ["verify", "--ring", "mat:2:gf2", "--theorem", "uniqueness", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["counterexample_count"] == 0
    assert report["reports"][0]["instances_checked"] == 256


def test_verify_bad_ring():
    assert run(["verify", "--ring", "zmod:1"]) == 1
    assert run(["verify", "--ring", "nonsense"]) == 1


@pytest.mark.parametrize("spec", ["zmod:abc", "mat:2:gfx", "zmod:"])
def test_verify_malformed_ring_number(capsys, spec):
    assert run(["verify", "--ring", spec]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("ginv verify: bad ring spec:") and repr(spec) in err


def test_verify_unknown_theorem():
    assert run(["verify", "--ring", "zmod:2", "--theorem", "nope"]) == 1


def test_verify_ring_over_cap():
    assert run(["verify", "--ring", "mat:2:gf3", "--cap", "50"]) == 1


def test_usage_error_exit_code():
    assert run(["compute", "--kind", "nonsense", "--a", "x.json"]) == 1
    assert run([]) == 1


def test_invariant_violation_exit_code(nilp, w1, monkeypatch):
    def boom(*args, **kwargs):
        raise RouteDisagreement("injected fault")

    monkeypatch.setattr(ginv.cli, "w_core", boom)
    assert run(["compute", "--kind", "w-core", "--a", nilp, "--w", w1]) == 2


def test_along_kind(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.json", [[enc(2), enc(1)], [enc(1), enc(1)]])
    d = write_matrix(tmp_path / "d.json", [[enc(1), enc(0)], [enc(0), enc(1)]])
    code = run(["compute", "--kind", "along", "--a", a, "--d", d])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    got = matrix_from_json(result["value"])
    # inverse of a along the identity is the plain inverse
    assert [[str(x) for x in r] for r in got.data] == [["1", "-1"], ["-1", "2"]]


def test_bc_kind(nilp, tmp_path, capsys):
    astar = write_matrix(tmp_path / "astar.json", [[enc(0), enc(0)], [enc(1), enc(0)]])
    code = run(["compute", "--kind", "bc", "--a", nilp, "--b", astar, "--c", astar])
    assert code == 0


def test_complex_float_cli(tmp_path, capsys):
    a = write_matrix(
        tmp_path / "cf.json",
        [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        domain={"kind": "complex_float"},
    )
    w = write_matrix(
        tmp_path / "wf.json",
        [[[3.0, 0.0], [6.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        domain={"kind": "complex_float"},
    )
    code = run(["compute", "--kind", "w-core", "--a", a, "--w", w])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    value = matrix_from_json(result["value"])
    assert abs(value.data[0][0] - 1) < 1e-9 and abs(value.data[1][1]) < 1e-9


@pytest.mark.parametrize(
    "domain, data",
    [
        ("rational", [["1/0"]]),
        ("gaussian_rational", [[{"re": "1", "im": "1/0"}]]),
        ("complex_float", [[[float("inf"), 0.0]]]),
        ("complex_float", [[[0.0, float("nan")]]]),
    ],
)
def test_bad_scalar_exits_one_without_traceback(tmp_path, capsys, domain, data):
    a = write_matrix(tmp_path / "bad.json", data, domain={"kind": domain})
    assert run(["compute", "--kind", "mp", "--a", a]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_float_overflow_leaves_one_stderr_line(tmp_path, capsys):
    # 1e-300 * I: the Moore-Penrose residuals overflow inside numpy; the exit
    # code is not pinned here, only the one-line stderr contract
    tiny = [[[1e-300, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e-300, 0.0]]]
    a = write_matrix(tmp_path / "tiny.json", tiny, domain={"kind": "complex_float"})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run(["compute", "--kind", "mp", "--a", a])
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "RuntimeWarning" not in err


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-RFC JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_check_nonfinite_residual_is_json_null(tmp_path, capsys):
    # 1e200 * I squared overflows: the P1 residual is NaN and prints as null
    cf = {"kind": "complex_float"}
    big = [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e200, 0.0]]]
    zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    a = write_matrix(tmp_path / "big.json", big, domain=cf)
    x = write_matrix(tmp_path / "zero.json", zero, domain=cf)
    assert run(["check", "--kind", "mp", "--a", a, "--candidate", x]) == 3
    cert = _strict_json(capsys.readouterr().out)["certificate"]
    assert cert["residuals"]["P1"] is None
    assert cert["ok"] is False


def test_unprovable_prime_modulus_exits_one(tmp_path):
    # 2^89 - 1 is prime, but beyond the range where Miller-Rabin with fixed
    # bases is proven exact: refused at once instead of trial division
    dom = {"kind": "prime_field", "modulus": 2**89 - 1}
    a = write_matrix(tmp_path / "p.json", [[1]], domain=dom)
    src = os.path.dirname(os.path.dirname(ginv.cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "ginv.cli", "compute", "--kind", "one", "--a", a],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_nonfinite_value_is_never_printed(tmp_path, monkeypatch, capsys):
    # a value the JSON wire format cannot carry fails with exit 1, not NaN
    nan = StarMatrix.from_numpy(np.array([[np.nan]]))
    monkeypatch.setattr(ginv.cli, "inner_inverse", lambda a, tol: nan)
    a = write_matrix(tmp_path / "one.json", [[[1.0, 0.0]]], domain={"kind": "complex_float"})
    assert run(["compute", "--kind", "one", "--a", a]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def _ill_conditioned():
    # a = U diag(s) V with Haar unitaries U, V drawn from default_rng(158):
    # the float Drazin and core-EP constructions end with residuals D1 1.6e-7,
    # D2 2.6e-8 and Q3 4.3e-8, above the 1e-8 certificate tolerance
    g = np.random.default_rng(158)

    def unitary():
        q, r = np.linalg.qr((g.standard_normal((5, 5)) + 1j * g.standard_normal((5, 5))) / 2**0.5)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    u, v = unitary(), unitary()
    a = (u * [0.324, 1.17e-2, 3.28e-3, 2.00e-6, 0.0]) @ v
    return np.stack((a.real, a.imag), axis=-1).tolist()


@pytest.mark.parametrize("kind, failing", [("drazin", ["D1", "D2"]), ("core-ep", ["Q3"])])
def test_compute_exits_three_when_the_certificate_fails(tmp_path, capsys, kind, failing):
    a = write_matrix(tmp_path / "ill.json", _ill_conditioned(), domain={"kind": "complex_float"})
    assert run(["compute", "--kind", kind, "--a", a]) == 3
    out = _strict_json(capsys.readouterr().out)
    cert = out["certificate"]
    assert out["exists"] is False and out["value"] is not None
    assert cert["ok"] is False
    assert all(cert["residuals"][name] > cert["tolerance"] for name in failing)
    assert out["reason"] == f"certificate fails equations {failing}"
