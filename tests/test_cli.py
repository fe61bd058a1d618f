"""End-to-end CLI tests: compute / verify / check, exit codes, JSON output."""

import itertools
import json
import os
import random
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import ginv.cli
from ginv import InverseResult, StarMatrix, certify
from ginv.cli import main
from ginv.errors import RouteDisagreement
from ginv.matrix import matrix_from_json, matrix_to_json

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


def test_compute_drazin_index_beyond_the_dimension(tmp_path, capsys):
    # over Z/8, [[2]] has Drazin index 3 > 1 = dim
    a = write_matrix(tmp_path / "a.json", [[2]], domain={"kind": "integer_mod", "modulus": 8})
    assert run(["compute", "--kind", "drazin", "--a", a]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["index"] == 3 and result["certificate"]["ok"] is True
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


# the operands each kind reads beyond a; only the two w-core kinds take --route
KIND_OPERANDS = {"along": ["d"], "w-core": ["w"], "dual-v-core": ["v"], "bc": ["b", "c"]}


@pytest.mark.parametrize("kind", ginv.cli.KINDS)
def test_each_kind_asks_for_its_operands_and_takes_or_refuses_a_route(kind, tmp_path, capsys):
    one = write_matrix(tmp_path / "one.json", [["1"]], domain={"kind": "rational"})
    needed = KIND_OPERANDS.get(kind, [])
    for command in (["compute"], ["check", "--candidate", one]):
        assert run([*command, "--kind", kind, "--a", one]) == (1 if needed else 0)
        out, err = capsys.readouterr()
        if needed:
            assert (out, err) == ("", f"ginv: error: --{needed[0]} is required for kind {kind}\n")
    operands = [f"--{name}={one}" for name in needed]
    code = run(["compute", "--kind", kind, "--a", one, *operands, "--route", "all"])
    out, err = capsys.readouterr()
    if kind in ("w-core", "dual-v-core"):
        assert code == 0 and json.loads(out)["certificate"]["route"] == "all"
    else:
        assert (code, out, err) == (1, "", f"ginv: error: --route is not valid for kind {kind}\n")


def test_compute_unknown_route_is_one_line(nilp, w1, capsys):
    args = ["compute", "--kind", "w-core", "--a", nilp, "--w", w1, "--route", "no_such_route"]
    assert run(args) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("ginv: error: unknown route 'no_such_route' for w-core")


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--tol", "--rank-tol"])
@pytest.mark.parametrize("command", ["compute", "check"])
def test_non_finite_tolerance_is_bad_input(nilp, capsys, command, flag, value):
    # unchecked, a NaN override reaches the numerics (exit 2) and an infinite
    # one the JSON writer (exit 1 after computing); both are bad input
    args = [command, "--kind", "mp", "--a", nilp, f"{flag}={value}"]
    if command == "check":
        args += ["--candidate", nilp]
    assert run(args) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["ginv: error: tolerance overrides must be positive and finite"]


@pytest.mark.parametrize("command", ["compute", "check"])
def test_tolerance_is_checked_before_loading(tmp_path, capsys, command):
    missing = str(tmp_path / "never_read.json")
    args = [command, "--kind", "mp", "--a", missing, "--tol=nan"]
    if command == "check":
        args += ["--candidate", missing]
    assert run(args) == 1
    assert "tolerance overrides" in capsys.readouterr().err


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


def test_verify_skips_a_triple_check_on_a_large_ring(capsys):
    # vw_intersect quantifies over triples: skipped above 16 elements, exit 0
    assert run(["verify", "--ring", "mat:2:gf3", "--theorem", "vw_intersect"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    note = "SKIPPED (triple-quantified check skipped for |ring| > 16)"
    assert line.split(None, 1) == ["vw_intersect", note]


def test_verify_report_carries_the_ring_build_time(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--ring", "zmod:6", "--theorem", "jacobson", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    # an additive key: schema 1 keeps every key it had
    assert report["schema"] == 1
    assert set(report) == {"schema", "ring", "build_s", "counterexample_count", "reports"}
    assert isinstance(report["build_s"], float) and 0.0 <= report["build_s"] < 60.0


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


def test_verify_refuses_an_unwritable_out_before_any_theorem_runs(capsys, monkeypatch, tmp_path):
    import ginv.theorems

    def no_theorem(*args):
        raise AssertionError("a theorem ran before the output path was refused")

    monkeypatch.setattr(ginv.theorems, "verify_theorem", no_theorem)
    out = tmp_path / "missing" / "report.json"
    assert run(["verify", "--ring", "zmod:4", "--theorem", "uniqueness", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [captured.err.strip()]
    assert "No such file or directory" in captured.err


def test_verify_bad_ring_leaves_no_out_file_behind(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--ring", "zmod:1", "--out", str(out)]) == 1
    assert not out.exists()


def test_verify_prints_each_line_as_its_theorem_finishes(monkeypatch):
    import io

    import ginv.theorems

    class Stdout(io.StringIO):
        flushed = ""

        def flush(self):
            self.flushed = self.getvalue()

    stdout, seen, real = Stdout(), [], ginv.theorems.verify_theorem

    def spy(ring, tid):
        seen.append(stdout.flushed)  # what had reached stdout when tid started
        return real(ring, tid)

    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(ginv.theorems, "verify_theorem", spy)
    assert run(["verify", "--ring", "zmod:2", "--all"]) == 0
    lines = stdout.getvalue().splitlines()
    assert len(seen) == len(lines) == len(ginv.theorems.CATALOG)
    assert seen[1] == lines[0] + "\n" and lines[0].startswith("uniqueness ")
    assert all(seen[k] == "".join(line + "\n" for line in lines[:k]) for k in range(len(seen)))


@pytest.mark.parametrize("elapsed", [None, 0.0])
def test_verify_ok_lines_carry_the_instance_rate(capsys, monkeypatch, elapsed):
    import dataclasses

    import ginv.theorems

    reports, real = [], ginv.theorems.verify_theorem

    def timed(ring, tid):
        rep = real(ring, tid)
        reports.append(rep if elapsed is None else dataclasses.replace(rep, elapsed=elapsed))
        return reports[-1]

    monkeypatch.setattr(ginv.theorems, "verify_theorem", timed)
    assert run(["verify", "--ring", "mat:2:gf2", "--theorem", "uniqueness"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    (rep,) = reports
    assert rep.instances_checked == 256
    status = line.split(None, 1)[1]
    if elapsed == 0.0:  # a coarse clock read no time: no rate, no division by zero
        assert status == "ok (256 instances, 0.00s)"
        return
    assert rep.elapsed > 0
    head, rate = status.rsplit(", ", 1)
    assert head == f"ok (256 instances, {rep.elapsed:.2f}s"
    assert rate.endswith(" instances/s)")
    assert int(rate.split()[0]) == round(256 / rep.elapsed)


def test_verify_exits_four_on_a_counterexample(capsys, monkeypatch, tmp_path):
    # a core inverse planted as 0 on Z/6: each of the five nonzero a fails
    # both of core_another's value formulas, 10 counterexamples
    import ginv.rings

    real = ginv.rings.enumerate_ring

    def planted(spec, cap):
        ring = real(spec, cap)
        ring.core_inv = lambda a: 0
        return ring

    monkeypatch.setattr(ginv.rings, "enumerate_ring", planted)
    out = tmp_path / "r.json"
    assert run(["verify", "--ring", "zmod:6", "--theorem", "core_another", "--out", str(out)]) == 4
    (line,) = capsys.readouterr().out.splitlines()
    assert line.split(None, 1) == ["core_another", "FAIL (10 counterexamples)"]
    assert json.loads(out.read_text())["counterexample_count"] == 10
    assert run(["verify", "--ring", "zmod:6", "--all"]) == 4


@pytest.mark.parametrize("k", [300, 3000])
def test_verify_huge_ring_exits_one_with_one_short_line(capsys, k):
    # the CLI lifts the int/str digit limit, so a computed 3^(k^2) would be
    # printed in full; the size is named by its exponent instead
    start = time.perf_counter()
    assert run(["verify", "--ring", f"mat:{k}:gf3", "--theorem", "uniqueness"]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == f"ginv verify: bad ring spec: ring mat:{k}:gf3 has 3^{k * k} elements, cap is 6561\n"


def test_usage_error_exit_code():
    assert run(["compute", "--kind", "nonsense", "--a", "x.json"]) == 1
    assert run([]) == 1


def test_invariant_violation_exit_code(nilp, w1, monkeypatch):
    def boom(*args, **kwargs):
        raise RouteDisagreement("injected fault")

    monkeypatch.setattr(ginv.wcore, "w_core", boom)
    assert run(["compute", "--kind", "w-core", "--a", nilp, "--w", w1]) == 2


def test_single_route_failing_certificate_names_the_equations(nilp, w1, monkeypatch, capsys):
    # a single route returns its value with exists false when its certificate
    # fails, as w_core does; the reason names the failing equations
    def failing(a, w, route, tol):
        x = StarMatrix.zeros(2, 2, a.domain)
        cert = certify("w-core", {"a": a, "w": w, "x": x}, tol, route=route)
        return InverseResult(cert.ok, value=x, certificate=cert)

    monkeypatch.setattr(ginv.wcore, "w_core", failing)
    assert run(["compute", "--kind", "w-core", "--a", nilp, "--w", w1, "--route", "mary_13"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["exists"] is False and out["value"] is not None
    assert out["certificate"]["ok"] is False
    assert out["reason"] == "certificate fails equations ['E2', 'E4']"


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


def count_solves(monkeypatch):
    """solve_right calls, in every ginv module that holds the function (solve_left
    calls it through ginv.matrix)."""
    calls = []
    real = ginv.matrix.solve_right

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("ginv") and getattr(mod, "solve_right", None) is real:
            monkeypatch.setattr(mod, "solve_right", counted)
    return calls


def test_compute_bc_keeps_the_certificate_of_its_construction(tmp_path, capsys, monkeypatch):
    # the CLI reports the certificate that accepted the (b,c)-inverse: two
    # solves (c = cab v, b = u cab), where certifying again solved four more
    # for the memberships; the JSON is byte-equal to a fresh certificate's
    q = {"kind": "rational"}
    mats = {"a": [[1, 1], [0, 1]], "b": [[1, 0], [0, 0]], "c": [[1, 0], [1, 0]]}
    rows = {k: [[str(v) for v in r] for r in m] for k, m in mats.items()}
    args = ["compute", "--kind", "bc"]
    for k in mats:
        args += [f"--{k}", write_matrix(tmp_path / f"{k}.json", rows[k], domain=q)]
    solves = count_solves(monkeypatch)
    assert run(args) == 0
    assert len(solves) == 2
    out = capsys.readouterr().out
    env = {k: StarMatrix.from_rows(m, ginv.domains.RATIONAL) for k, m in mats.items()}
    env["x"] = ginv.bc_inverse(env["a"], env["b"], env["c"])
    want = {"schema": 1, "kind": "bc", "exists": True, "value": matrix_to_json(env["x"])}
    want |= {"index": None, "reason": None, "certificate": certify("bc", env).to_json()}
    assert out == json.dumps(want, indent=2, allow_nan=False) + "\n"


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
    monkeypatch.setattr(ginv.regular, "inner_inverse", lambda a, tol: nan)
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


# each kind whose complex float solve raised numpy's LinAlgError on 1e200 I,
# which the CLI used to report as a usage error (exit 1)
BREAKDOWN_KINDS = ["drazin", "core-ep", "along", "w-core", "dual-v-core", "bc"]


@pytest.mark.parametrize("kind", BREAKDOWN_KINDS)
def test_numerical_breakdown_is_no_inverse(kind, tmp_path, capsys):
    big = [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e200, 0.0]]]
    a = write_matrix(tmp_path / "a.json", big, domain={"kind": "complex_float"})
    operands = [f"--{name}={a}" for name in ("w", "v", "d", "b", "c")]
    assert run(["compute", "--kind", kind, "--a", a, *operands]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    out = json.loads(captured.out)
    assert list(out) == ["schema", "kind", "exists", "value", "index", "reason", "certificate"]
    assert out["kind"] == kind and out["exists"] is False and out["value"] is None
    assert out["reason"] == "numerical breakdown: SVD did not converge"
    assert out["certificate"] is None


def test_numerical_breakdown_in_a_process_has_no_traceback(tmp_path):
    big = [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e200, 0.0]]]
    a = write_matrix(tmp_path / "a.json", big, domain={"kind": "complex_float"})
    src = os.path.dirname(os.path.dirname(ginv.cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "ginv.cli", "compute", "--kind", "drazin", "--a", a],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr and proc.stderr == ""
    assert json.loads(proc.stdout)["reason"] == "numerical breakdown: SVD did not converge"


def graded(kappa, n, seed):
    """U diag(geomspace(1, 1/kappa, n)) V*, invertible with condition number
    kappa; U and V in that order from bench/workloads.py's _unitary."""
    g = np.random.default_rng(seed)

    def unitary():
        z = (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    u, v = unitary(), unitary()
    return u @ np.diag(np.geomspace(1, 1 / kappa, n)) @ v.conj().T


def compute_graded(tmp_path, capsys, kind, a):
    """The exit code and, when it is 0, the value's relative distance from a^-1."""
    path = tmp_path / "a.json"
    path.write_text(json.dumps(matrix_to_json(StarMatrix.from_numpy(a))))
    code = run(["compute", "--kind", kind, "--a", str(path)])
    out = capsys.readouterr().out
    if code != 0:
        return code, None
    x, inv = matrix_from_json(json.loads(out)["value"]).to_numpy(), np.linalg.inv(a)
    return code, np.linalg.norm(x - inv) / np.linalg.norm(inv)


# a is invertible, so a^-1 is its only {1,3}-, {1,4}-, group, core and dual-core
# inverse.  Normal equations against a*a or a^2 see kappa^2: at kappa = 1e5
# they certified a {1,3}-inverse 98 % away from a^-1 and exited 2 on the others
GRADED_KINDS = ["one3", "one4", "group", "core", "dual-core"]


@pytest.mark.parametrize("kind", GRADED_KINDS + ["mp", "one"])
def test_graded_float_input_gives_its_inverse(kind, tmp_path, capsys):
    code, distance = compute_graded(tmp_path, capsys, kind, graded(1e5, 8, 0))
    assert code == 0 and distance < 1e-10


@pytest.mark.parametrize("kappa, n, seed", itertools.product((1e4, 1e6, 1e8), (8, 16), range(4)))
def test_graded_float_sweep_is_accurate_or_exits_3(kappa, n, seed, tmp_path, capsys):
    a = graded(kappa, n, seed)
    for kind in GRADED_KINDS:
        code, distance = compute_graded(tmp_path, capsys, kind, a)
        assert code in (0, 3), kind
        assert code == 3 or distance <= 10 * kappa * np.finfo(float).eps, kind


def _diag(tmp_path, name, *entries):
    rows = [[[float(x), 0.0] if i == j else [0.0, 0.0] for j in range(2)] for i, x in enumerate(entries)]
    return write_matrix(tmp_path / f"{name}.json", rows, domain={"kind": "complex_float"})


@pytest.mark.parametrize(
    "kind, operands, code",
    [
        ("bc", {"a": (1, 1), "b": (1, 0), "c": (1, 0)}, 3),
        # as_bc fails near tolerance, the other routes carry the value
        ("w-core", {"a": (1, 0), "w": (1, 1)}, 0),
    ],
)
def test_a_failing_bc_certificate_stays_off_stderr(
    failing_bc_certificate, tmp_path, capsys, kind, operands, code
):
    args = ["compute", "--kind", kind]
    for name, entries in operands.items():
        args += [f"--{name}", _diag(tmp_path, name, *entries)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(args) == code
    assert caught == []  # nothing that Python would print on stderr
    out, err = capsys.readouterr()
    assert err == ""
    result = json.loads(out)
    if kind == "bc":
        # the rank criterion holds: the reason names the failed certificate
        assert result["value"] is None and result["certificate"] is None
        assert result["reason"].startswith("(b,c)-inverse certificate failed near tolerance")


def test_a_failing_bc_certificate_in_a_process_leaves_stderr_empty(tmp_path):
    # 1e-300 I with b = c = I: the B3 residual is NaN at this scale, so the
    # certificate fails, though a is invertible
    a, i = _diag(tmp_path, "a", 1e-300, 1e-300), _diag(tmp_path, "i", 1, 1)
    src = os.path.dirname(os.path.dirname(ginv.cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "ginv.cli", "compute", "--kind", "bc", "--a", a, "--b", i, "--c", i],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert proc.returncode == 3 and proc.stderr == ""
    result = json.loads(proc.stdout)
    assert result["value"] is None
    assert result["reason"].startswith("(b,c)-inverse certificate failed near tolerance")


def test_a_nan_bc_residual_is_named_not_printed(tmp_path, capsys):
    # the same case in-process: the reason names B3, whose residual is NaN
    a, i = _diag(tmp_path, "a", 1e-300, 1e-300), _diag(tmp_path, "i", 1, 1)
    assert run(["compute", "--kind", "bc", "--a", a, "--b", i, "--c", i]) == 3
    reason = json.loads(capsys.readouterr().out)["reason"]
    assert reason == "(b,c)-inverse certificate failed near tolerance on equations ['B3']"
    assert "nan" not in reason


@pytest.mark.parametrize("entry", ["1e99999999", "1e" + "9" * 5000], ids=["8-digit", "5000-digit"])
def test_an_entry_with_a_huge_exponent_exits_one_at_once(tmp_path, capsys, entry):
    # 10^exponent is never built: the CLI lifts the digit limit, so nothing
    # else would stop it
    a = write_matrix(tmp_path / "a.json", [[entry]], domain=RATIONAL)
    start = time.perf_counter()
    assert run(["compute", "--kind", "mp", "--a", a]) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err == f"ginv: error: bad rational scalar {entry!r}\n"


def test_check_reports_a_numerical_breakdown_in_one_line(tmp_path, capsys, monkeypatch):
    def breaks(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(ginv.equations, "certify", breaks)
    a = write_matrix(tmp_path / "a.json", nilp_rows())
    assert run(["check", "--kind", "mp", "--a", a, "--candidate", a]) == 3
    err = capsys.readouterr().err
    assert err == "ginv: numerical breakdown: SVD did not converge\n"


def _doc(domain, data, rows=1):
    return {"rows": rows, "cols": 1, "domain": domain, "data": data}


# malformed matrix documents, each with the field its one-line message names
MALFORMED = {
    "list": ([1, 2], "JSON object"),
    "string": ("hello", "JSON object"),
    "null": (None, "JSON object"),
    "domain string": (_doc("rational", [["1"]]), "domain"),
    "modulus string": (_doc({"kind": "prime_field", "modulus": "7"}, [[1]]), "modulus"),
    "modulus float": (_doc({"kind": "prime_field", "modulus": 7.0}, [[1]]), "modulus"),
    "modulus fraction": (_doc({"kind": "integer_mod", "modulus": 6.5}, [[1]]), "modulus"),
    "rows fraction": (_doc({"kind": "rational"}, [["1"]], rows=1.5), "rows"),
    "gaussian without im": (_doc(GAUSSIAN, [[{"re": "1"}]]), "'re' and 'im'"),
    "complex null part": (_doc({"kind": "complex_float"}, [[[None, 0]]]), "complex scalar"),
    "complex string part": (_doc({"kind": "complex_float"}, [[["1", 0]]]), "complex scalar"),
    "complex huge part": (_doc({"kind": "complex_float"}, [[[10**400, 0]]]), "finite"),
}


@pytest.mark.parametrize("doc, field", MALFORMED.values(), ids=list(MALFORMED))
@pytest.mark.parametrize("role", ["a", "w", "candidate"])
def test_malformed_matrix_document_exits_one_with_one_line(tmp_path, capsys, doc, field, role):
    good = write_matrix(tmp_path / "good.json", [["1"]], domain={"kind": "rational"})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = {
        "a": ["compute", "--kind", "mp", "--a", str(bad)],
        "w": ["compute", "--kind", "w-core", "--a", good, "--w", str(bad)],
        "candidate": ["check", "--kind", "mp", "--a", good, "--candidate", str(bad)],
    }[role]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("ginv: error:") and field in captured.err


def test_single_definite_route_is_inapplicable_over_gf7(tmp_path, capsys):
    gf7 = {"kind": "prime_field", "modulus": 7}
    a = write_matrix(tmp_path / "a.json", [[1, 2], [0, 0]], domain=gf7)
    w = write_matrix(tmp_path / "w.json", [[1, 0], [0, 1]], domain=gf7)
    args = ["compute", "--kind", "w-core", "--a", a, "--w", w, "--route", "rank_formula"]
    assert run(args) == 3
    result = json.loads(capsys.readouterr().out)
    assert result["exists"] is False
    assert result["reason"] == "route rank_formula not applicable here"


RATIONAL = {"kind": "rational"}


@pytest.mark.parametrize("kind", ["group", "mp"])
def test_answers_beyond_the_int_str_digit_limit(kind, tmp_path):
    # a = [[N, 1], [0, 0]] with N = 10^3000: a^# = a / N^2 and a^+ = a* / (N^2 + 1)
    # have 6,001-digit entries, past Python's default 4,300-digit limit
    limit = sys.get_int_max_str_digits()
    big = "1" + "0" * 3000
    a = write_matrix(tmp_path / "a.json", [[big, "1"], ["0", "0"]], domain=RATIONAL)
    out = tmp_path / "x.json"
    assert run(["compute", "--kind", kind, "--a", a, "--out", str(out)]) == 0
    value = json.loads(out.read_text())["value"]
    if kind == "group":
        assert value["data"] == [["1/" + big, "1/1" + "0" * 6000], ["0", "0"]]
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps(value))
    assert run(["check", "--kind", kind, "--a", a, "--candidate", str(cand)]) == 0
    assert sys.get_int_max_str_digits() == limit  # restored after each run


def test_an_input_entry_beyond_the_int_str_digit_limit_is_read(tmp_path, capsys):
    huge = "1" + "0" * 5000
    a = write_matrix(tmp_path / "a.json", [[huge]], domain=RATIONAL)
    assert run(["compute", "--kind", "mp", "--a", a]) == 0
    assert json.loads(capsys.readouterr().out)["value"]["data"] == [["1/" + huge]]


# ginv check has no construction witnesses, so it solves for each membership:
# the candidate 1 meets A1-A2 / B1-B3 for a = 1 and b = c = d = diag(1, 0) but
# lies in neither d R nor R d, b R nor R c
@pytest.mark.parametrize(
    "kind, passing, failing",
    [
        ("along", ["A1", "A2"], ["x_leq_L_d", "x_leq_R_d"]),
        ("bc", ["B1", "B2", "B3", "b_leq_R_x", "c_leq_L_x"], ["x_leq_R_b", "x_leq_L_c"]),
    ],
)
def test_check_solves_the_memberships_it_has_no_witness_for(
    kind, passing, failing, tmp_path, capsys
):
    one = write_matrix(tmp_path / "one.json", [["1", "0"], ["0", "1"]], domain=RATIONAL)
    e = write_matrix(tmp_path / "e.json", [["1", "0"], ["0", "0"]], domain=RATIONAL)
    operands = ["--d", e] if kind == "along" else ["--b", e, "--c", e]
    assert run(["check", "--kind", kind, "--a", one, *operands, "--candidate", one]) == 3
    cert = json.loads(capsys.readouterr().out)["certificate"]
    assert cert["ok"] is False
    assert cert["residuals"] == {**dict.fromkeys(passing, 0.0), **dict.fromkeys(failing)}


# a random 6x6 pair over Z/12: 12**6 candidates per column ended each of these
# kinds with exit 1 while Z/n was solved by exhaustive search
Z12_KINDS = ["mp", "group", "drazin", "core", "core-ep", "w-core", "dual-v-core", "one3"]


@pytest.mark.parametrize("kind", Z12_KINDS)
def test_a_6x6_pair_over_z12_gets_an_answer(tmp_path, capsys, kind):
    rng = random.Random(7)
    z12 = {"kind": "integer_mod", "modulus": 12}
    rows = [[[rng.randrange(12) for _ in range(6)] for _ in range(6)] for _ in "aw"]
    a, w = (write_matrix(tmp_path / f"{name}.json", r, z12) for name, r in zip("aw", rows))
    second = {"w-core": ["--w", w], "dual-v-core": ["--v", w]}.get(kind, [])
    code = run(["compute", "--kind", kind, "--a", a, *second])
    out, err = capsys.readouterr()
    assert code in (0, 3) and err == ""
    result = _strict_json(out)
    assert result["exists"] is (code == 0)
    if code == 0:
        assert result["certificate"]["ok"] is True


# complex a with d invertible, so the inverse of a along d is a^{-1}: the float
# dx - yd cross-check these once met overflowed in its own norms (exit 2)
EXTREME_ALONG = [
    (1e-300 * np.eye(2), np.array([[1.0, 2.0], [3.0, 4.0]])),
    (1e-250 * np.eye(2), np.array([[1.0, 2.0], [3.0, 4.0]])),
    (1e-200 * np.array([[1.0, 2.0], [3.0, 4.0]]), np.eye(2)),
]


@pytest.mark.parametrize("a, d", EXTREME_ALONG, ids=["1e-300", "1e-250", "1e-200"])
def test_along_at_extreme_scales_is_the_inverse(tmp_path, capsys, a, d):
    cf = {"kind": "complex_float"}

    def rows(m):
        return [[[float(z.real), float(z.imag)] for z in r] for r in m.astype(complex)]

    pa = write_matrix(tmp_path / "a.json", rows(a), domain=cf)
    pd = write_matrix(tmp_path / "d.json", rows(d), domain=cf)
    assert run(["compute", "--kind", "along", "--a", pa, "--d", pd]) == 0
    got = np.array(matrix_from_json(_strict_json(capsys.readouterr().out)["value"]).data)
    want = np.linalg.inv(a)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# complex a = 10^e M at both ends of the binary64 range, e = -300, -250, ...,
# 200, run through every kind with the other operands all 1, all [[1, 2],
# [3, 4]] or all a: 1,287 in-process calls.  Exit 2 still marks the magnitude
# defects that ROADMAP.md lists; none of them may exit 1 or leak a traceback
GRID_MATRICES = {
    "1": np.eye(2),
    "m": np.array([[1.0, 2.0], [3.0, 4.0]]),
    "jordan": np.array([[0.5, 1.0], [0.0, 0.5]]),
}


def test_every_kind_keeps_the_cli_contract_at_extreme_scales(tmp_path, capsys):
    def write(name, m):
        rows = [[[float(z.real), float(z.imag)] for z in r] for r in m.astype(complex)]
        return write_matrix(tmp_path / f"{name}.json", rows, domain={"kind": "complex_float"})

    fixed = [write(name, GRID_MATRICES[name]) for name in ("1", "m")]
    calls = 0
    for (name, m), e in itertools.product(GRID_MATRICES.items(), range(-300, 201, 50)):
        a = write(f"a-{name}-{e}", 10.0**e * m)
        for other, kind in itertools.product([*fixed, a], ginv.cli.KINDS):
            operands = [f"--{letter}={other}" for letter in ("w", "v", "d", "b", "c")]
            code = run(["compute", "--kind", kind, "--a", a, *operands])
            out, err = capsys.readouterr()
            where = f"{kind}: a = 1e{e} * {name}, operands {other}"
            assert code in (0, 2, 3), where
            assert len(err.splitlines()) <= 1 and "Traceback" not in err, where
            if code != 2:
                result = _strict_json(out)
                assert code == 3 or result["certificate"]["ok"] is True, where
            calls += 1
    assert calls == 1287


# 0 x 0 operands: every product, norm and comparison of the certificate is
# empty.  Each kind exists there with the 0 x 0 value on all five domains,
# except `one` over Z/6, which refuses Z/n by design
ZERO_DOMAINS = [
    {"kind": "rational"},
    {"kind": "gaussian_rational"},
    {"kind": "prime_field", "modulus": 7},
    {"kind": "integer_mod", "modulus": 6},
    {"kind": "complex_float"},
]


@pytest.mark.parametrize("domain", ZERO_DOMAINS, ids=lambda d: d["kind"])
def test_every_kind_on_zero_by_zero_operands(tmp_path, capsys, domain):
    empty = {"rows": 0, "cols": 0, "domain": domain, "data": []}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(empty))
    operands = [f"--{letter}={path}" for letter in ("w", "v", "d", "b", "c")]
    for kind in ginv.cli.KINDS:
        code = run(["compute", "--kind", kind, "--a", str(path), *operands])
        out, err = capsys.readouterr()
        if kind == "one" and domain["kind"] == "integer_mod":
            assert code == 1 and out == "" and len(err.splitlines()) == 1, kind
            continue
        assert code == 0 and err == "", kind
        result = _strict_json(out)
        assert result["exists"] is True and result["certificate"]["ok"] is True, kind
        assert result["value"] == empty, kind


def test_check_on_a_zero_by_zero_rational(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"rows": 0, "cols": 0, "domain": {"kind": "rational"}, "data": []}))
    assert run(["check", "--kind", "mp", "--a", str(path), "--candidate", str(path)]) == 0
    result = _strict_json(capsys.readouterr().out)
    assert result["certificate"]["ok"] is True
    assert result["certificate"]["residuals"] == {"P1": 0.0, "P2": 0.0, "P3": 0.0, "P4": 0.0}
