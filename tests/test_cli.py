"""End-to-end CLI coverage: every case runs with its defaults, outputs are
deterministic, gates drive the exit status, bad input fails cleanly."""

import json
import math

import pytest

from renormrec.cli import EXIT_ERROR, EXIT_GATE, EXIT_OK, main
from renormrec.verify import CSV_HEADER

ALL_CASES = ["illustration", "van-der-pol", "boundary-layer", "reduction",
             "htr-cubic", "htr-domain-wall"]


def run_cli(*args):
    return main(list(args))


@pytest.mark.parametrize("name", ALL_CASES)
def test_every_case_runs_end_to_end(name, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    code = run_cli("run", "--case", name, "--out-path", str(out))
    assert code == EXIT_OK
    assert out.exists()
    doc = json.loads(out.read_text())
    assert doc["case"] == name
    assert doc["rows"]
    summary = capsys.readouterr().out
    assert f"case={name}" in summary


def test_csv_output(tmp_path):
    out = tmp_path / "rep.csv"
    code = run_cli("run", "--case", "illustration", "--epsilon", "0.05",
                   "--output", "csv", "--out-path", str(out))
    assert code == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 22   # window [0, 20] plus header


def test_parameter_override_changes_window(tmp_path):
    out = tmp_path / "rep.json"
    assert run_cli("run", "--case", "illustration", "--epsilon", "0.1",
                   "--out-path", str(out)) == EXIT_OK
    assert json.loads(out.read_text())["window"] == [0, 10]


def test_window_override(tmp_path):
    out = tmp_path / "rep.json"
    assert run_cli("run", "--case", "illustration", "--window", "5",
                   "--out-path", str(out)) == EXIT_OK
    assert json.loads(out.read_text())["window"] == [0, 5]


def test_expansion_order_flag(tmp_path):
    out1, out2 = tmp_path / "k1.json", tmp_path / "k2.json"
    assert run_cli("run", "--case", "illustration", "--order", "1",
                   "--out-path", str(out1)) == EXIT_OK
    assert run_cli("run", "--case", "illustration", "--order", "2",
                   "--out-path", str(out2)) == EXIT_OK
    s1 = json.loads(out1.read_text())["sup_error"]
    s2 = json.loads(out2.read_text())["sup_error"]
    assert s2 < s1   # the second-order flow tracks the exact roots better


def test_closure_flag(tmp_path):
    out = tmp_path / "full.json"
    assert run_cli("run", "--case", "van-der-pol", "--closure", "full",
                   "--out-path", str(out)) == EXIT_OK
    assert json.loads(out.read_text())["closure"] == "full"


def test_closure_full_with_extended_window(tmp_path):
    # iterated amplitude tables must cover a window override
    out = tmp_path / "full-long.json"
    assert run_cli("run", "--case", "van-der-pol", "--closure", "full",
                   "--window", "150", "--out-path", str(out)) == EXIT_OK
    assert json.loads(out.read_text())["window"] == [0, 150]


def test_ladder_and_gates(tmp_path):
    out = tmp_path / "lad.json"
    ok = run_cli("run", "--case", "illustration",
                 "--ladder", "0.1,0.05,0.025", "--gate", "order>=0.9",
                 "--out-path", str(out))
    assert ok == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["ladder"]) == 3
    assert doc["empirical_order"] >= 0.9
    bad = run_cli("run", "--case", "illustration",
                  "--ladder", "0.1,0.05,0.025", "--gate", "order>=3.0",
                  "--out-path", str(out))
    assert bad == EXIT_GATE


def test_gate_on_sup_error(tmp_path):
    out = tmp_path / "rep.json"
    assert run_cli("run", "--case", "boundary-layer", "--gate",
                   "sup_error<=1e9", "--out-path", str(out)) == EXIT_OK
    assert run_cli("run", "--case", "htr-cubic", "--gate",
                   "sup_error<=1e-30", "--out-path", str(out)) == EXIT_GATE


def test_boundary_layer_readme_ladder_passes_its_gate(tmp_path, capsys):
    out = tmp_path / "lad.json"
    code = run_cli("run", "--case", "boundary-layer",
                   "--ladder", "0.04,0.02,0.01", "--gate", "order>=1.7",
                   "--out-path", str(out))
    assert code == EXIT_OK
    assert 1.7 <= json.loads(out.read_text())["empirical_order"] <= 2.3
    assert "gate passed" in capsys.readouterr().out


def _run_config(tmp_path, params):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "boundary-layer", "params": params}))
    return run_cli("run", "--config", str(cfg),
                   "--out-path", str(tmp_path / "rep.json"))


def test_boundary_layer_vanishing_fast_base_fails_cleanly(tmp_path, capsys):
    # a^2 = eps b: the renormalized inner flow cancels the fast mode
    code = _run_config(tmp_path, {"epsilon": "1/2", "a": "1/2", "b": "1/2"})
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error [RenormError]: ") and err.count("\n") == 1
    assert "fast base vanishes" in err


def test_boundary_layer_singular_composite_system_fails_cleanly(tmp_path,
                                                                 capsys):
    # a^2 = (1 + sqrt 2) eps b makes the fast base equal the slow per-step
    # ratio in floating point, so the layer vanishes at n = N as well
    a = math.sqrt((1 + math.sqrt(2)) * 0.1)
    code = _run_config(tmp_path, {"epsilon": 0.1, "a": a, "b": 1.0, "N": 4})
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error [SingularSystemError]: ") \
        and err.count("\n") == 1


def test_gate_needs_ladder_for_order(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = run_cli("run", "--case", "illustration", "--gate", "order>=1.0",
                   "--out-path", str(out))
    assert code == EXIT_ERROR
    assert "ladder" in capsys.readouterr().err


def test_dump_solution(tmp_path):
    out = tmp_path / "dw.json"
    code = run_cli("run", "--case", "htr-domain-wall", "--lambda", "0.2",
                   "--dump-solution", "--out-path", str(out))
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "dw.solution.json").read_text())
    assert doc["case"] == "htr-domain-wall"
    n0, re0, im0 = doc["samples"][0]
    assert (n0, re0, im0) == (0, 1.0, 0.0)
    assert doc["residual_scan"]


def test_dump_solution_orders_schema(tmp_path):
    out = tmp_path / "ill.json"
    code = run_cli("run", "--case", "illustration", "--dump-solution",
                   "--out-path", str(out))
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "ill.solution.json").read_text())
    records = doc["orders"][0]
    assert {"coeff_re", "coeff_im", "base_re", "base_im", "anchor",
            "degree"} == set(records[0])


def test_dump_solution_covers_an_extended_full_closure_window(tmp_path):
    # the dump reuses the report's own run, whose amplitude table covers the
    # window override
    out = tmp_path / "vdp.json"
    code = run_cli("run", "--case", "van-der-pol", "--closure", "full",
                   "--window", "150", "--dump-solution",
                   "--out-path", str(out))
    assert code == EXIT_OK
    rows = json.loads(out.read_text())["rows"]
    doc = json.loads((tmp_path / "vdp.solution.json").read_text())
    assert doc["samples"] == [[r[0], r[3], r[4]] for r in rows]
    assert [n for n, _ in doc["residual_scan"]] == list(range(151))


def test_dump_solution_describes_the_last_ladder_rung(tmp_path):
    out = tmp_path / "lad.json"
    code = run_cli("run", "--case", "illustration",
                   "--ladder", "0.1,0.05,0.02", "--dump-solution",
                   "--out-path", str(out))
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    doc = json.loads((tmp_path / "lad.solution.json").read_text())
    assert doc["params"] == report["params"]
    assert doc["params"]["epsilon"] == 0.02
    assert doc["samples"] == [[r[0], r[3], r[4]] for r in report["rows"]]
    assert doc["residual_scan"] == [[r[0], r[6]] for r in report["rows"]]


def _assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error [") and err.count("\n") == 1, err


def test_arithmetic_error_fails_cleanly(tmp_path, capsys):
    # slow root -b/a = -100/3 raised to N = 200 leaves the float range
    assert _run_config(tmp_path, {"a": "3", "b": "100", "N": 200}) \
        == EXIT_ERROR
    _assert_one_error_line(capsys)


def test_negative_window_is_rejected(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert run_cli("run", "--case", "illustration", "--window", "-1",
                   "--gate", "sup_error<=0", "--out-path", str(out)) \
        == EXIT_ERROR
    _assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("window", ["130", "200"])
def test_boundary_layer_window_past_n_is_rejected(window, tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert run_cli("run", "--case", "boundary-layer", "--window", window,
                   "--out-path", str(out)) == EXIT_ERROR
    _assert_one_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("case,params", [
    ("reduction", {"epsilon": "1/10", "x0": "nan"}),
    ("reduction", {"y0": "inf"}),
    ("van-der-pol", {"amp0": "nan"}),
    ("htr-domain-wall", {"lam": "nan"}),
])
def test_non_finite_parameters_are_rejected(case, params, tmp_path, capsys):
    # NaN rows would read sup_error = 0 and pass any sup_error gate
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": case, "params": params}))
    out = tmp_path / "rep.json"
    assert run_cli("run", "--config", str(cfg), "--gate", "sup_error<=1e-9",
                   "--out-path", str(out)) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error [ValueError]: ") and err.count("\n") == 1
    assert "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("epsilon,has_envelope", [("0.1", False),
                                                  ("1/50", True)])
def test_van_der_pol_envelope_needs_two_periods(epsilon, has_envelope,
                                                tmp_path):
    # theta = pi/5: a period is 10 steps, and eps = 0.1 gives the window [0, 10]
    out = tmp_path / "vdp.json"
    assert run_cli("run", "--case", "van-der-pol", "--epsilon", epsilon,
                   "--out-path", str(out)) == EXIT_OK
    doc = json.loads(out.read_text())
    assert ("envelope_rel_dev" in doc) == has_envelope


def test_config_document(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "boundary-layer",
                               "params": {"epsilon": "1/25", "N": 10}}))
    out = tmp_path / "rep.json"
    assert run_cli("run", "--config", str(cfg),
                   "--out-path", str(out)) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["params"]["N"] == 10
    assert doc["window"] == [0, 10]


def test_config_case_mismatch(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"case": "illustration", "params": {}}))
    assert run_cli("run", "--config", str(cfg), "--case",
                   "htr-cubic") == EXIT_ERROR


def test_unknown_case_fails_before_computation(tmp_path, capsys):
    assert run_cli("run", "--case", "nope") == EXIT_ERROR
    assert "unknown case" in capsys.readouterr().err


def test_bad_flag_usage_error(capsys):
    assert run_cli("run", "--no-such-flag") == EXIT_ERROR
    assert "argument error" in capsys.readouterr().err


def test_missing_case_and_config(capsys):
    assert run_cli("run") == EXIT_ERROR


def test_bad_gate_expression(tmp_path):
    assert run_cli("run", "--case", "illustration", "--gate", "speed>9000",
                   "--out-path", str(tmp_path / "r.json")) == EXIT_ERROR


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for p in (a, b):
        assert run_cli("run", "--case", "van-der-pol", "--out-path",
                       str(p)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    for p in (c, d):
        assert run_cli("run", "--case", "boundary-layer", "--output", "csv",
                       "--out-path", str(p)) == EXIT_OK
    assert c.read_bytes() == d.read_bytes()
