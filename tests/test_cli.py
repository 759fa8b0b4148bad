import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gsrep
from gsrep import cli, dirlim, liealg
from gsrep.errors import SchemaError



def run_main(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def test_analyze_report(capsys):
    code, out = run_main(capsys, ["analyze", "--group", "u", "--n", "3",
                                  "--d", "1,0,0", "--weight", "1,0,0"])
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["m"] == pytest.approx(0.0, abs=1e-10)
    assert report["verdicts"]["h0_dim"] == 2
    assert report["verdicts"]["strict"] is True
    assert report["tables"]["commutant_dims"] == [1, 1, 4]
    assert all("tol" in c for c in report["checks"])


def test_reports_are_byte_stable(capsys):
    argv = ["--seed", "3", "cone-check", "--group", "u", "--n", "2",
            "--d", "2,1", "--weight", "1,0"]
    _, first = run_main(capsys, argv)
    _, second = run_main(capsys, argv)
    assert first == second


def test_cone_check_su12(capsys):
    code, out = run_main(capsys, ["cone-check", "--su12", "--weight", "0,1,0"])
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"] == {"cone": True, "hw_unitarizable": False}


def test_cone_check_regular_character(capsys):
    code, out = run_main(capsys, ["cone-check", "--group", "u", "--n", "2",
                                  "--d", "2,1", "--weight", "1,0"])
    report = json.loads(out)
    assert code == 0
    assert report["verdicts"]["cone"] is False
    assert report["verdicts"]["agrees"] is True
    assert "witness" in report["tables"]


def test_dirlim_member(capsys):
    code, out = run_main(capsys, ["dirlim", "--lam", "0,1,2", "--d", "3,2,1"])
    report = json.loads(out)
    assert code == 0
    assert report["verdicts"]["member"] is True
    assert report["tables"]["generator_count"] == 3


def test_dirlim_counts_generators_without_building_an_algebra(capsys, monkeypatch):
    def no_algebra(*args, **kwargs):
        raise AssertionError("dirlim built a Lie algebra")

    monkeypatch.setattr(liealg, "build_algebra", no_algebra)
    assert not hasattr(dirlim, "build_algebra")  # nor can dirlim reach one of its own
    level = 16
    lam = ",".join(str(k) for k in range(level))
    d = ",".join(str(level - k) for k in range(level))
    code, out = run_main(capsys, ["dirlim", "--lam", lam, "--d", d])
    report = json.loads(out)
    assert code == 0 and report["verdicts"]["member"] is True
    assert report["tables"]["generator_count"] == 120


def test_fock_tables(capsys):
    code, out = run_main(capsys, ["fock", "--modes", "1", "--cutoffs", "10,20",
                                  "--sector", "5", "--zero-modes", "0"])
    report = json.loads(out)
    assert code == 0
    table = report["tables"]["weyl_residuals"]
    assert set(table) == {"10", "20"}
    assert table["20"]["residual"] <= table["10"]["residual"] + 1e-12
    assert report["verdicts"]["monotone"] is True
    assert "weyl-relations-monotone" in [c["id"] for c in report["checks"]]


@pytest.mark.parametrize("cutoff_args", [[], ["--cutoff", "12"], ["--cutoffs", "10,10"]])
def test_fock_with_one_distinct_cutoff_gives_no_monotonicity_verdict(capsys, cutoff_args):
    code, out = run_main(capsys, ["fock", "--modes", "1", *cutoff_args])
    report = json.loads(out)
    assert code == 0
    assert len(report["tables"]["weyl_residuals"]) == 1
    assert report["verdicts"]["monotone"] is None
    assert "weyl-relations-monotone" not in [c["id"] for c in report["checks"]]
    assert "weyl-vacuum" in [c["id"] for c in report["checks"]]


def test_sweep_level_consistency(capsys):
    code, out = run_main(capsys, ["sweep", "--suite", "level-consistency", "--cases", "200"])
    report = json.loads(out)
    assert code == 0
    assert report["verdicts"]["failures"] == 0
    assert report["verdicts"]["cases"] == 200


def test_schema_error_exit_code(capsys):
    code = cli.main(["cone-check", "--weight", "1,0"])
    assert code == 2


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = cli.main(["--output", str(target), "dirlim", "--lam", "1,1", "--d", "1,0"])
    assert code == 0
    report = json.loads(target.read_text())
    assert report["verdicts"]["member"] is True


def test_matrix_encoding_round_trip():
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    again = cli.decode_matrix(json.loads(json.dumps(cli.encode_matrix(mat))))
    assert np.array_equal(mat, again)


def test_irrep_cache_round_trip(tmp_path):
    cache = cli.IrrepCache(str(tmp_path))
    g = liealg.build_algebra("u", 2)
    rep = cache.get_or_build(g, (2, 0))
    again = cache.load(g, (2, 0))
    assert again is not None
    assert np.array_equal(rep.dpi, again.dpi)
    assert again.label == (2, 0)


def test_irrep_cache_used_by_analyze(tmp_path, capsys):
    argv = ["--cache-dir", str(tmp_path), "analyze", "--group", "u", "--n", "2",
            "--d", "1,0", "--weight", "2,0"]
    code, first = run_main(capsys, argv)
    assert code == 0
    assert list(tmp_path.glob("u2_lam_*.json"))
    code, second = run_main(capsys, argv)
    assert first == second


def test_analyze_builds_the_algebra_once_with_a_cold_and_a_warm_cache(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(*args, _real=liealg.build_algebra):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(liealg, "build_algebra", counting)
    argv = ["--cache-dir", str(tmp_path), "analyze", "--group", "u", "--n", "3",
            "--d", "1,0,0", "--weight", "2,1,0"]
    reports = []
    for _ in range(2):
        code, out = run_main(capsys, argv)
        assert code == 0
        reports.append(out)
    assert calls == [("u", 3)] * 2
    assert reports[0] == reports[1]


def test_classify_u2(capsys):
    code, out = run_main(capsys, ["classify", "--group", "u", "--n", "2",
                                  "--d", "2,1", "--box", "2"])
    report = json.loads(out)
    assert code == 0
    assert report["verdicts"]["match"] is True
    assert len(report["tables"]["antidominant"]) == len(report["tables"]["lowest_weights"])


def test_run_rejects_bad_tolerance():
    with pytest.raises(SchemaError):
        cli.run({"command": "dirlim", "lam": [1], "d": [1.0], "tol": -1.0})


def test_dirlim_accepts_json_arrays(capsys):
    code, out = run_main(capsys, ["dirlim", "--lam", "[0, 1, 2]", "--d", "[3, 2, 1]"])
    assert code == 0
    assert json.loads(out)["verdicts"]["member"] is True


def test_cache_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    code, _ = run_main(capsys, ["analyze", "--group", "u", "--n", "2",
                                "--d", "1,0", "--weight", "1,0"])
    assert code == 0
    assert list(tmp_path.glob("u2_lam_*.json"))


def test_sweep_strict_direct_sums(capsys):
    code, out = run_main(capsys, ["sweep", "--suite", "strict-direct-sums"])
    report = json.loads(out)
    assert code == 0
    assert report["verdicts"]["failures"] == 0


def test_sweep_cone_coroot(capsys):
    code, out = run_main(capsys, ["sweep", "--suite", "cone-coroot", "--box", "2"])
    report = json.loads(out)
    assert code == 0
    assert report["verdicts"]["failures"] == 0
    assert report["verdicts"]["cases"] == 2 * 25


def test_sweep_fock_convergence(capsys):
    code, out = run_main(capsys, ["sweep", "--suite", "fock-convergence"])
    report = json.loads(out)
    assert code == 0
    assert report["verdicts"]["failures"] == 0


def test_sweep_classification(capsys):
    code, out = run_main(capsys, ["sweep", "--suite", "classification", "--box", "2"])
    report = json.loads(out)
    assert code == 0
    assert report["verdicts"]["failures"] == 0


def assert_schema_error(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert not captured.out
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["code"] == "SchemaError"
    return error["message"]


def test_schema_error_is_one_line_json(capsys):
    assert_schema_error(capsys, ["cone-check", "--weight", "1,0"])


@pytest.mark.parametrize("argv,message", [
    (["analyze", "--n", "2"], "gsrep analyze: the following arguments are required: --d, --weight"),
    (["analyze", "--n", "x", "--d", "1,0", "--weight", "1,0"], "invalid int value: 'x'"),
    # global options go before the subcommand
    (["analyze", "--n", "2", "--d", "1,0", "--weight", "1,0", "--tol", "0"],
     "gsrep: unrecognized arguments: --tol 0"),
    # a list is parsed as argparse reads it: the first malformed one in argv
    # order is named, and before a missing option
    (["analyze", "--n", "2", "--weight", "y", "--d", "x"], "could not parse number list 'y'"),
    (["analyze", "--n", "2", "--d", "x", "--weight", "y"], "could not parse number list 'x'"),
    (["analyze", "--n", "2", "--d", "x"], "could not parse number list 'x'"),
])
def test_argument_errors_are_one_line_json_schema_errors(capsys, argv, message):
    assert message in assert_schema_error(capsys, argv)


@pytest.mark.parametrize("argv,with_equals", [
    (["analyze", "--n", "2", "--d", "-1,0", "--weight", "1,0"],
     ["analyze", "--n", "2", "--d=-1,0", "--weight", "1,0"]),
    (["analyze", "--n", "2", "--d", "1,0", "--weight", "-1,-1"],
     ["analyze", "--n", "2", "--d", "1,0", "--weight=-1,-1"]),
    (["cone-check", "--n", "2", "--d", "2,1", "--weight", "-1,-1"],
     ["cone-check", "--n", "2", "--d", "2,1", "--weight=-1,-1"]),
    (["dirlim", "--lam", "-2,0,1", "--d", "3,2,1"], ["dirlim", "--lam=-2,0,1", "--d", "3,2,1"]),
    (["classify", "--n", "2", "--d", "-.5,1", "--box", "1"], ["classify", "--n", "2", "--d=-.5,1", "--box", "1"]),
])
def test_list_values_may_start_with_a_minus_sign(capsys, monkeypatch, argv, with_equals):
    want = run_main(capsys, with_equals)
    assert want[0] == 0 and run_main(capsys, argv) == want
    monkeypatch.setattr(sys, "argv", ["gsrep", *argv])  # main() reads sys.argv
    assert run_main(capsys, None) == want


@pytest.mark.parametrize("argv", [
    ["analyze", "--n", "2", "--d", "--weight", "1,0"],
    ["dirlim", "--d", "3,2,1", "--lam"],
    ["cone-check", "--n", "2", "--d", "2,1", "--weight", "-x"],
])
def test_a_missing_list_value_is_still_a_schema_error(capsys, argv):
    assert "expected one argument" in assert_schema_error(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["--seed", "-1", "fock", "--modes", "1", "--cutoffs", "4"],
    ["--seed", "-1", "cone-check", "--n", "3", "--d", "2,1,0", "--weight", "1,0,2"],
    ["--seed", "-3", "sweep", "--suite", "cone-coroot", "--box", "1", "--cases", "5"],
    ["--seed", "-1", "analyze", "--n", "2", "--d", "1,0", "--weight", "1,0"],
])
def test_a_negative_seed_is_a_schema_error(capsys, argv):
    assert "seed must be a non-negative integer" in assert_schema_error(capsys, argv)


def test_d_coeffs_is_no_job_key(capsys, monkeypatch):
    # off the Cartan it used to run analyze and then fail with exit 1 on a non-integral H0 weight
    job = {"command": "analyze", "group": "u", "n": 3, "weight": [2, 1, 0],
           "d_coeffs": [0.3, 0, 0, 0.5, 0, 0, 0.2, 0, 0]}

    def no_analyze(*args, **kwargs):
        raise AssertionError("analyze ran on a job without d")

    monkeypatch.setattr(cli.groundstate, "analyze", no_analyze)
    with pytest.raises(SchemaError, match="missing required field 'd'"):
        cli.run(dict(job))
    monkeypatch.setattr(cli, "_job_from_args", lambda args: dict(job))
    message = assert_schema_error(capsys, ["analyze", "--n", "3", "--d", "1,0,0", "--weight", "2,1,0"])
    assert message == "job is missing required field 'd'"


def test_an_argument_error_exits_2_from_a_fresh_interpreter():
    src = str(Path(gsrep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "gsrep.cli", "analyze", "--n", "2"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert not proc.stdout
    assert json.loads(proc.stderr)["error"]["code"] == "SchemaError"
    assert proc.stderr.count("\n") == 1


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["analyze", "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gsrep analyze")


@pytest.mark.parametrize("weight", ["1,0,1", "0,-1,2"])
def test_su12_k_type_that_is_not_dominant_is_schema_error(capsys, weight):
    message = assert_schema_error(capsys, ["cone-check", "--su12", f"--weight={weight}"])
    assert "not dominant" in message


def test_su12_scalar_k_types_keep_their_verdicts(capsys):
    for weight in ("0,0,0", "-1,1,1"):
        code, out = run_main(capsys, ["cone-check", "--su12", f"--weight={weight}"])
        assert code == 0
        assert json.loads(out)["verdicts"] == {"cone": False, "hw_unitarizable": False}


def test_analyze_records_decision_tolerance(capsys):
    code, out = run_main(capsys, ["--tol", "1e-6", "analyze", "--n", "2",
                                  "--d", "1,0", "--weight", "1,0"])
    assert code == 0
    assert [c["tol"] for c in json.loads(out)["checks"]] == [1e-9, 1e-9]


def test_su_generator_with_trace_is_schema_error(capsys):
    assert_schema_error(capsys, ["analyze", "--group", "su", "--n", "3",
                                 "--d", "1,0,0", "--weight", "1,0,0"])


def test_non_finite_tolerance_is_schema_error(capsys):
    assert_schema_error(capsys, ["--tol", "nan", "dirlim", "--lam", "0,1", "--d", "2,1"])


def test_non_finite_generator_is_schema_error(capsys):
    assert_schema_error(capsys, ["analyze", "--n", "2", "--d", "nan,0", "--weight", "1,0"])


def test_wrong_length_generator_is_schema_error(capsys):
    assert_schema_error(capsys, ["analyze", "--n", "2", "--d", "1,0,0", "--weight", "1,0"])


def test_empty_classification_box_is_schema_error(capsys):
    assert_schema_error(capsys, ["classify", "--n", "2", "--d", "2,1", "--box", "-1"])


def test_su_cone_check_needs_one_entry_per_cartan_element(capsys):
    assert_schema_error(capsys, ["cone-check", "--group", "su", "--n", "3",
                                 "--d", "1,0,-1", "--weight", "1,0,0"])
    code, out = run_main(capsys, ["cone-check", "--group", "su", "--n", "3",
                                  "--d", "1,0,-1", "--weight", "1,0"])
    assert code == 0
    assert json.loads(out)["verdicts"]["agrees"] is True


@pytest.mark.parametrize("argv", [
    ["analyze", "--n", "3", "--d", "1e308,1e308,0", "--weight", "2,1,0"],
    ["analyze", "--n", "3", "--d", "1e200,0,0", "--weight", "2,1,0"],
    # |d| fits, but |dpi(d)| on this irreducible does not
    ["analyze", "--n", "3", "--d", "1.3e154,0,0", "--weight", "2,1,0"],
    ["cone-check", "--n", "3", "--d", "1e308,-1e308,0", "--weight", "1,0,0"],
    ["classify", "--n", "2", "--d", "1e200,0", "--box", "1"],
])
def test_generator_whose_norm_overflows_is_schema_error(capsys, argv):
    assert_schema_error(capsys, argv)


def test_large_finite_generator_keeps_its_verdicts(capsys):
    reports = [json.loads(run_main(capsys, ["analyze", "--n", "3", "--d", d,
                                            "--weight", "2,1,0"])[1])
               for d in ("1,0,0", "1e150,0,0")]
    assert reports[0]["verdicts"]["h0_dim"] == reports[1]["verdicts"]["h0_dim"] == 2
    assert reports[0]["verdicts"]["strict"] and reports[1]["verdicts"]["strict"]


def test_fock_sector_beyond_cutoff_is_schema_error(capsys):
    assert_schema_error(capsys, ["fock", "--sector", "50", "--cutoffs", "10"])


@pytest.mark.parametrize("argv", [
    ["fock", "--modes", "-1", "--cutoffs", "4"],
    ["fock", "--modes", "0", "--cutoffs", "4"],
    ["fock", "--modes", "1", "--cutoffs", "-3"],
    ["fock", "--modes", "1", "--cutoff", "-3"],
    ["fock", "--modes", "2", "--cutoffs", "4", "--zero-modes", "5"],
    ["fock", "--modes", "2", "--cutoffs", "4", "--zero-modes", "-1"],
    ["dirlim", "--lam", "0,1", "--d", "1,1"],
    ["dirlim", "--lam", "0,1,2", "--d", "3,2"],
    ["dirlim", "--lam", "", "--d", ""],
    ["analyze", "--n", "2", "--d", "1,0", "--weight", "0,1"],
    ["analyze", "--n", "2", "--d", "1,0", "--weight", "1,0,0"],
    ["analyze", "--n", "0", "--d", "", "--weight", ""],
    ["analyze", "--group", "su", "--n", "1", "--d", "0", "--weight", "0"],
    ["classify", "--n", "0", "--d", "", "--box", "1"],
    ["sweep", "--suite", "cone-coroot", "--box", "-1"],
    ["sweep", "--suite", "level-consistency", "--cases", "-5"],
    ["sweep", "--suite", "level-consistency", "--cases", "0"],
])
def test_input_outside_the_domain_is_schema_error(capsys, argv):
    assert_schema_error(capsys, argv)


@pytest.mark.parametrize("argv", [
    ["analyze", "--n", "2", "--d", "1,0", "--weight", "99999999999999999999,0"],
    ["analyze", "--n", "2", "--d", "1,0", "--weight", "9223372036854775808,9223372036854775808"],
    # every entry fits in int64, but the dimension 2**63 does not
    ["analyze", "--n", "2", "--d", "1,0", "--weight", "9223372036854775807,0"],
    ["analyze", "--n", "2", "--d", "1,0", "--weight", "3000000000,0"],
    ["classify", "--n", "2", "--d", "2,1", "--box", "99999999999999999999"],
    ["sweep", "--suite", "cone-coroot", "--box", "99999999999999999999"],
    ["sweep", "--suite", "classification", "--box", "99999999999999999999"],
    # C(80, 40)^2 complex entries; enumerating the states alone runs out of memory
    ["fock", "--modes", "40", "--cutoff", "40"],
    ["fock", "--modes", "1", "--cutoffs", "10,1000000000"],
])
def test_oversized_integers_are_schema_errors_before_allocation(capsys, monkeypatch, argv):
    # the irreducible, the box and the truncation are where the arrays would
    # be allocated; reaching one turns the schema error into an exit-1 error
    def no_allocation(*args, **kwargs):
        raise AssertionError("an array was requested for an oversized input")

    monkeypatch.setattr(cli.irreps, "irrep", no_allocation)
    monkeypatch.setattr(cli.itertools, "product", no_allocation)
    monkeypatch.setattr(cli.heisenfock, "FockTruncation", no_allocation)
    assert_schema_error(capsys, argv)


def test_integer_box_keeps_the_meshgrid_order():
    for n, box in [(1, 0), (2, 2), (3, 1)]:
        grids = np.meshgrid(*[np.arange(-box, box + 1)] * n, indexing="ij")
        want = [tuple(int(x) for x in row) for row in np.stack([g.reshape(-1) for g in grids], axis=1)]
        assert cli._integer_box(n, box) == want


def test_largest_int64_weight_of_dimension_one_still_runs(capsys):
    code, out = run_main(capsys, ["analyze", "--n", "2", "--d", "1,0", "--weight",
                                  "4611686018427387904,4611686018427387904"])
    assert code == 0
    assert json.loads(out)["tables"]["rep_dim"] == 1


def test_weights_past_2_53_come_back_exactly(capsys):
    top = 2**63 - 1
    code, out = run_main(capsys, ["analyze", "--n", "3", "--d", "1,0,0", "--weight", f"{top},{top},{top}"])
    report = json.loads(out)
    assert code == 0 and report["tables"]["h0_weights"] == [[top, top, top]]
    assert report["verdicts"]["m"] == float(top)
    # the irreducible (1, 0) times the character 2^53 + 1: floats would merge its two weights
    code, out = run_main(capsys, ["analyze", "--n", "2", "--d", "1,0", "--weight",
                                  "9007199254740994,9007199254740993"])
    report = json.loads(out)
    assert code == 0 and report["verdicts"]["h0_dim"] == 1 and report["verdicts"]["strict"] is True
    assert report["tables"]["h0_weights"] == [[9007199254740993, 9007199254740994]]


def test_central_character_adds_to_energies_not_to_su_weights(capsys):
    _, shifted = run_main(capsys, ["analyze", "--n", "3", "--d", "2,1,0", "--weight", "3,1,-1"])
    _, plain = run_main(capsys, ["analyze", "--n", "3", "--d", "2,1,0", "--weight", "4,2,0"])
    shifted, plain = json.loads(shifted), json.loads(plain)
    assert shifted["verdicts"]["m"] == plain["verdicts"]["m"] - 3.0
    assert shifted["tables"]["h0_weights"] == [[x - 1 for x in w] for w in plain["tables"]["h0_weights"]]
    reports = [run_main(capsys, ["analyze", "--group", "su", "--n", "3", "--d", "1,0,-1", "--weight", w])[1]
               for w in ("2,1,0", "5,4,3")]
    first, second = (json.loads(r) for r in reports)
    assert first["verdicts"] == second["verdicts"] and first["tables"] == second["tables"]


def test_sweep_runs_the_classification_sub_job_of_a_dict_job(capsys, monkeypatch):
    seen = []
    run = cli.run

    def recording(job):
        if job["command"] == "classify":
            seen.append(job)
        return run(job)

    monkeypatch.setattr(cli, "run", recording)
    assert cli.main(["sweep", "--suite", "classification"]) == 0
    capsys.readouterr()
    cli.run({"command": "sweep", "suite": "classification"})
    assert len(seen) == 2 and seen[0] == seen[1]


@pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 22.4 GiB"),
                                 ValueError("negative dimensions are not allowed"),
                                 OSError("disk full")])
def test_any_other_exception_is_one_line_json_with_exit_1(capsys, monkeypatch, exc):
    def raising(job):
        raise exc

    monkeypatch.setattr(cli, "run", raising)
    code = cli.main(["analyze", "--n", "2", "--d", "1,0", "--weight", "1,0"])
    captured = capsys.readouterr()
    assert code == 1
    assert not captured.out
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == {"code": type(exc).__name__, "message": str(exc)}


def test_smallest_valid_inputs_still_run(capsys):
    for argv in (["fock", "--modes", "2", "--cutoffs", "0", "--zero-modes", "2"],
                 ["dirlim", "--lam", "3", "--d", "1"],
                 ["analyze", "--n", "1", "--d", "1", "--weight", "-2"],
                 ["sweep", "--suite", "cone-coroot", "--box", "0"],
                 ["sweep", "--suite", "level-consistency", "--cases", "1"]):
        code, out = run_main(capsys, argv)
        assert code == 0, argv
        report = json.loads(out)
        assert report["verdicts"].get("cases", 1) >= 1


def test_corrupt_cache_record_is_rebuilt(tmp_path, capsys):
    record = tmp_path / "u2_lam_1_0.json"
    record.write_text('{"kind": "u", "n"')
    code, out = run_main(capsys, ["--cache-dir", str(tmp_path), "analyze", "--n", "2",
                                  "--d", "1,0", "--weight", "1,0"])
    assert code == 0
    assert json.loads(out)["verdicts"]["strict"] is True
    assert json.loads(record.read_text())["lam"] == [1, 0]


def _untagged(record):
    del record["basis"]


def _wrong_dim(record):
    # the (1, 0) record, dim 2, filed under the weight (2, 0) of dim 3
    rep = cli.irreps.irrep(cli.liealg.build_algebra("u", 2), (1, 0))
    record.update(dim=rep.dim, dpi=[cli.encode_matrix(m) for m in rep.dpi])


def _not_anti_hermitian(record):
    record["dpi"][0]["data"][0] = [1.0, 0.0]


def _nan_entry(record):
    record["dpi"][0]["data"][0] = [float("nan"), 0.0]


@pytest.mark.parametrize("spoil", [_untagged, _wrong_dim, _not_anti_hermitian, _nan_entry])
def test_unusable_cache_record_is_a_miss(tmp_path, spoil):
    cache = cli.IrrepCache(str(tmp_path))
    g = liealg.build_algebra("u", 2)
    fresh = cache.get_or_build(g, (2, 0))
    path = tmp_path / "u2_lam_2_0.json"
    record = json.loads(path.read_text())
    assert record["basis"] == cli.CACHE_BASIS
    spoil(record)
    path.write_text(json.dumps(record))
    assert cache.load(g, (2, 0)) is None
    rebuilt = cache.get_or_build(g, (2, 0))
    assert np.array_equal(rebuilt.dpi, fresh.dpi)
    assert json.loads(path.read_text())["basis"] == cli.CACHE_BASIS


def test_nan_cache_record_is_rebuilt_with_the_cold_report(tmp_path, capsys):
    argv = ["--cache-dir", str(tmp_path), "analyze", "--n", "2", "--d", "1,0", "--weight", "1,0"]
    code, cold = run_main(capsys, argv)
    assert code == 0
    record = tmp_path / "u2_lam_1_0.json"
    spoiled = json.loads(record.read_text())
    _nan_entry(spoiled)
    record.write_text(json.dumps(spoiled))
    assert "NaN" in record.read_text()
    code, again = run_main(capsys, argv)
    assert code == 0 and again == cold
    assert "NaN" not in record.read_text()


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; a fresh interpreter shows what the CLI pulls in
    src = str(Path(gsrep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, gsrep.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    assert proc.stdout.strip() == "[]"


TMP = "<tmp>"  # replaced by the test's own directory
BASE = {"tol": 1e-8, "seed": 0}


@pytest.mark.parametrize("argv,env,job", [
    (["analyze", "--n", "3", "--d", "1,0,0", "--weight", "2,1,0"], None,
     {"command": "analyze", "group": "u", "n": 3, "d": [1.0, 0.0, 0.0], "weight": [2, 1, 0]}),
    (["--tol", "1e-6", "classify", "--n", "2", "--d", "2,1", "--box", "2"], None,
     {"command": "classify", "tol": 1e-6, "group": "u", "n": 2, "d": [2.0, 1.0], "box": 2}),
    (["--seed", "3", "cone-check", "--group", "su", "--n", "3", "--d", "1,0,-1", "--weight", "1,0"], None,
     {"command": "cone-check", "seed": 3, "group": "su", "n": 3, "d": [1.0, 0.0, -1.0], "weight": [1, 0]}),
    (["cone-check", "--su12", "--weight", "0,1,0"], None,
     {"command": "cone-check", "su12": True, "weight": [0, 1, 0]}),
    (["cone-check", "--su12", "--group", "su", "--n", "3", "--d", "2,1,0", "--weight", "0,1,0"], None,
     {"command": "cone-check", "su12": True, "weight": [0, 1, 0]}),
    (["fock", "--modes", "2", "--cutoff", "6", "--zero-modes", "1"], None,
     {"command": "fock", "modes": 2, "cutoff": 6, "zero_modes": 1}),
    (["fock", "--cutoffs", "4,8"], None,
     {"command": "fock", "modes": 1, "cutoff": 40, "cutoffs": [4, 8], "zero_modes": 0}),
    (["fock", "--cutoff", "12", "--cutoffs", ""], None,
     {"command": "fock", "modes": 1, "cutoff": 12, "zero_modes": 0}),
    (["fock", "--cutoff", "12", "--sector", "3"], None,
     {"command": "fock", "modes": 1, "cutoff": 12, "sector": 3, "zero_modes": 0}),
    (["dirlim", "--lam", "[0, 1, 2]", "--d", "3,2,1"], None,
     {"command": "dirlim", "lam": [0, 1, 2], "d": [3.0, 2.0, 1.0]}),
    (["sweep", "--suite", "level-consistency", "--cases", "20"], None,
     {"command": "sweep", "suite": "level-consistency", "box": 2, "cases": 20}),
    (["--cache-dir", TMP, "analyze", "--n", "2", "--d", "1,0", "--weight", "1,0"], None,
     {"command": "analyze", "cache_dir": TMP, "group": "u", "n": 2, "d": [1.0, 0.0], "weight": [1, 0]}),
    (["analyze", "--n", "2", "--d", "1,0", "--weight", "1,0"], TMP,
     {"command": "analyze", "cache_dir": TMP, "group": "u", "n": 2, "d": [1.0, 0.0], "weight": [1, 0]}),
    (["--cache-dir", "", "analyze", "--n", "2", "--d", "1,0", "--weight", "1,0"], TMP,
     {"command": "analyze", "group": "u", "n": 2, "d": [1.0, 0.0], "weight": [1, 0]}),
    (["--output", f"{TMP}/report.json", "dirlim", "--lam", "1,1", "--d", "1,0"], None,
     {"command": "dirlim", "lam": [1, 1], "d": [1.0, 0.0]}),
], ids=["analyze", "classify", "cone-check", "su12", "su12-n-d", "fock", "fock-cutoffs", "fock-empty-cutoffs",
        "fock-sector", "dirlim", "sweep", "cache-dir", "cache-env", "empty-cache-dir", "output"])
def test_argv_parses_into_the_job_dict_that_run_takes(tmp_path, capsys, monkeypatch, argv, env, job):
    def fill(value):
        return value.replace(TMP, str(tmp_path)) if isinstance(value, str) else value

    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    if env is not None:
        monkeypatch.setenv(cli.CACHE_ENV, fill(env))
    want = cli.render_report(cli.run({**BASE, **{key: fill(value) for key, value in job.items()}}))
    assert cli.main([fill(arg) for arg in argv]) == 0
    out = capsys.readouterr().out
    if "--output" in argv:
        assert not out
        out = (tmp_path / "report.json").read_text()
    assert out == want


def readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("gsrep ")]


def test_readme_lists_the_command_line_examples():
    assert len(readme_commands()) >= 9


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_example_exits_0_with_strict_json(capsys, monkeypatch, argv):
    def reject(token):
        raise AssertionError(f"non-strict JSON constant {token}")

    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    code, out = run_main(capsys, argv)
    assert code == 0
    json.loads(out, parse_constant=reject)


@pytest.mark.parametrize("command", ["bogus", ["analyze"], None])
def test_run_refuses_a_command_with_no_handler(command):
    with pytest.raises(SchemaError, match="unknown command|missing required field"):
        cli.run({"command": command})
