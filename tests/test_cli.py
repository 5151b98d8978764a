import json
import math

import numpy as np
import pytest

from orlicz_risk.cli import main
from orlicz_risk import (
    ExpectedShortfall,
    PowerYoung,
    ando_profile,
    choquet_empirical,
    distortion_from_dict,
    luxemburg_norm,
    ryff_scenarios,
    young_from_dict,
)

P2 = json.dumps({"family": "power", "p": 2.0})
ES50 = json.dumps({"family": "es", "alpha": 0.5})


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# conjugate


def test_conjugate_self_dual_quadratic_golden(capsys):
    code, out, err = run(
        capsys, "conjugate", "--young", P2, "--x-min", "1", "--x-max", "3", "--points", "3"
    )
    assert code == 0
    assert err == ""
    assert out == ("x,phi,Phi,psi,Psi\n" "1,1,0.5,1,0.5\n" "2,2,2,2,2\n" "3,3,4.5,3,4.5\n")


def test_conjugate_exp_pair_row_values(capsys):
    code, out, _ = run(
        capsys,
        "conjugate",
        "--young",
        json.dumps({"family": "exp_minus"}),
        "--x-min",
        "1",
        "--x-max",
        "1",
        "--points",
        "1",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "x,phi,Phi,psi,Psi"
    x, phi, Phi, psi, Psi = (float(v) for v in row.split(","))
    assert phi == pytest.approx(math.e - 1.0, rel=1e-15)
    assert Phi == pytest.approx(math.e - 2.0, rel=1e-15)
    assert psi == pytest.approx(math.log(2.0), rel=1e-15)
    assert Psi == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-15)


def test_conjugate_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["conjugate"])
    assert exc.value.code == 2


def test_conjugate_malformed_json_exits_2(capsys):
    code, _, err = run(capsys, "conjugate", "--young", "{not json")
    assert code == 2
    assert err.startswith("error:")


def test_conjugate_unknown_family_exits_2(capsys):
    code, _, err = run(capsys, "conjugate", "--young", json.dumps({"family": "cosh"}))
    assert code == 2
    assert "cosh" in err


@pytest.mark.parametrize("points", ["0", "-3"])
def test_conjugate_non_positive_points_exits_2(capsys, points):
    code, out, err = run(capsys, "conjugate", "--young", P2, "--points", points)
    assert code == 2
    assert out == ""
    assert err == f"error: --points must be at least 1, got {points}\n"


# ---------------------------------------------------------------------------
# norm


def test_norm_matches_library_call(capsys, tmp_path):
    rng = np.random.Generator(np.random.Philox(key=7))
    values = rng.exponential(size=50)
    csv = tmp_path / "x.csv"
    csv.write_text("\n".join(str(v) for v in values) + "\n")
    code, out, _ = run(capsys, "norm", "--csv", str(csv), "--young", P2)
    assert code == 0
    assert float(out) == luxemburg_norm(values, PowerYoung(2.0))


def test_norm_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "norm", "--csv", str(tmp_path / "nope.csv"), "--young", P2)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("row", ["nan", "inf", "-inf", "1e999"])
def test_norm_non_finite_row_exits_2_naming_the_line(capsys, tmp_path, row):
    csv = tmp_path / "x.csv"
    csv.write_text(f"1.0\n2.0\n{row}\n4.0\n")
    code, out, err = run(capsys, "norm", "--csv", str(csv), "--young", P2)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "line 3" in err


# ---------------------------------------------------------------------------
# estimate


def test_estimate_prints_value_and_record(capsys, tmp_path):
    csv = tmp_path / "x.csv"
    csv.write_text("1\n2\n3\n4\n")
    code, out, _ = run(capsys, "estimate", "--csv", str(csv), "--distortion", ES50)
    assert code == 0
    value_line, record_line = out.strip().splitlines()
    assert float(value_line) == 3.5
    record = json.loads(record_line)
    assert record["estimate"] == 3.5
    assert record["n"] == 4
    assert record["distortion"] == {"family": "es", "alpha": 0.5}


def test_estimate_writes_json_artifact(capsys, tmp_path):
    csv = tmp_path / "x.csv"
    csv.write_text("5\n")
    outdir = tmp_path / "art"
    code, _, _ = run(
        capsys, "estimate", "--csv", str(csv), "--distortion", ES50, "--out", str(outdir)
    )
    assert code == 0
    record = json.loads((outdir / "estimate.json").read_text())
    assert record["estimate"] == 5.0
    assert record["n"] == 1


def test_estimate_without_out_flag_writes_nothing(capsys, tmp_path, monkeypatch):
    # a subparser set_defaults once leaked an output directory default onto
    # every command through the shared parent action; keep this pinned
    monkeypatch.chdir(tmp_path)
    csv = tmp_path / "x.csv"
    csv.write_text("5\n")
    code, _, _ = run(capsys, "estimate", "--csv", str(csv), "--distortion", ES50)
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


def test_estimate_empty_csv_exits_2(capsys, tmp_path):
    csv = tmp_path / "x.csv"
    csv.write_text("")
    code, _, err = run(capsys, "estimate", "--csv", str(csv), "--distortion", ES50)
    assert code == 2
    assert err.startswith("error:")


def test_estimate_agrees_with_library(capsys, tmp_path):
    rng = np.random.Generator(np.random.Philox(key=11))
    values = rng.standard_normal(40)
    csv = tmp_path / "x.csv"
    csv.write_text("\n".join(str(v) for v in values) + "\n")
    code, out, _ = run(capsys, "estimate", "--csv", str(csv), "--distortion", ES50)
    assert code == 0
    assert float(out.splitlines()[0]) == choquet_empirical(values, ExpectedShortfall(0.5))


# ---------------------------------------------------------------------------
# converge


def write_config(path, **overrides):
    config = {
        "law": {"family": "exponential", "rate": 1.0},
        "distortion": {"family": "es", "alpha": 0.25},
        "schedule": [200, 2000],
        "seeds": [0, 1],
        "mode": "m-psi",
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return config


def test_converge_writes_deterministic_artifacts(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    outdir = tmp_path / "run"
    code, out, _ = run(capsys, "converge", str(cfg), "--out", str(outdir))
    assert code == 0
    assert "reference" in out
    assert (outdir / "trace_seed0.csv").exists()
    assert (outdir / "trace_seed1.csv").exists()
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["law"] == "exponential(rate=1)"
    assert summary["seeds"] == [0, 1]

    first = {p.name: p.read_bytes() for p in outdir.iterdir()}
    outdir2 = tmp_path / "run2"
    code, out2, _ = run(capsys, "converge", str(cfg), "--out", str(outdir2))
    assert code == 0
    # the last stdout line names the output directory, everything else is data
    assert out2.splitlines()[:-1] == out.splitlines()[:-1]
    assert {p.name: p.read_bytes() for p in outdir2.iterdir()} == first


def test_converge_degenerate_law_hits_reference(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(
        cfg,
        law={"family": "discrete_uniform", "values": [2.0]},
        schedule=[10],
        seeds=[0],
    )
    outdir = tmp_path / "run"
    code, out, _ = run(capsys, "converge", str(cfg), "--out", str(outdir))
    assert code == 0
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["reference"] == 2.0
    assert summary["max_final_abs_error"] <= 1e-12


def test_converge_gate_refusal_exits_3(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, young={"family": "exp_minus"})
    code, _, err = run(capsys, "converge", str(cfg), "--out", str(tmp_path / "run"))
    assert code == 3
    assert err.startswith("refused:")


def test_converge_infinite_mean_exits_3(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, law={"family": "pareto", "tail": 0.9, "scale": 1.0})
    code, _, err = run(capsys, "converge", str(cfg), "--out", str(tmp_path / "run"))
    assert code == 3
    assert "refused:" in err


@pytest.mark.parametrize(
    "overrides,record",
    [
        ({"young": {"family": "exp_minus"}}, {"reason": "not_m_psi", "witness_k": 1.0}),
        (
            {"law": {"family": "pareto", "tail": 0.9, "scale": 1.0}},
            {"reason": "infinite_choquet_integral", "witness_k": None},
        ),
    ],
)
def test_refusal_prints_reason_and_witness(capsys, tmp_path, overrides, record):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **overrides)
    code, out, err = run(capsys, "converge", str(cfg), "--out", str(tmp_path / "run"))
    assert code == 3
    assert out == ""
    human, machine = err.splitlines()
    assert human.startswith("refused:")
    assert json.loads(machine) == record


def test_quadrature_divergence_refusal_has_its_own_reason(capsys, tmp_path, monkeypatch):
    from orlicz_risk import QuadratureDivergenceError, cli

    def diverge(config):
        raise QuadratureDivergenceError("tail keeps growing")

    monkeypatch.setattr(cli, "run_experiment", diverge)
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    code, out, err = run(capsys, "converge", str(cfg), "--out", str(tmp_path / "run"))
    assert code == 3
    assert out == ""
    human, machine = err.splitlines()
    assert human == "refused: divergent target integral (tail keeps growing)"
    assert json.loads(machine) == {"reason": "divergent_target_integral", "witness_k": None}


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"schedule": [10.9, 100.5]}, "schedule entry 10.9 at index 0"),
        ({"seeds": [True, 2.7]}, "seeds entry True at index 0"),
    ],
)
def test_converge_non_integer_schedule_or_seeds_exit_2(capsys, tmp_path, overrides, message):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **overrides)
    outdir = tmp_path / "run"
    code, _, err = run(capsys, "converge", str(cfg), "--out", str(outdir))
    assert code == 2
    assert message in err
    assert not outdir.exists()


def test_converge_accepts_integral_float_schedule(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, schedule=[200.0, 2e3], seeds=[0.0, 1])
    code, _, _ = run(capsys, "converge", str(cfg), "--out", str(tmp_path / "run"))
    assert code == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["schedule"] == [200, 2000]
    assert summary["seeds"] == [0, 1]


def test_converge_bad_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, law={"family": "pareto", "tail": 3.0})
    code, _, err = run(capsys, "converge", str(cfg), "--out", str(tmp_path / "run"))
    assert code == 2
    assert "scale" in err


def test_converge_missing_config_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "converge", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r"))
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# ando


def test_ando_profile_converges_for_cubic_growth(capsys):
    code, out, _ = run(
        capsys,
        "ando",
        "--young",
        json.dumps({"family": "power", "p": 3.0}),
        "--distortion",
        json.dumps({"family": "es", "alpha": 0.25}),
        "--n",
        "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,value"
    assert lines[-1] == "converged,true"
    values = [float(line.split(",")[1]) for line in lines[1:-1]]
    assert values == sorted(values, reverse=True)
    assert values[-1] < 1e-6


def test_ando_short_lambda_grid_does_not_converge(capsys):
    code, out, _ = run(
        capsys,
        "ando",
        "--young",
        P2,
        "--distortion",
        json.dumps({"family": "es", "alpha": 0.25}),
        "--n",
        "3",
        "--lambdas",
        "1,10",
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "converged,false"


def test_ando_rerun_is_byte_identical(capsys):
    argv = ["ando", "--young", P2, "--distortion", ES50, "--n", "12", "--seed", "5"]
    code, out1, _ = run(capsys, *argv)
    assert code == 0
    code, out2, _ = run(capsys, *argv)
    assert out2 == out1


ANDO_DISTORTIONS = [
    {"family": "power", "gamma": 1.0},
    {"family": "es", "alpha": 0.25},
    {"family": "es", "alpha": 0.5},
    {"family": "power", "gamma": 2.0},
    {"family": "power", "gamma": 3.5},
    {"family": "piecewise", "knots": [[0.0, 0.0], [0.5, 0.25], [0.75, 0.5], [1.0, 1.0]]},
    {"family": "power", "gamma": 1.0000000000000002},  # increments round distinct and unsorted
]


@pytest.mark.parametrize(
    "dist", ANDO_DISTORTIONS, ids=["identity", "es0.25", "es0.5", "power2", "power3.5", "piecewise", "power1+ulp"]
)
def test_ando_prints_the_profile_of_the_ryff_set(capsys, dist):
    f = distortion_from_dict(dist)
    lambdas = (0.5, 1.0, 10.0, 1000.0)
    for young in [{"family": "power", "p": 3.0}, {"family": "exp_minus"}]:
        yf = young_from_dict(young)
        for n in range(1, 9):
            code, out, err = run(
                capsys, "ando", "--young", json.dumps(young), "--distortion", json.dumps(dist),
                "--n", str(n), "--lambdas", "0.5,1,10,1000",
            )
            assert code == 0 and err == ""
            for selection, seed in [("exhaustive", 0), (3, n), (20, n)]:
                dens = ryff_scenarios(f, n, selection, seed=seed).densities
                prof = ando_profile(dens, yf, lambdas)
                want = "lambda,value\n" + "".join(
                    f"{lam:.17g},{val:.17g}\n" for lam, val in zip(prof.lambdas, prof.values)
                )
                assert out == want + f"converged,{str(prof.converged).lower()}\n", (young, n, selection)


def test_ando_takes_any_n(capsys):
    code, out, _ = run(capsys, "ando", "--young", P2, "--distortion", ES50, "--n", "1000")
    assert code == 0
    assert out.splitlines()[0] == "lambda,value" and len(out.splitlines()) == 7


def test_ando_has_no_densities_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ando", "--young", P2, "--distortion", ES50, "--densities", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --densities 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--lambdas", "1,inf"], "lambdas must be finite, positive and strictly increasing, got (1.0, inf)"),
        (["--lambdas", "nan"], "lambdas must be finite, positive and strictly increasing, got (nan,)"),
        (["--lambdas", "1,,2"], "--lambdas must be comma-separated numbers, got '1,,2'"),
        (["--lambdas", "10,1"], "lambdas must be finite, positive and strictly increasing, got (10.0, 1.0)"),
        (["--tol", "-1"], "tol must be positive and finite, got -1.0"),
        (["--n", "0"], "--n must be at least 1, got 0"),
        (["--n", "-2"], "--n must be at least 1, got -2"),
    ],
)
def test_ando_bad_input_exits_2_naming_the_argument(capsys, extra, message):
    code, out, err = run(capsys, "ando", "--young", P2, "--distortion", ES50, *extra)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# brutecheck


def test_brutecheck_small_n_passes(capsys):
    code, out, _ = run(capsys, "brutecheck", "--n", "5", "--distortion", ES50, "--trials", "30")
    assert code == 0
    disc_line, result_line = out.strip().splitlines()
    assert result_line == "result,pass"
    assert float(disc_line.split(",")[1]) < 1e-12


def test_brutecheck_rejects_large_n(capsys):
    code, _, err = run(capsys, "brutecheck", "--n", "8", "--distortion", ES50)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("n", ["0", "-2"])
def test_brutecheck_non_positive_n_exits_2(capsys, n):
    code, out, err = run(capsys, "brutecheck", "--n", n, "--distortion", ES50)
    assert code == 2
    assert out == ""
    assert err == f"error: --n must be at least 1, got {n}\n"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_brutecheck_non_positive_trials_exits_2(capsys, trials):
    code, out, err = run(capsys, "brutecheck", "--n", "3", "--distortion", ES50, "--trials", trials)
    assert code == 2
    assert out == ""
    assert err == f"error: --trials must be at least 1, got {trials}\n"


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"law": {"family": "uniform", "a": "0", "b": True}}, "uniform law spec key 'a'"),
        ({"law": {"family": "uniform", "a": 0, "b": True}}, "uniform law spec key 'b'"),
        ({"distortion": {"family": "es", "alpha": "0.25"}}, "spec key 'alpha'"),
        ({"young": {"family": "power", "p": "2"}}, "spec key 'p'"),
        ({"tolerance": "1e-8"}, "tolerance must be a number"),
        ({"law": {"family": "discrete_uniform", "values": [1, True]}}, "'values'[1]"),
    ],
)
def test_converge_non_numeric_spec_field_exits_2(capsys, tmp_path, overrides, message):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **overrides)
    outdir = tmp_path / "run"
    code, _, err = run(capsys, "converge", str(cfg), "--out", str(outdir))
    assert code == 2
    assert message in err
    assert not outdir.exists()
