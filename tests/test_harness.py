import json
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from orlicz_risk import (
    ConvergenceTrace,
    DiscreteUniform,
    DistortionFunction,
    ExpMinusYoung,
    ExperimentConfig,
    Exponential,
    ExpectedShortfall,
    GateRefusal,
    Lognormal,
    Pareto,
    PowerDistortion,
    PowerYoung,
    Uniform,
    check_gate,
    choquet_empirical,
    distortion_from_dict,
    psi_moment_target,
    reference_value,
    run_convergence,
    run_experiment,
    sample,
    summarize_traces,
    write_trace_csv,
)
from orlicz_risk._spec import REGISTRY
from orlicz_risk.harness import _plan

ES05 = ExpectedShortfall(0.05)
PD2 = PowerDistortion(2.0)
IDENTITY = PowerDistortion(1.0)


# ---------------------------------------------------------------------------
# sampling


def test_sample_streams_are_prefix_stable():
    law = Exponential(1.0)
    long = sample(law, 1000, seed=5)
    short = sample(law, 137, seed=5)
    assert np.array_equal(long[:137], short)


def test_sample_seeds_give_distinct_streams():
    law = Uniform(0.0, 1.0)
    assert not np.array_equal(sample(law, 64, 0), sample(law, 64, 1))


def test_sample_validation():
    law = Uniform(0.0, 1.0)
    with pytest.raises(ValueError):
        sample(law, 0, 0)
    with pytest.raises(ValueError):
        sample(law, 10, -1)
    with pytest.raises(ValueError):
        sample(law, 2.5, 0)
    with pytest.raises(ValueError, match=rf"^seed must be below 2\*\*128, got {2**128}$"):
        sample(law, 10, 2**128)
    assert sample(law, 1, 2**128 - 1).shape == (1,)


def test_sample_refuses_bools_and_keeps_numpy_integers():
    law = Exponential(1.0)
    with pytest.raises(ValueError, match=r"^n must be a positive integer, got True$"):
        sample(law, True, 0)
    for seed in (True, False):
        with pytest.raises(ValueError, match=rf"^seed must be a nonnegative integer, got {seed}$"):
            sample(law, 1, seed)
    assert np.array_equal(sample(law, np.int64(5), np.uint32(3)), sample(law, 5, 3))


def test_uniform_draws_stay_inside_the_interval():
    x = sample(Uniform(0.0, 1.0), 10_000, seed=3)
    assert np.all((x > 0.0) & (x < 1.0))


def test_exponential_sample_mean_lln_sanity():
    x = sample(Exponential(1.0), 1_000_000, seed=0)
    assert abs(float(x.mean()) - 1.0) < 0.01


def test_degenerate_law_samples_are_constant():
    x = sample(DiscreteUniform([4.25]), 1000, seed=9)
    assert np.all(x == 4.25)


# ---------------------------------------------------------------------------
# reference values


def test_reference_exponential_es_closed_form():
    ref = reference_value(Exponential(1.0), ES05)
    assert ref == pytest.approx(1.0 - math.log(0.05), rel=1e-8)


def test_reference_uniform_power_distortion():
    ref = reference_value(Uniform(0.0, 1.0), PD2)
    assert ref == pytest.approx(2.0 / 3.0, rel=1e-8)


def test_reference_pareto_power_distortion_beta_value():
    # integral of 2u (1-u)^(-1/3) du = 2 B(2, 2/3) = 1.8
    ref = reference_value(Pareto(3.0), PD2)
    assert ref == pytest.approx(1.8, rel=1e-8)


@pytest.mark.parametrize(
    "law",
    [Uniform(-1.0, 3.0), Exponential(0.5), Lognormal(0.0, 0.5), Pareto(4.0, scale=2.0)],
    ids=lambda l: l.label(),
)
def test_reference_identity_distortion_is_the_mean(law):
    assert reference_value(law, IDENTITY) == pytest.approx(law.mean(), rel=1e-8)


def test_reference_discrete_law_is_the_exact_sum():
    law = DiscreteUniform([1.0, 2.0, 3.0, 4.0])
    assert reference_value(law, ExpectedShortfall(0.5)) == choquet_empirical(law.values, ExpectedShortfall(0.5))


def test_reference_discrete_law_with_overflowing_mean_is_not_refused():
    # np.mean overflows to inf here, yet finitely many finite atoms have a finite mean
    law = DiscreteUniform([1e308, 1e308])
    check_gate(law, ES05, PowerYoung(2.0), "m-psi")
    assert reference_value(law, ExpectedShortfall(0.5)) == 1e308


def test_reference_refuses_laws_without_mean():
    with pytest.raises(GateRefusal) as exc:
        reference_value(Pareto(0.8), ES05)
    assert exc.value.reason == "infinite_choquet_integral"


# ---------------------------------------------------------------------------
# moment targets


def test_moment_target_hand_values():
    assert psi_moment_target(Uniform(0.0, 1.0), PowerYoung(2.0), 1.0) == pytest.approx(
        1.0 / 6.0, rel=1e-8
    )
    assert psi_moment_target(Exponential(1.0), PowerYoung(1.0), 1.0) == pytest.approx(
        1.0, rel=1e-8
    )
    law = DiscreteUniform([1.0, 2.0])
    assert psi_moment_target(law, PowerYoung(2.0), 1.0) == pytest.approx(1.25, rel=1e-15)


def test_moment_target_requires_positive_scale():
    with pytest.raises(ValueError):
        psi_moment_target(Uniform(0.0, 1.0), PowerYoung(2.0), 0.0)


# ---------------------------------------------------------------------------
# gates


def test_gate_matrix():
    check_gate(Exponential(1.0), ES05, PowerYoung(2.0), "m-psi")
    check_gate(Exponential(1.0), ES05, ExpMinusYoung(), "l-psi-ando")
    check_gate(Pareto(3.0), PD2, PowerYoung(2.0), "m-psi")

    with pytest.raises(GateRefusal) as exc:
        check_gate(Exponential(1.0), ES05, ExpMinusYoung(), "m-psi")
    assert exc.value.reason == "not_m_psi"
    assert exc.value.witness_k == 1.0

    with pytest.raises(GateRefusal) as exc:
        check_gate(Pareto(3.0), PD2, ExpMinusYoung(), "l-psi-ando")
    assert exc.value.reason == "not_l_psi"

    with pytest.raises(GateRefusal) as exc:
        check_gate(Lognormal(0.0, 1.0), ES05, ExpMinusYoung(), "m-psi")
    assert exc.value.reason == "not_m_psi"

    with pytest.raises(GateRefusal) as exc:
        check_gate(Pareto(0.8), ES05, PowerYoung(2.0), "m-psi")
    assert exc.value.reason == "infinite_choquet_integral"

    with pytest.raises(ValueError):
        check_gate(Exponential(1.0), ES05, PowerYoung(2.0), "both")


def test_gate_witness_scale_is_the_exponential_rate():
    with pytest.raises(GateRefusal) as exc:
        check_gate(Exponential(2.5), ES05, ExpMinusYoung(), "m-psi")
    assert exc.value.witness_k == 2.5


# ---------------------------------------------------------------------------
# convergence runs


def test_run_convergence_reaches_the_reference():
    tr = run_convergence(Exponential(1.0), ES05, (1000, 10_000, 100_000), seed=0)
    assert isinstance(tr, ConvergenceTrace)
    assert tr.abs_errors[-1] / tr.reference < 0.05
    assert tr.law == "exponential(rate=1)"
    assert tr.functional == "es(alpha=0.05)"
    assert tr.mode == "m-psi"
    assert tr.abs_errors == tuple(abs(e - tr.reference) for e in tr.estimates)


def test_nested_prefixes_are_bitwise_stable_across_schedules():
    law = Exponential(1.0)
    long = run_convergence(law, ES05, (500, 2000, 8000), seed=3)
    short = run_convergence(law, ES05, (500, 2000), seed=3)
    assert long.estimates[:2] == short.estimates


def test_degenerate_law_estimates_exact_to_roundoff():
    tr = run_convergence(DiscreteUniform([2.5]), ES05, (10, 100), seed=1)
    assert tr.reference == 2.5
    assert all(abs(e - 2.5) <= 1e-12 for e in tr.estimates)
    assert all(err <= 1e-12 for err in tr.abs_errors)


def test_heavy_tail_needs_the_weaker_gate_with_exp_growth():
    # Pareto has no exponential moments, so exp-type Young functions refuse
    # under either mode; the power pairing runs.
    with pytest.raises(GateRefusal):
        run_convergence(Pareto(3.0), PD2, (10,), seed=0, young=ExpMinusYoung(), mode="l-psi-ando")
    tr = run_convergence(Pareto(3.0), PD2, (10_000,), seed=0, mode="l-psi-ando")
    assert tr.abs_errors[-1] / tr.reference < 0.2


def test_schedule_validation():
    with pytest.raises(ValueError):
        run_convergence(Exponential(1.0), ES05, (), seed=0)
    with pytest.raises(ValueError):
        run_convergence(Exponential(1.0), ES05, (100, 100), seed=0)
    with pytest.raises(ValueError):
        run_convergence(Exponential(1.0), ES05, (100, 50), seed=0)


# ---------------------------------------------------------------------------
# the weight plan cached per (distortion, schedule)

PLAN_SCHEDULE = (1, 99, 100, 101, 5000)


@pytest.mark.parametrize(
    "law, f",
    [(Exponential(1.0), ES05), (Pareto(3.0), ExpectedShortfall(0.01)), (Uniform(-1.0, 2.0), PD2),
     (Lognormal(0.0, 1.0), ExpectedShortfall(1.0))],
    ids=lambda x: x.label(),
)
def test_cold_and_warm_plans_give_the_full_sort_estimates_bit_for_bit(law, f):
    _plan.cache_clear()
    cold = run_convergence(law, f, PLAN_SCHEDULE, seed=4, mode="l-psi-ando")
    warm = run_convergence(law, f, PLAN_SCHEDULE, seed=4, mode="l-psi-ando")
    assert _plan.cache_info().hits == 1
    draws = sample(law, PLAN_SCHEDULE[-1], 4)
    want = [float(np.dot(np.sort(draws[:N]), f.increments(N))).hex() for N in PLAN_SCHEDULE]
    assert [e.hex() for e in cold.estimates] == want
    assert [e.hex() for e in warm.estimates] == want
    assert cold.reference.hex() == warm.reference.hex()


def test_cached_weights_refuse_writes():
    for s, w in _plan(ES05, PLAN_SCHEDULE):
        with pytest.raises(ValueError, match="read-only"):
            w[-1] = 0.0
        assert w[s] > 0.0 and not w[:s].any()


def test_an_experiment_builds_its_plan_once():
    _plan.cache_clear()
    config = ExperimentConfig(
        law=Exponential(1.0), distortion=ExpectedShortfall(0.1), schedule=(10, 1000),
        seeds=tuple(range(11)), mode="m-psi",
    )
    assert len(run_experiment(config)) == 11
    assert _plan.cache_info()[:2] == (10, 1)  # hits, misses


@dataclass
class Squared(DistortionFunction):
    """An unregistered family that compares by value and so has no hash."""

    def value(self, t):
        return np.asarray(t, dtype=float) ** 2

    def right_derivative(self, t):
        return 2.0 * np.asarray(t, dtype=float)


def test_an_unhashable_distortion_runs_uncached():
    _plan.cache_clear()
    got = run_convergence(Uniform(0.0, 1.0), Squared(), (10, 100), seed=2)
    want = run_convergence(Uniform(0.0, 1.0), PD2, (10, 100), seed=2)
    assert got.estimates == want.estimates
    assert _plan.cache_info()[:2] == (0, 1)  # hits, misses: PD2's plan only


# one spec per registered distortion family: the plan's cache key
DISTORTION_SPECS = [
    {"family": "es", "alpha": 0.05},
    {"family": "power", "gamma": 2},
    {"family": "piecewise", "knots": [[0, 0], [0.5, 0.25], [1, 1]]},
]


def test_distortion_specs_cover_the_registry():
    assert {d["family"] for d in DISTORTION_SPECS} == REGISTRY["distortion"].keys()


@pytest.mark.parametrize("spec", DISTORTION_SPECS, ids=lambda d: d["family"])
def test_equal_distortions_share_one_plan(spec):
    a, b = distortion_from_dict(spec), distortion_from_dict(json.loads(json.dumps(spec)))
    assert a is not b and a == b and hash(a) == hash(b)
    _plan.cache_clear()
    assert _plan(a, (10, 100)) is _plan(b, (10, 100))
    assert _plan.cache_info()[:2] == (1, 1)


# ---------------------------------------------------------------------------
# experiment configs


BASE_CONFIG = {
    "law": {"family": "exponential", "rate": 1.0},
    "distortion": {"family": "es", "alpha": 0.05},
    "schedule": [100, 1000],
    "seeds": [0, 1, 2],
    "mode": "m-psi",
}


def test_config_from_dict_with_defaults():
    cfg = ExperimentConfig.from_dict(dict(BASE_CONFIG))
    assert cfg.young == PowerYoung(2.0)
    assert cfg.tolerance == 1e-8
    assert cfg.schedule == (100, 1000)
    assert cfg.seeds == (0, 1, 2)


def test_config_accepts_explicit_young_and_tolerance():
    d = dict(BASE_CONFIG, young={"family": "exp_minus"}, tolerance=1e-6, mode="l-psi-ando")
    cfg = ExperimentConfig.from_dict(d)
    assert cfg.young == ExpMinusYoung()
    assert cfg.tolerance == 1e-6


def test_config_from_json_round_trip():
    cfg = ExperimentConfig.from_json(json.dumps(BASE_CONFIG))
    assert cfg == ExperimentConfig.from_dict(dict(BASE_CONFIG))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("law"),
        lambda d: d.pop("mode"),
        lambda d: d.update(extra=1),
        lambda d: d.update(mode="sometimes"),
        lambda d: d.update(seeds=[1, 1]),
        lambda d: d.update(seeds=[-3]),
        lambda d: d.update(seeds=[]),
        lambda d: d.update(schedule=[50, 50]),
        lambda d: d.update(tolerance=2.0),
    ],
)
def test_config_rejects_malformed(mutate):
    d = dict(BASE_CONFIG)
    mutate(d)
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(d)


def test_config_must_be_a_json_object():
    with pytest.raises(ValueError, match=r"^experiment config must be a JSON object$"):
        ExperimentConfig.from_dict([BASE_CONFIG])


@pytest.mark.parametrize(
    "key,entries,bad",
    [
        ("schedule", [10.9, 100.5], "10.9"),
        ("schedule", [100, 1000.5], "1000.5"),
        ("schedule", [True, 100], "True"),
        ("schedule", ["100", 1000], "'100'"),
        ("seeds", [True, 2.7], "True"),
        ("seeds", [0, 2.7], "2.7"),
        ("seeds", [0, False], "False"),
        ("seeds", [0, None], "None"),
    ],
)
def test_config_rejects_non_integer_entries(key, entries, bad):
    d = dict(BASE_CONFIG, **{key: entries})
    with pytest.raises(ValueError, match=rf"{key} entry {re.escape(bad)} at index"):
        ExperimentConfig.from_dict(d)


def test_config_accepts_integral_numbers():
    d = dict(BASE_CONFIG, schedule=[100.0, 1e3, np.int64(5000)], seeds=[0.0, np.int32(4)])
    cfg = ExperimentConfig.from_dict(d)
    assert cfg.schedule == (100, 1000, 5000)
    assert cfg.seeds == (0, 4)
    assert all(type(v) is int for v in cfg.schedule + cfg.seeds)


def test_run_experiment_is_deterministic_and_seedwise():
    cfg = ExperimentConfig.from_dict(dict(BASE_CONFIG))
    traces = run_experiment(cfg)
    again = run_experiment(cfg)
    assert traces == again
    assert [t.seed for t in traces] == [0, 1, 2]
    assert len({t.reference for t in traces}) == 1


def test_summarize_traces_fields():
    cfg = ExperimentConfig.from_dict(dict(BASE_CONFIG))
    traces = run_experiment(cfg)
    s = summarize_traces(traces)
    finals = [t.abs_errors[-1] for t in traces]
    assert s["final_abs_errors"] == finals
    assert s["median_final_abs_error"] == float(np.median(finals))
    assert s["max_final_abs_error"] == max(finals)
    assert s["median_final_rel_error"] == pytest.approx(
        float(np.median(finals)) / s["reference"], rel=1e-15
    )
    assert s["schedule"] == [100, 1000]
    with pytest.raises(ValueError):
        summarize_traces([])


def test_write_trace_csv_golden(tmp_path):
    tr = run_convergence(DiscreteUniform([1.0]), IDENTITY, (1, 2), seed=0)
    out = tmp_path / "t.csv"
    write_trace_csv(tr, out)
    assert out.read_text() == (
        "N,estimate,reference,abs_error,seed\n" "1,1,1,0,0\n" "2,1,1,0,0\n"
    )


@pytest.mark.parametrize("tolerance", ["1e-8", True, None, [1e-8]])
def test_config_refuses_non_numeric_tolerance(tolerance):
    d = dict(BASE_CONFIG, tolerance=tolerance)
    with pytest.raises(ValueError, match="tolerance"):
        ExperimentConfig.from_dict(d)


def test_config_tolerance_is_a_float():
    cfg = ExperimentConfig.from_dict(dict(BASE_CONFIG, tolerance=np.float64(1e-6)))
    assert type(cfg.tolerance) is float and cfg.tolerance == 1e-6


@pytest.mark.parametrize(
    "key, spec",
    [
        ("law", {"family": "uniform", "a": "0", "b": True}),
        ("distortion", {"family": "es", "alpha": "0.25"}),
        ("young", {"family": "power", "p": "2"}),
    ],
)
def test_config_refuses_non_numeric_spec_fields(key, spec):
    with pytest.raises(ValueError, match="must be a number"):
        ExperimentConfig.from_dict(dict(BASE_CONFIG, **{key: spec}))
