"""JSON specs: every family is registered, round-trips, hashes by value,
and refuses a bad spec with a message naming the family, key and index."""
import pytest

import orlicz_risk
from orlicz_risk import (
    DiscreteUniform,
    DistortionFunction,
    ExpectedShortfall,
    ExperimentConfig,
    ExpMinusYoung,
    Exponential,
    Lognormal,
    LogPlusYoung,
    ParametricLaw,
    Pareto,
    PiecewiseLinearDistortion,
    PowerDistortion,
    PowerYoung,
    TabulatedYoung,
    Uniform,
    YoungFunction,
    distortion_from_dict,
    law_from_dict,
    young_from_dict,
)
from orlicz_risk._spec import REGISTRY

EXAMPLES = [
    Uniform(-1.0, 2.0),
    Exponential(2.5),
    Pareto(1.5, 2.0),
    Lognormal(-0.3, 0.5),
    DiscreteUniform([3.0, -1.0, 2.0]),
    ExpectedShortfall(0.05),
    PowerDistortion(1.7),
    PiecewiseLinearDistortion([[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]]),
    PowerYoung(3.5),
    ExpMinusYoung(),
    LogPlusYoung(),
    TabulatedYoung([1.0, 2.0, 4.0], [1.0, 2.0, 5.0]),
]

# base class -> (its registry kind, parser)
KINDS = {
    ParametricLaw: ("law", law_from_dict),
    DistortionFunction: ("distortion", distortion_from_dict),
    YoungFunction: ("young function", young_from_dict),
}


def concrete_subclasses(base) -> set:
    found = set()
    for cls in base.__subclasses__():
        found |= concrete_subclasses(cls)
        if "family" in vars(cls):
            found.add(cls)
    return found


def parse(x):
    return next(p for base, (_, p) in KINDS.items() if isinstance(x, base))(x.to_dict())


@pytest.mark.parametrize("base", KINDS, ids=lambda b: b.__name__)
def test_every_family_is_registered_and_round_trips(base):
    kind, from_dict = KINDS[base]
    examples = [x for x in EXAMPLES if isinstance(x, base)]
    assert {type(x) for x in examples} == concrete_subclasses(base)
    assert REGISTRY[kind] == {cls.family: cls for cls in concrete_subclasses(base)}
    for x in examples:
        back = from_dict(x.to_dict())
        assert type(back) is type(x)
        assert back == x
        assert back.to_dict() == x.to_dict()
        assert eval(repr(x), vars(orlicz_risk)) == x


def test_equal_families_hash_equal():
    for x in EXAMPLES:
        assert hash(parse(x)) == hash(x)
    values = {DiscreteUniform([1, 2]), DiscreteUniform([2.0, 1.0]), DiscreteUniform([1, 3])}
    assert len(values) == 2
    assert len({DiscreteUniform([-0.0, 1.0]), DiscreteUniform([0.0, 1.0])}) == 1
    knots = [[0.0, 0.0], [0.5, 0.25], [1.0, 1.0]]
    assert hash(PiecewiseLinearDistortion(knots)) == hash(PiecewiseLinearDistortion(knots))
    config = dict(distortion=ExpectedShortfall(0.5), schedule=(10, 100), seeds=(0,), mode="m-psi")
    a = ExperimentConfig(law=DiscreteUniform([1, 2, 3]), **config)
    b = ExperimentConfig(law=DiscreteUniform([3.0, 2.0, 1.0]), **config)
    assert a == b and hash(a) == hash(b)


PARSERS = {"law": law_from_dict, "distortion": distortion_from_dict, "young": young_from_dict}
KNOTS = [[0, 0], [0.5, 0.25], [1, 1]]

# (kind, spec, exact message); every refusal is a plain ValueError
REFUSALS = [
    ("law", [1], "law spec must be a JSON object"),
    ("law", {"p": 2}, "law spec requires a 'family' key"),
    ("law", {"family": "nope"}, "unknown law family 'nope'"),
    ("law", {"family": "uniform", "a": 0, "b": 1, "extra": 1},
     "uniform law spec has unknown key(s) ['extra']"),
    ("law", {"family": "uniform", "a": 0}, "uniform law spec is missing key(s) ['b']"),
    ("law", {"family": "uniform", "a": 0, "b": True},
     "uniform law spec key 'b' must be a number, got True"),
    ("law", {"family": "uniform", "a": 0, "b": "2"},
     "uniform law spec key 'b' must be a number, got '2'"),
    ("law", {"family": "exponential", "rate": 1, "extra": 1},
     "exponential law spec has unknown key(s) ['extra']"),
    ("law", {"family": "exponential"}, "exponential law spec is missing key(s) ['rate']"),
    ("law", {"family": "exponential", "rate": True},
     "exponential law spec key 'rate' must be a number, got True"),
    ("law", {"family": "exponential", "rate": "2"},
     "exponential law spec key 'rate' must be a number, got '2'"),
    ("law", {"family": "pareto", "tail": 3, "scale": 1, "extra": 1},
     "pareto law spec has unknown key(s) ['extra']"),
    ("law", {"family": "pareto", "tail": 3}, "pareto law spec is missing key(s) ['scale']"),
    ("law", {"family": "pareto", "tail": 3, "scale": True},
     "pareto law spec key 'scale' must be a number, got True"),
    ("law", {"family": "pareto", "tail": 3, "scale": "2"},
     "pareto law spec key 'scale' must be a number, got '2'"),
    ("law", {"family": "lognormal", "mu": 0, "sigma": 1, "extra": 1},
     "lognormal law spec has unknown key(s) ['extra']"),
    ("law", {"family": "lognormal", "mu": 0}, "lognormal law spec is missing key(s) ['sigma']"),
    ("law", {"family": "lognormal", "mu": 0, "sigma": True},
     "lognormal law spec key 'sigma' must be a number, got True"),
    ("law", {"family": "lognormal", "mu": 0, "sigma": "2"},
     "lognormal law spec key 'sigma' must be a number, got '2'"),
    ("law", {"family": "discrete_uniform", "values": [1, 2], "extra": 1},
     "discrete uniform law spec has unknown key(s) ['extra']"),
    ("law", {"family": "discrete_uniform"},
     "discrete uniform law spec is missing key(s) ['values']"),
    ("law", {"family": "discrete_uniform", "values": [1, True]},
     "discrete uniform law spec key 'values'[1] must be a number, got True"),
    ("law", {"family": "discrete_uniform", "values": [1, "2"]},
     "discrete uniform law spec key 'values'[1] must be a number, got '2'"),
    ("law", {"family": "discrete_uniform", "values": "1,2"},
     "discrete uniform law spec key 'values' must be an array, got '1,2'"),
    ("distortion", [1], "distortion spec must be a JSON object"),
    ("distortion", {"p": 2}, "distortion spec requires a 'family' key"),
    ("distortion", {"family": "nope"}, "unknown distortion family 'nope'"),
    ("distortion", {"family": "es", "alpha": 0.5, "extra": 1},
     "expected shortfall distortion spec has unknown key(s) ['extra']"),
    ("distortion", {"family": "es"},
     "expected shortfall distortion spec is missing key(s) ['alpha']"),
    ("distortion", {"family": "es", "alpha": True},
     "expected shortfall distortion spec key 'alpha' must be a number, got True"),
    ("distortion", {"family": "es", "alpha": "2"},
     "expected shortfall distortion spec key 'alpha' must be a number, got '2'"),
    ("distortion", {"family": "power", "gamma": 2, "extra": 1},
     "power distortion spec has unknown key(s) ['extra']"),
    ("distortion", {"family": "power"}, "power distortion spec is missing key(s) ['gamma']"),
    ("distortion", {"family": "power", "gamma": True},
     "power distortion spec key 'gamma' must be a number, got True"),
    ("distortion", {"family": "power", "gamma": "2"},
     "power distortion spec key 'gamma' must be a number, got '2'"),
    ("distortion", {"family": "piecewise", "knots": KNOTS, "extra": 1},
     "piecewise distortion spec has unknown key(s) ['extra']"),
    ("distortion", {"family": "piecewise"},
     "piecewise distortion spec is missing key(s) ['knots']"),
    ("distortion", {"family": "piecewise", "knots": [[0, 0], [0.5, True], [1, 1]]},
     "piecewise distortion spec key 'knots'[1][1] must be a number, got True"),
    ("distortion", {"family": "piecewise", "knots": [[0, 0], [0.5, "x"], [1, 1]]},
     "piecewise distortion spec key 'knots'[1][1] must be a number, got 'x'"),
    ("distortion", {"family": "piecewise", "knots": "1,2"},
     "piecewise distortion spec key 'knots' must be an array, got '1,2'"),
    ("young", [1], "young function spec must be a JSON object"),
    ("young", {"p": 2}, "young function spec requires a 'family' key"),
    ("young", {"family": "nope"}, "unknown young function family 'nope'"),
    ("young", {"family": "power", "p": 2, "extra": 1},
     "power young function spec has unknown key(s) ['extra']"),
    ("young", {"family": "power"}, "power young function spec is missing key(s) ['p']"),
    ("young", {"family": "power", "p": True},
     "power young function spec key 'p' must be a number, got True"),
    ("young", {"family": "power", "p": "2"},
     "power young function spec key 'p' must be a number, got '2'"),
    ("young", {"family": "exp_minus", "extra": 1},
     "exp_minus young function spec has unknown key(s) ['extra']"),
    ("young", {"family": "log_plus", "extra": 1},
     "log_plus young function spec has unknown key(s) ['extra']"),
    ("young", {"family": "tabulated", "grid": [1, 2], "phi": [1, 3], "extra": 1},
     "tabulated young function spec has unknown key(s) ['extra']"),
    ("young", {"family": "tabulated", "grid": [1, 2]},
     "tabulated young function spec is missing key(s) ['phi']"),
    ("young", {"family": "tabulated", "grid": [1, 2], "phi": [1, True]},
     "tabulated young function spec key 'phi'[1] must be a number, got True"),
    ("young", {"family": "tabulated", "grid": [1, 2], "phi": [1, "3"]},
     "tabulated young function spec key 'phi'[1] must be a number, got '3'"),
    ("young", {"family": "tabulated", "grid": [1, 2], "phi": "1,2"},
     "tabulated young function spec key 'phi' must be an array, got '1,2'"),
]


def test_refusal_messages_are_exact():
    for kind, spec, message in REFUSALS:
        with pytest.raises(ValueError) as exc:
            PARSERS[kind](spec)
        assert type(exc.value) is ValueError, (spec, exc.value)
        assert str(exc.value) == message, spec
