"""JSON specs of the law, distortion and Young families.

A spec holds ``family`` and one key per field: the dataclass fields, or the
``(JSON key, attribute)`` pairs an array family declares in ``_arrays``.
Each class that sets ``family`` registers in ``REGISTRY`` under the ``kind``
keyword of its base class, since ``power`` names both a distortion and a
Young function. Numbers must be JSON numbers, never bools or strings.
"""
from __future__ import annotations

import dataclasses

import numpy as np


def _shaped(out: np.ndarray, x):
    """``out`` as a float when the argument ``x`` was a scalar."""
    return float(out) if np.ndim(x) == 0 else out


def _expect_keys(d: dict, required: set[str], what: str, optional: set[str] = frozenset()) -> None:
    missing = required - d.keys()
    extra = d.keys() - required - optional
    if missing:
        raise ValueError(f"{what} is missing key(s) {sorted(missing)}")
    if extra:
        raise ValueError(f"{what} has unknown key(s) {sorted(extra)}")


def _json_number(v, where: str) -> float:
    """v as a float if it is a JSON number: an int or float, never a bool."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        raise ValueError(f"{where} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{where} is out of the float range") from None


def _json_array(v, where: str) -> list:
    """v as float lists if it is a JSON array of numbers, or of such arrays."""
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"{where} must be an array, got {v!r}")
    out = []
    for i, x in enumerate(v):
        read = _json_array if isinstance(x, (list, tuple)) else _json_number
        out.append(read(x, f"{where}[{i}]"))
    return out


REGISTRY: dict[str, dict[str, type]] = {}  # kind -> family -> class


class Spec:
    """A family with a JSON spec; ``to_dict`` writes it."""

    _kind = ""  # "law", "distortion" or "young function": the base's keyword
    family: str = ""
    _name = ""  # the family in refusal messages, when not ``family``
    _arrays: tuple = ()

    def __init_subclass__(cls, kind: str = "", **kwargs):
        super().__init_subclass__(**kwargs)
        cls._kind = kind or cls._kind
        if "family" in vars(cls):
            REGISTRY.setdefault(cls._kind, {})[cls.family] = cls

    @classmethod
    def _fields(cls) -> tuple:
        """(JSON key, attribute) pairs in spec order."""
        return cls._arrays or tuple((f.name, f.name) for f in dataclasses.fields(cls))

    def to_dict(self) -> dict:
        out = {"family": self.family}
        for key, attr in self._fields():
            out[key] = np.asarray(getattr(self, attr), dtype=float).tolist()
        return out


class ArraySpec:
    """Mixin for a ``Spec`` family whose fields are arrays, compared and hashed by value."""

    def __eq__(self, other):
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for _, a in self._arrays
        )

    def __hash__(self):
        return hash(tuple(tuple(getattr(self, a).ravel().tolist()) for _, a in self._arrays))

    def __repr__(self):
        args = ", ".join(f"{attr}={getattr(self, attr).tolist()}" for _, attr in self._arrays)
        return f"{type(self).__name__}({args})"


def spec_label(x: Spec) -> str:
    """``family(field=value,...)`` with each value in ``%g`` form."""
    args = ",".join(f"{attr}={getattr(x, attr):g}" for _, attr in x._fields())
    return f"{x.family}({args})"


def from_spec(d, kind: str):
    """The family of ``kind`` that the JSON object ``d`` names, built from it."""
    if not isinstance(d, dict):
        raise ValueError(f"{kind} spec must be a JSON object")
    if "family" not in d:
        raise ValueError(f"{kind} spec requires a 'family' key")
    cls = REGISTRY[kind].get(d["family"]) if isinstance(d["family"], str) else None
    if cls is None:
        raise ValueError(f"unknown {kind} family {d['family']!r}")
    what = f"{cls._name or cls.family} {kind} spec"
    _expect_keys(d, {"family", *(key for key, _ in cls._fields())}, what)
    read = _json_array if cls._arrays else _json_number
    return cls(**{attr: read(d[key], f"{what} key {key!r}") for key, attr in cls._fields()})
