"""The package's records: immutable slotted classes with dataclass semantics.

Each record is checked against a frozen dataclass twin built here with the
record's field names, in order: equality, hashing and repr must agree on
drawn values, as they did when the records were frozen dataclasses.
"""
import copy
import dataclasses
import inspect
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggwpd import cli, errors, experiment, floquet, packets, rotor, semiclassics
from ggwpd.experiment import ExperimentConfig, ScenarioSetup, SweepRow, preset
from ggwpd.packets import ComplexPhasePoint, GaussianPacket, ResidualPair
from ggwpd.rotor import ComplexTrajectory, ManifoldCurve, RotorParams, SeedTrajectory
from ggwpd.semiclassics import (
    CorrelationResult,
    OffCenterContribution,
    SaddleContribution,
    SaddleTrajectory,
)

_floats = st.floats(-1e3, 1e3, allow_nan=False)
_positive = st.floats(1e-6, 1e3)
_complex = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


def _tuples(elements, min_size=0):
    return st.lists(elements, min_size=min_size, max_size=3).map(tuple)


def _values(cls):
    """Field values of ``cls`` as a dict in field order."""
    names = list(RECORD_FIELDS[cls])
    return st.tuples(*RECORD_FIELDS[cls].values()).map(lambda vs: dict(zip(names, vs)))


def _built(cls):
    return _values(cls).map(lambda values: cls(**values))


# Each record's fields, in order, and a strategy for their values; a record
# whose fields hold other records follows them.
RECORD_FIELDS = {}
RECORD_FIELDS[GaussianPacket] = {
    "p1": _floats, "q1": _floats, "b1": _positive, "hbar": _positive
}
RECORD_FIELDS[ComplexPhasePoint] = {"p1": _complex, "q1": _complex}
RECORD_FIELDS[ResidualPair] = {"initial": _complex, "final": _complex}
RECORD_FIELDS[RotorParams] = {"K": st.floats(0.0, 1e3)}
RECORD_FIELDS[SeedTrajectory] = {
    "ic": st.tuples(_floats, _floats),
    "t": st.integers(0, 8),
    "winding": st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
}
RECORD_FIELDS[ComplexTrajectory] = {
    "points": _tuples(_built(ComplexPhasePoint), min_size=1),
    "action": _complex,
    "legs": _tuples(st.tuples(_complex, _complex, _complex, _complex), min_size=1),
}
RECORD_FIELDS[SaddleTrajectory] = {
    "trajectory": _built(ComplexTrajectory),
    "seed": _built(SeedTrajectory),
    "residual_history": _tuples(_positive, min_size=1),
}
RECORD_FIELDS[SaddleContribution] = {
    name: _complex
    for name in ("action", "ket_exponent", "bra_exponent", "prefactor", "value")
}
RECORD_FIELDS[OffCenterContribution] = {"value": _complex}
RECORD_FIELDS[CorrelationResult] = {"branches": _tuples(_built(OffCenterContribution))}
RECORD_FIELDS[ScenarioSetup] = {
    "config": st.sampled_from([preset("integrable-fig2"), preset("chaotic-fig6")]),
    "saddles": _tuples(_built(SaddleTrajectory)),
}

_TWINS = {
    cls: dataclasses.make_dataclass(cls.__name__, list(fields), frozen=True)
    for cls, fields in RECORD_FIELDS.items()
}


_records = pytest.mark.parametrize("cls", list(RECORD_FIELDS), ids=lambda c: c.__name__)


@_records
def test_record_takes_its_fields_in_order(cls):
    params = list(inspect.signature(cls).parameters)
    assert params == list(RECORD_FIELDS[cls])


@_records
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_record_matches_its_frozen_dataclass_twin(cls, data):
    """Two drawn records, half the time with equal values: ``==``, ``hash``
    and ``repr`` read as the twin's do, by position and by keyword."""
    a = data.draw(_values(cls))
    b = data.draw(st.one_of(st.just(dict(a)), _values(cls)))
    twin = _TWINS[cls]
    ra, rb = cls(**a), cls(*b.values())
    ta, tb = twin(**a), twin(**b)
    assert repr(ra) == repr(ta)
    assert (ra == rb) == (ta == tb)
    assert (ra != rb) == (ta != tb)
    assert hash(ra) == hash(ta)
    assert ra != ta and ra.__eq__(ta) is NotImplemented


@_records
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_record_is_immutable_and_slotted(cls, data):
    record = cls(**data.draw(_values(cls)))
    assert not hasattr(record, "__dict__")
    for name in (*RECORD_FIELDS[cls], "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
    for name in RECORD_FIELDS[cls]:
        with pytest.raises(AttributeError):
            delattr(record, name)


@_records
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_record_survives_copy_and_pickle(cls, data):
    record = cls(**data.draw(_values(cls)))
    for clone in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(clone) is cls
        assert clone == record and hash(clone) == hash(record)
        assert repr(clone) == repr(record)


def test_residual_pair_max_norm_is_no_field():
    """``max_norm`` is derived on construction, also by a copy, and stays out
    of equality and repr."""
    pair = ResidualPair(3.0 + 4.0j, 1.0)
    assert repr(pair) == "ResidualPair(initial=(3+4j), final=(1+0j))"
    assert copy.deepcopy(pair).max_norm == pickle.loads(pickle.dumps(pair)).max_norm == 5.0


@pytest.mark.parametrize(
    "build",
    [
        lambda: GaussianPacket(0.0, 0.0, 0.0, 0.1),
        lambda: GaussianPacket(0.0, 0.0, 1.0, -0.1),
        lambda: GaussianPacket(0.0, np.nan, 1.0, 0.1),
        lambda: GaussianPacket(0.0, 0.0, 1.0, np.array([0.1])),
        lambda: ComplexPhasePoint(0.1, np.zeros(2)),
        lambda: ResidualPair(np.zeros(2), 0j),
        lambda: ResidualPair(0j, [1j]),
        lambda: RotorParams(-1e-3),
        lambda: RotorParams(np.inf),
        lambda: RotorParams(np.nan),
    ],
    ids=[
        "zero-width", "negative-hbar", "nan-position", "array-hbar",
        "array-Q", "array-initial", "list-final", "negative-K", "inf-K", "nan-K",
    ],
)
def test_record_refuses_bad_values(build):
    with pytest.raises(ValueError):
        build()


def test_only_the_three_field_reflected_records_are_dataclasses():
    """Defining a dataclass generates and compiles its methods when the
    package is imported, most of that import's own cost.  Only the records
    read through ``dataclasses.fields``, ``asdict`` or ``replace`` are
    dataclasses; every other record is a plain slotted class."""
    modules = (cli, errors, experiment, floquet, packets, rotor, semiclassics)
    classes = {
        obj
        for module in modules
        for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__module__ == module.__name__
    }
    assert {c for c in classes if dataclasses.is_dataclass(c)} == {
        ExperimentConfig,
        SweepRow,
        ManifoldCurve,
    }
    assert set(RECORD_FIELDS) <= {c for c in classes if issubclass(c, packets._Record)}
