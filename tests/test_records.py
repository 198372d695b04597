"""The package's records: immutable slotted classes with dataclass semantics.

Each record is checked against a frozen dataclass twin built here with the
record's field names, in order: equality, hashing and repr must agree on
drawn values, as they did when the records were frozen dataclasses or
named tuples.
"""
import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggwpd import cli, errors, experiment, floquet, packets, rotor, semiclassics
from ggwpd.experiment import ExperimentConfig, ScenarioSetup, SweepRow, preset
from ggwpd.packets import ComplexPhasePoint, GaussianPacket, ResidualPair
from ggwpd.rotor import (
    ComplexTrajectory,
    LineScan,
    ManifoldCurve,
    RotorParams,
    SeedTrajectory,
    _scan_line,
    shearing_manifold,
)
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

RECORD_FIELDS[ExperimentConfig] = {
    "K": st.floats(0.0, 1e3),
    "t": st.integers(1, 8),
    "alpha_center": st.tuples(_floats, _floats),
    "beta_center": st.tuples(_floats, _floats),
    "N_list": _tuples(st.integers(1, 400).map(lambda n: 2 * n), min_size=1),
    "regime": st.sampled_from(["integrable", "chaotic"]),
    "image_range": st.integers(0, 4),
    "label": st.text("abc-_.09", max_size=8),
}
_sums = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)
RECORD_FIELDS[SweepRow] = {
    "N": st.integers(2, 4000),
    "C_qm": _complex,
    "C_oc": _sums,
    "C_ggwpd": _sums,
    "error": st.text(max_size=8),
}
# The array fields hold drawn tuples here, so that equality and hashing
# read values; a record holding arrays compares them as numpy does.
RECORD_FIELDS[ManifoldCurve] = {"points": _tuples(st.tuples(_floats, _floats))}
RECORD_FIELDS[LineScan] = {
    "p_grid": _tuples(_floats),
    "ends": _tuples(_floats),
    "end_min": _floats,
    "end_max": _floats,
    "run": st.none() | st.tuples(_tuples(_floats), st.sampled_from([1.0, -1.0])),
}
RECORD_FIELDS[cli._Args] = {
    "command": st.sampled_from(["sweep", "saddle", "manifolds"]),
    "config": st.none() | st.text(max_size=8),
    "preset": st.none() | st.sampled_from(["integrable-fig2", "chaotic-fig6"]),
    "out": st.text(max_size=8),
}


@dataclasses.dataclass(frozen=True)
class _SweepRowTwin:
    """The sweep row as a frozen dataclass: five measured values, and the
    metrics its ``__post_init__`` derives as fields outside ``__init__``."""

    N: int
    C_qm: complex
    C_oc: complex
    C_ggwpd: complex
    error: str = ""
    abs_err_oc: float = dataclasses.field(init=False)
    abs_err_ggwpd: float = dataclasses.field(init=False)
    ratio_oc: float = dataclasses.field(init=False)
    ratio_ggwpd: float = dataclasses.field(init=False)
    phase_err_oc: float = dataclasses.field(init=False)
    phase_err_ggwpd: float = dataclasses.field(init=False)

    def __post_init__(self):
        for m in ("oc", "ggwpd"):
            c = getattr(self, f"C_{m}")
            object.__setattr__(self, f"abs_err_{m}", abs(self.C_qm - c))
            object.__setattr__(self, f"ratio_{m}", abs(self.C_qm) / abs(c))
            z = self.C_qm * np.conj(c)
            phase = float(np.arctan2(z.imag, z.real))
            object.__setattr__(self, f"phase_err_{m}", phase)


_SweepRowTwin.__qualname__ = "SweepRow"

_TWINS = {
    cls: dataclasses.make_dataclass(cls.__name__, list(fields), frozen=True)
    for cls, fields in RECORD_FIELDS.items()
}
_TWINS[SweepRow] = _SweepRowTwin


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


def test_a_copied_error_row_equals_it():
    """An error row's metrics are NaN, equal only to themselves: a copy
    keeps the same objects, as a copied dataclass did."""
    nan = complex(np.nan, np.nan)
    row = SweepRow(50, 0.5 + 0j, nan, nan, "NumericalError: x")
    for clone in (copy.copy(row), copy.deepcopy(row)):
        assert clone == row and hash(clone) == hash(row)
    assert repr(pickle.loads(pickle.dumps(row))) == repr(row)


def test_array_records_copy_and_pickle_their_arrays():
    """The records that hold arrays rebuild them, values and shape, when
    copied or pickled."""
    records = [
        shearing_manifold(GaussianPacket(0.815, 0.2, 50 * np.pi, 1 / (100 * np.pi))),
        _scan_line(-0.5, 0.5, 0.2, lambda pts: pts[:, 0] ** 3),
    ]
    for record in records:
        clones = (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record)))
        for clone in clones:
            assert type(clone) is type(record)
            assert repr(clone) == repr(record)
            for name in record._fields:
                want, got = getattr(record, name), getattr(clone, name)
                if isinstance(want, np.ndarray):
                    np.testing.assert_array_equal(got, want)
                else:
                    assert got == want


def test_no_package_class_is_a_dataclass_or_a_named_tuple():
    """Defining a dataclass or a named tuple generates and compiles its
    methods when the package is imported, most of that import's own cost.
    Every record is a plain slotted ``_Record``."""
    modules = (cli, errors, experiment, floquet, packets, rotor, semiclassics)
    classes = {
        obj
        for module in modules
        for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__module__ == module.__name__
    }
    generated = [c for c in classes if dataclasses.is_dataclass(c) or issubclass(c, tuple)]
    assert generated == []
    assert set(RECORD_FIELDS) <= {c for c in classes if issubclass(c, packets._Record)}


def test_importing_the_package_loads_no_dataclasses():
    code = (
        "import sys\n"
        "import ggwpd, ggwpd.cli\n"
        "print('dataclasses' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "False"
