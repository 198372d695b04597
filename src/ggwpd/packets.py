"""Gaussian wave packets and the complexified phase-space constraint.

The packet parametrization used everywhere in this package is

    <x|alpha> = (2 b/pi)^(1/4) exp[-b (x-q)^2 + (i/hbar) p (x-q)]

with a real positive width ``b``; everything is one-dimensional.  A
complex phase-space point (P, Q) represents the same state when it
satisfies the linear constraint 2 b Q + (i/hbar) P = 2 b q + (i/hbar) p,
whose deviations :func:`residuals` returns; the normalization-and-phase
exponents returned by :func:`ket_norm_exponent`
and :func:`bra_norm_exponent` make the complex-center Gaussian form agree
pointwise with the real-center one.
"""
from __future__ import annotations

import cmath
import math
import numbers

import numpy as np

from .errors import ConfigError


def _scalar(name: str, x, kind=float):
    """``x`` as a Python ``kind``; arrays of any shape are refused."""
    if type(x) is kind:  # a Python float or complex is already a scalar
        return x
    if np.ndim(x) != 0:
        raise ValueError(f"{name} must be a scalar, got shape {np.shape(x)}")
    return kind(x)


def _require_int(name: str, value, minimum: int) -> int:
    """``value`` as a Python int, refused with :class:`ConfigError` unless
    it is an integer of at least ``minimum`` and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


def _modulus(z: complex) -> float:
    """``abs(z)``, also where a part is NaN and no part infinite.

    CPython 3.11 returns NaN there without clearing errno, and so raises
    ``OverflowError`` when an earlier libm call left ERANGE in it, as
    numpy's complex exp does on underflow: whether a NaN term raised then
    depended on which call ran last.
    """
    if z == z:  # no NaN part
        return abs(z)
    return math.inf if cmath.isinf(z) else math.nan


class _Record:
    """Base of every record in the package.

    A record stores its fields, ``_fields`` in order, in ``__slots__`` set
    once by its ``__init__``; assignment and deletion raise
    ``AttributeError``.  ``==``, ``hash`` and ``repr`` read the fields the
    way a frozen dataclass's generated methods do, and pickling or copying
    rebuilds a record through its ``__init__``; a record whose ``__init__``
    takes fewer arguments than its fields overrides ``__reduce__``.
    Records are plain classes, not dataclasses or named tuples, because
    generating their methods dominated the cost of importing the package.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, self._values()


# A record's ``__init__`` fills its slots past its own refusing ``__setattr__``.
_set = object.__setattr__


class GaussianPacket(_Record):
    """A unit-normalized one-dimensional Gaussian coherent state.

    Parameters
    ----------
    p1, q1 : float
        Real phase-space center (momentum, position).
    b1 : float
        Width (inverse length squared); must be positive.
    hbar : float
        Action scale.  For the rotor experiments ``hbar = 1/(2 pi N)`` and
        ``b1 = pi N`` so that position and momentum uncertainties coincide.

    Every value must be a finite real scalar; anything else raises
    ``ValueError``.
    """

    __slots__ = _fields = ("p1", "q1", "b1", "hbar")

    def __init__(self, p1: float, q1: float, b1: float, hbar: float) -> None:
        for name, value in zip(self._fields, (p1, q1, b1, hbar)):
            value = _scalar(name, value)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            _set(self, name, value)
        if self.b1 <= 0.0:
            raise ValueError("width b must be positive")
        if self.hbar <= 0.0:
            raise ValueError("hbar must be positive")

    @property
    def sigma(self) -> float:
        """Position uncertainty sigma = 1/(2 sqrt(b))."""
        return 1.0 / (2.0 * math.sqrt(self.b1))


class ComplexPhasePoint(_Record):
    """A point (P, Q) = (p1, q1) in complexified phase space."""

    __slots__ = _fields = ("p1", "q1")

    def __init__(self, p1: complex, q1: complex) -> None:
        if not (type(p1) is complex and type(q1) is complex):
            p1 = _scalar("P", p1, complex)
            q1 = _scalar("Q", q1, complex)
        _set(self, "p1", p1)
        _set(self, "q1", q1)

    def is_real(self) -> bool:
        return self.p1.imag == 0.0 and self.q1.imag == 0.0


_new = object.__new__
_set_p1 = ComplexPhasePoint.p1.__set__
_set_q1 = ComplexPhasePoint.q1.__set__


_packet_setters = tuple(
    getattr(GaussianPacket, name).__set__ for name in GaussianPacket._fields
)


def _packet(p1: float, q1: float, b1: float, hbar: float) -> GaussianPacket:
    """The :class:`GaussianPacket` of four Python floats, without its checks.

    For callers whose values are checked already: finite, with b1 and hbar
    positive.  Filling the slots directly costs under half the checked
    constructor.
    """
    packet = _new(GaussianPacket)
    set_p1, set_q1, set_b1, set_hbar = _packet_setters
    set_p1(packet, p1)
    set_q1(packet, q1)
    set_b1(packet, b1)
    set_hbar(packet, hbar)
    return packet


def _complex_point(p1: complex, q1: complex) -> ComplexPhasePoint:
    """The :class:`ComplexPhasePoint` (p1, q1) of two Python complex values.

    Equal to ``ComplexPhasePoint(p1, q1)`` without its type check, for the
    propagation and Newton loops whose values are Python complex already;
    filling the two slots directly costs half the checked constructor.
    """
    point = _new(ComplexPhasePoint)
    _set_p1(point, p1)
    _set_q1(point, q1)
    return point


class ResidualPair(_Record):
    """Deviations of a trajectory's endpoints from the two packet constraints.

    ``initial`` measures how far the initial point is from the ket packet's
    constraint set, ``final`` the same for the final point against the bra
    packet (with its momentum term conjugated).  Both vanish exactly on a
    saddle-point trajectory.  ``max_norm``, the larger of their moduli and
    NaN when either is, is computed once, on construction; it is no field,
    so ``==``, ``hash`` and ``repr`` ignore it.
    """

    _fields = ("initial", "final")
    __slots__ = (*_fields, "max_norm")

    def __init__(self, initial: complex, final: complex) -> None:
        if not (type(initial) is complex and type(final) is complex):
            initial = _scalar("initial", initial, complex)
            final = _scalar("final", final, complex)
        _set(self, "initial", initial)
        _set(self, "final", final)
        a, b = abs(initial), abs(final)
        # max keeps its first argument against a NaN second one
        _set(self, "max_norm", b if math.isnan(b) else max(a, b))


def ket_norm_exponent(packet: GaussianPacket, point: ComplexPhasePoint) -> complex:
    """Exponent restoring normalization and phase for a complex-center ket.

    With ``N0 = (2 b/pi)^(1/4) exp[ket_norm_exponent]`` the form
    ``N0 exp[-b (x-Q)^2 + (i/hbar) P (x-Q)]`` reproduces <x|alpha>
    pointwise whenever (P, Q) lies on the packet's constraint set.

    Vanishes exactly for real points.
    """
    b = packet.b1
    binv = 1.0 / b
    hbar = packet.hbar
    PR, PI = point.p1.real, point.p1.imag
    QI = point.q1.imag
    return complex(
        1j / (2.0 * hbar**2) * (PR * binv * PI)
        - (PI * binv * PI) / (4.0 * hbar**2)
        - QI * b * QI
        - (PR * QI) / hbar
    )


def bra_norm_exponent(packet: GaussianPacket, point: ComplexPhasePoint) -> complex:
    """Bra-side companion of :func:`ket_norm_exponent`.

    Identical except for the sign of the real-momentum/imaginary-position
    cross term: ``bra - ket = (2/hbar) P_real Q_imag``.  Conjugating the
    point flips the signs of both imaginary parts, which flips exactly
    that term and the imaginary part, so the bra exponent is the
    conjugated ket exponent at the conjugated point -- rounding included,
    unlike adding the cross term to the ket exponent.
    """
    conj = _complex_point(point.p1.conjugate(), point.q1.conjugate())
    return ket_norm_exponent(packet, conj).conjugate()


def residuals(
    alpha: GaussianPacket,
    beta: GaussianPacket,
    point0: ComplexPhasePoint,
    point_t: ComplexPhasePoint,
) -> ResidualPair:
    """Saddle-condition residuals of a candidate trajectory's endpoints.

    The initial point is tested against the ket packet ``alpha`` and the
    final point against the bra packet ``beta``; note the conjugated sign
    of the momentum term on the bra side:

        initial = 2 b_a (Q0 - q_a) + (i/hbar)(P0 - p_a)
        final   = 2 b_b (Qt - q_b) - (i/hbar)(Pt - p_b)
    """
    c_init = 2.0 * (alpha.b1 * (point0.q1 - alpha.q1)) + (
        1j / alpha.hbar
    ) * (point0.p1 - alpha.p1)
    c_fin = 2.0 * (beta.b1 * (point_t.q1 - beta.q1)) - (
        1j / beta.hbar
    ) * (point_t.p1 - beta.p1)
    return ResidualPair(c_init, c_fin)
