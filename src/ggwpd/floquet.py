"""Exact quantum propagation of the kicked rotor on a finite position grid.

With N basis states on the unit torus the effective Planck constant is
hbar = 1/(2 pi N), and a single period is the unitary

    F[r, s] = exp[i pi (r - s)^2 / N] * exp[i N K cos(2 pi s / N) / (2 pi)]
              / sqrt(i N)

acting on wavefunction samples at q_s = s/N, s = 1..N, with the principal
square root sqrt(iN) = sqrt(N) exp(i pi / 4).  Correlations computed here
are the reference values the semiclassical estimates are judged against.

:func:`quantum_correlation` applies F in O(N log N) time and O(N) memory
with the split-operator method (Feit, Fleck & Steiger, J. Comput. Phys.
47, 412 (1982)): a diagonal kick phase, then the drift, whose entry
depends only on d = r - s.  The drift is a symmetric Toeplitz matrix.  It
is applied as the top-left N x N block of a circulant of length 2N,
i.e. as one zero-padded FFT convolution.  The embedding needs no
periodicity in d, so even and odd N take the same path.  The dense
:func:`floquet_matrix` is the independent oracle the tests check this
against.

:func:`discretize_packet` evaluates each lattice image of a packet only
on the grid window where its Gaussian is not exactly zero in double
precision: |x - (q + n)| <= sqrt(746 / b).  At the width b = pi N that
is about 31 sqrt(N) grid points, half the torus at N = 4000 and a tenth
at N = 10^5.  Outside it every term is +-0, which leaves a sum started
at +0 unchanged, so the sampled state is bit-identical to the image sum
over the whole grid.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConfigError, NumericalError
from .packets import GaussianPacket

# exp(-x) underflows to exactly 0 in double precision once x > 745.14, so a
# packet image contributes exactly +-0 wherever b dx^2 exceeds this
_UNDERFLOW_EXPONENT = 746.0

# ln(1/eps): an image beyond m = sqrt(this / b) on either side weighs less
# than the machine epsilon
_LOG_INV_EPS = -math.log(sys.float_info.epsilon)

# Most lattice images a side :func:`discretize_packet` sums.  The count
# grows like 1/sqrt(b), and each image costs a pass over the grid, so an
# unbounded count lets a nearly flat packet (b = 1e-8 needs 60,037 images a
# side) run for seconds to days; 64 admits every width b >= 0.0088.
_MAX_IMAGES = 64

# Largest distance of a packet's hbar from 1/(2 pi N) for which it is taken
# to be the N-state grid's, as the oracle samples it and the semiclassical
# evaluators recognise an odd-N grid.
_GRID_HBAR_TOL = 1e-15

# Largest rounding, in radians, that the kick phases of all |t| periods may
# add to the correlation: the phase N K cos(2 pi s / N) / (2 pi) rounds by
# up to eps N K / (2 pi) a period, and the relative error of C_qm follows
# it (1e-4 to 3e-4 at K = 1e10, N = 700, t = 2).  1e-9 keeps the oracle well below
# the semiclassical errors it judges, and admits every preset (at most
# 4.1e-13) and chaotic-fig6 at N = 10^5 and t = 5 (1.5e-10).
_KICK_PHASE_TOL = 1e-9


def grid_hbar(n_states: int) -> float:
    """Effective Planck constant of an N-state torus grid."""
    if n_states < 1:
        raise ValueError("need at least one basis state")
    return 1.0 / (2.0 * np.pi * n_states)


def floquet_matrix(n_states: int, params) -> np.ndarray:
    """One-period unitary on the N-point position grid.

    Unitarity is exact in infinite precision; in floating point the
    defect stays at the few-ulp level (see the norm checks in the tests).
    """
    N = n_states
    s = np.arange(1, N + 1)
    r = s[:, None]
    kick = np.exp(1j * N * params.K * np.cos(2.0 * np.pi * s / N) / (2.0 * np.pi))
    drift = np.exp(1j * np.pi * (r - s[None, :]) ** 2 / N)
    root = np.sqrt(N) * np.exp(1j * np.pi / 4.0)
    return drift * kick[None, :] / root


def discretize_packet(packet: GaussianPacket, n_states: int) -> np.ndarray:
    """Sample a packet on the N-point grid, image-summed and renormalized.

    The torus state sums the lattice translates q -> q + n of the packet.
    That sum is periodic in the centre q, so q is first folded into
    [0, 1), which only re-indexes it.  Every grid point then lies in
    (0, 1], and an image beyond m on either side is at least m away from
    all of them, where its weight exp(-b m^2) is below the machine
    epsilon eps once m = max(1, ceil(sqrt(ln(1/eps) / b))).  For the
    torus width b = pi N that is one image a side from N = 12 on.  The
    result is normalized to unit discrete norm so overlaps are bounded by
    one.  A packet needing more than ``_MAX_IMAGES`` images a side is
    refused with :class:`ConfigError`.

    Image n is evaluated only on the grid window |x - (q + n)| <= reach =
    sqrt(746 / b), plus a spare point a side, clipped to the grid.  Beyond
    reach b dx^2 > 746, so exp(-b dx^2) underflows to exactly 0 and the
    term is +-0 whatever its phase.  The sum starts at +0 and adding +-0
    changes no element, so each sample, signed zeros included, equals the
    whole-grid image sum; the images are still added in the same order.
    At b = pi N the window holds about 31 sqrt(N) points, so a packet
    costs O(sqrt(N)) exponentials instead of 3N.
    """
    hbar = grid_hbar(n_states)
    if abs(packet.hbar - hbar) > _GRID_HBAR_TOL:
        raise ConfigError(
            f"packet hbar {packet.hbar!r} does not match the N = {n_states} grid"
        )
    N = n_states
    psi = np.zeros(N, dtype=complex)
    b = packet.b1
    q = packet.q1 - math.floor(packet.q1)
    images = max(1, math.ceil(math.sqrt(_LOG_INV_EPS / b)))
    if images > _MAX_IMAGES:
        raise ConfigError(
            f"packet width b = {b!r} needs {images} lattice images a side, "
            f"more than {_MAX_IMAGES}"
        )
    reach = math.sqrt(_UNDERFLOW_EXPONENT / b)
    ip = 1j * packet.p1
    for n in range(-images, images + 1):
        # grid index i holds x = (i + 1)/N, so the window is i + 1 within
        # N (q + n -+ reach), widened by a spare point a side against the
        # rounding of the bounds, and clipped to the grid before it is
        # rounded to an index, so a huge reach cannot overflow
        lo = math.floor(min(max(N * (q + n - reach) - 2.0, 0.0), N))
        hi = math.floor(min(max(N * (q + n + reach) + 1.0, 0.0), N))
        if lo < hi:
            dx = np.arange(lo + 1, hi + 1) / N - (q + n)
            psi[lo:hi] += np.exp(-b * dx**2 + ip * dx / hbar)
    psi *= (2.0 * b / np.pi) ** 0.25
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise ConfigError("packet discretization underflowed to zero")
    return psi / norm


def quantum_correlation(
    alpha: GaussianPacket, beta: GaussianPacket, t: int, n_states: int, params
) -> complex:
    """<beta| F^t |alpha> on the N-state grid (the exact reference value).

    Each period is a kick phase and one FFT convolution with the drift
    kernel (see the module docstring).  Negative t evolves backwards with
    the exact adjoint: the two diagonal factors swap and conjugate, and so
    do the circulant's eigenvalues.  Both packets are periodized as
    :func:`discretize_packet` describes, so a centre anywhere on the
    covering space gives the value of its folded copy.  A kick whose phase
    rounds by more than ``_KICK_PHASE_TOL`` over the |t| periods, |t| eps
    N K / (2 pi), is refused with :class:`NumericalError`.
    """
    N = n_states
    phase_rounding = abs(t) * sys.float_info.epsilon * N * params.K / (2.0 * np.pi)
    if phase_rounding > _KICK_PHASE_TOL:
        raise NumericalError(
            f"the kick phase rounds by up to {phase_rounding:.3g} rad over "
            f"{abs(t)} periods at N = {N}, more than {_KICK_PHASE_TOL:g}; "
            f"K = {params.K:g} is too large for the exact oracle"
        )
    s = np.arange(1, N + 1)
    kick = np.exp(1j * N * params.K * np.cos(2.0 * np.pi * s / N) / (2.0 * np.pi))
    # the same entries exp(i pi d^2 / N) as floquet_matrix, rounding
    # included, so correlations stay within FFT rounding of the dense ones
    drift = np.exp(1j * np.pi * np.arange(N) ** 2 / N)
    # numpy.fft is looked up here, not at import, to keep `import ggwpd` cheap
    fft, ifft = np.fft.fft, np.fft.ifft
    # circulant column [drift(0..N-1), 0, drift(N-1..1)]: its top-left
    # N x N block is the Toeplitz drift
    drift_hat = fft(np.concatenate((drift, [0.0], drift[:0:-1])))
    left = 1.0 / (np.sqrt(N) * np.exp(1j * np.pi / 4.0))
    right = kick
    if t < 0:
        left, right, drift_hat = np.conj(right), np.conj(left), drift_hat.conj()
    va = discretize_packet(alpha, n_states)
    vb = discretize_packet(beta, n_states)
    v = va
    for _ in range(abs(t)):
        v = left * ifft(drift_hat * fft(right * v, 2 * N))[:N]
    return complex(np.vdot(vb, v))
