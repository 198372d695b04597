"""Exact quantum reference: one-kick unitary and packet discretization."""
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggwpd.errors import ConfigError, NumericalError
from ggwpd.experiment import ExperimentConfig, ScenarioSetup, run_sweep
from ggwpd.floquet import (
    discretize_packet,
    floquet_matrix,
    grid_hbar,
    quantum_correlation,
)
from ggwpd.packets import GaussianPacket
from ggwpd.rotor import RotorParams
from oracles import long_double_kick_correlation


def _packet(p, q, N):
    return GaussianPacket(p, q, np.pi * N, grid_hbar(N))


def test_grid_scale_ties_hbar_to_dimension():
    for N in (2, 50, 700):
        assert abs(2.0 * np.pi * grid_hbar(N) * N - 1.0) < 1e-15


def test_grid_hbar_refuses_an_empty_grid():
    with pytest.raises(ValueError, match="at least one basis state"):
        grid_hbar(0)


def test_unitarity():
    for K in (0.05, 8.25):
        F = floquet_matrix(128, RotorParams(K))
        dev = np.max(np.abs(F.conj().T @ F - np.eye(128)))
        assert dev < 1e-12


def test_entries_have_uniform_modulus():
    N = 33
    F = floquet_matrix(N, RotorParams(8.25))
    assert np.max(np.abs(np.abs(F) - 1.0 / np.sqrt(N))) < 1e-14


def test_eigenvalues_on_unit_circle():
    N = 64
    for K in (0.05, 8.25):
        w = np.linalg.eigvals(floquet_matrix(N, RotorParams(K)))
        assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-11


def test_zero_kick_preserves_momentum_states():
    """With no kick the evolution is diagonal in the momentum basis.

    Each discrete plane wave must come back as itself times a pure
    phase; any mixing indicates the quadratic drift phase is off.
    """
    N = 48
    F = floquet_matrix(N, RotorParams(0.0))
    s = np.arange(1, N + 1)
    for m in (0, 1, 5, 24, 47):
        v = np.exp(2j * np.pi * m * s / N) / np.sqrt(N)
        w = F @ v
        amp = np.vdot(v, w)
        assert abs(abs(amp) - 1.0) < 1e-12
        assert np.linalg.norm(w - amp * v) < 1e-12


def test_evolution_preserves_packet_norm():
    N = 96
    F = floquet_matrix(N, RotorParams(8.25))
    v = discretize_packet(_packet(0.0, 0.0, N), N)
    for _ in range(5):
        v = F @ v
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_discretized_packet_is_unit_norm():
    for N in (50, 700):
        v = discretize_packet(_packet(0.815, 0.2, N), N)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-14


def test_discretization_rejects_mismatched_hbar():
    packet = GaussianPacket(0.0, 0.5, np.pi * 64, grid_hbar(65))
    with pytest.raises(ConfigError):
        discretize_packet(packet, 64)


def test_small_n_packet_sums_every_image_above_rounding():
    """At N = 4 the image two periods off still weighs up to
    exp(-4 pi) = 3.5e-6 at a grid end, so one image a side is too few;
    the image count follows from the width."""
    N = 4
    packet = _packet(0.3, 0.0, N)
    x = np.arange(1, N + 1) / N
    dx = x[None, :] - (packet.q1 + np.arange(-20, 21)[:, None])
    terms = np.exp(-packet.b1 * dx**2 + 1j * packet.p1 * dx / packet.hbar)
    reference = terms.sum(axis=0)
    reference /= np.linalg.norm(reference)
    assert np.max(np.abs(discretize_packet(packet, N) - reference)) < 1e-15


def _full_grid_packet(packet, N):
    """The image sum of discretize_packet evaluated at every grid point."""
    x = np.arange(1, N + 1) / N
    psi = np.zeros(N, dtype=complex)
    b = packet.b1
    q = packet.q1 - np.floor(packet.q1)
    images = max(1, int(np.ceil(np.sqrt(-np.log(np.finfo(float).eps) / b))))
    for n in range(-images, images + 1):
        dx = x - (q + n)
        psi += np.exp(-b * dx**2 + 1j * packet.p1 * dx / packet.hbar)
    psi *= (2.0 * b / np.pi) ** 0.25
    return psi, np.linalg.norm(psi)


@settings(max_examples=150, deadline=None)
@given(
    N=st.integers(1, 3000),
    q=st.floats(-3.5, 3.5),
    p=st.floats(-3.0, 3.0),
    b=st.one_of(st.none(), st.floats(0.5, 36.0), st.floats(36.0, 3000.0)),
)
def test_windowed_sampling_equals_the_full_grid_sum(N, q, p, b):
    """Every grid point outside an image's window holds an exact +-0 of
    that image, so skipping them leaves each byte, signed zeros included."""
    packet = GaussianPacket(p, q, np.pi * N if b is None else b, grid_hbar(N))
    psi, norm = _full_grid_packet(packet, N)
    if norm == 0.0:
        with pytest.raises(ConfigError, match="underflowed"):
            discretize_packet(packet, N)
    else:
        assert discretize_packet(packet, N).tobytes() == (psi / norm).tobytes()


def test_all_underflow_packet_is_refused():
    """A packet narrow enough to be exactly 0 at every grid point."""
    N = 8
    packet = GaussianPacket(0.0, 1.0 / (2 * N), 1e6, grid_hbar(N))
    assert _full_grid_packet(packet, N)[1] == 0.0
    with pytest.raises(ConfigError, match="underflowed"):
        discretize_packet(packet, N)


@pytest.mark.parametrize("b", [1e-8, 0.0087])
def test_nearly_flat_packet_is_refused_at_once(b):
    """A packet so wide that it needs more than 64 lattice images a side is
    refused before any image is summed: b = 1e-8 needs 60,037 and once
    took 2.3 s at N = 8; b = 0.0087 needs 65."""
    N = 8
    packet = GaussianPacket(0.0, 0.5, b, grid_hbar(N))
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=rf"b = {b!r} needs \d+ lattice images"):
        discretize_packet(packet, N)
    assert time.perf_counter() - start < 0.1


def test_widest_admitted_packet_is_still_sampled():
    """b = 0.0088 needs exactly 64 images a side, the most admitted."""
    N = 8
    psi = discretize_packet(GaussianPacket(0.0, 0.5, 0.0088, grid_hbar(N)), N)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-14


@pytest.mark.parametrize("q", [2.2, -1.8])
def test_correlation_is_periodic_in_the_packet_centre(q):
    """A torus state is the full lattice-image sum, so a ket centred a
    whole number of periods away gives the value of its folded copy."""
    N = 100
    params = RotorParams(0.05)
    beta = _packet(0.77, 0.8, N)
    folded = quantum_correlation(_packet(0.815, 0.2, N), beta, 2, N, params)
    shifted = quantum_correlation(_packet(0.815, q, N), beta, 2, N, params)
    assert abs(shifted - folded) < 1e-12


def test_correlation_is_bounded_and_hermitian_in_time():
    """|<beta|F^t|alpha>| <= 1 and reversing the roles conjugates it."""
    N = 80
    params = RotorParams(8.25)
    alpha = _packet(0.0, 0.0, N)
    beta = _packet(0.0, 0.5, N)
    for t in (0, 1, 2, 5):
        c = quantum_correlation(alpha, beta, t, N, params)
        assert abs(c) <= 1.0 + 1e-12
        reverse = quantum_correlation(beta, alpha, -t, N, params)
        assert abs(c - np.conj(reverse)) < 1e-12


def test_correlation_at_t0_is_discrete_overlap():
    N = 80
    alpha = _packet(0.3, 0.4, N)
    beta = _packet(0.35, 0.45, N)
    va = discretize_packet(alpha, N)
    vb = discretize_packet(beta, N)
    c = quantum_correlation(alpha, beta, 0, N, RotorParams(8.25))
    assert abs(c - np.vdot(vb, va)) < 1e-14


def _dense_correlation(alpha, beta, t, N, params):
    """<beta|F^t|alpha> by |t| products with the dense oracle matrix."""
    F = floquet_matrix(N, params)
    if t < 0:
        F = F.conj().T
    v = discretize_packet(alpha, N)
    for _ in range(abs(t)):
        v = F @ v
    return np.vdot(discretize_packet(beta, N), v)


_centers = st.tuples(
    st.floats(-1.0, 1.0, allow_nan=False), st.floats(0.0, 1.0, allow_nan=False)
)


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=40, deadline=None)
@given(
    half=st.integers(1, 149),
    K=st.floats(0.0, 10.0, allow_nan=False),
    t=st.integers(-4, 4),
    a=_centers,
    b=_centers,
)
def test_fft_correlation_matches_dense_oracle(parity, half, K, t, a, b):
    """The FFT step equals the dense matrix for even and odd N alike."""
    N = 2 * half + parity
    params = RotorParams(K)
    alpha, beta = _packet(*a, N), _packet(*b, N)
    c = quantum_correlation(alpha, beta, t, N, params)
    assert abs(c - _dense_correlation(alpha, beta, t, N, params)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(2, 300),
    K=st.floats(0.0, 10.0, allow_nan=False),
    t=st.integers(-4, 4),
    a=_centers,
    b=_centers,
)
def test_correlation_time_reversal_property(N, K, t, a, b):
    """<beta|F^t|alpha> = conj <alpha|F^-t|beta> at random N, K and t."""
    params = RotorParams(K)
    alpha, beta = _packet(*a, N), _packet(*b, N)
    forward = quantum_correlation(alpha, beta, t, N, params)
    backward = quantum_correlation(beta, alpha, -t, N, params)
    assert abs(forward - np.conj(backward)) < 1e-12


def test_fft_correlation_matches_dense_oracle_at_n4096():
    """beta sits on the classical image of alpha after t = 2 kicks, so the
    correlation is of order one rather than exponentially small."""
    N = 4096
    params = RotorParams(0.05)
    alpha, beta = _packet(0.815, 0.2, N), _packet(0.8070603, 0.8144920, N)
    c = quantum_correlation(alpha, beta, 2, N, params)
    ref = _dense_correlation(alpha, beta, 2, N, params)
    assert abs(ref) > 0.5
    assert abs(c - ref) < 1e-12


@pytest.mark.parametrize("N, t", [(700, 2), (100, 3)])
@pytest.mark.parametrize("K", [8.25, 1e3, 1e5, 1e7, 1e10, 1e12])
def test_correlation_matches_the_long_double_kick_phase_or_refuses(K, N, t):
    """The kick phase N K cos(2 pi s / N) / (2 pi) rounds by up to
    eps N K / (2 pi) a period.  Against the same oracle with that phase
    reduced in long double, C_qm was 6.8e-6 off at K = 1e10, N = 700 and
    t = 2, with nothing to flag it.  A kick whose phase rounds by more
    than 1e-9 over the t periods is refused; below that C_qm agrees to
    1e-9, the FFT's 1e-13 aside."""
    alpha, beta = _packet(0.815, 0.2, N), _packet(0.85, 0.6, N)
    params = RotorParams(K)
    if t * np.finfo(float).eps * N * K / (2 * np.pi) > 1e-9:
        with pytest.raises(NumericalError, match="the kick phase rounds by up to"):
            quantum_correlation(alpha, beta, t, N, params)
        return
    c = quantum_correlation(alpha, beta, t, N, params)
    assert abs(c - long_double_kick_correlation(alpha, beta, t, N, K)) <= 1e-9 + 1e-13


def test_a_sweep_records_the_kick_phase_refusal_in_its_row():
    """run_sweep keeps going past the oracle's refusal: the row carries it."""
    config = ExperimentConfig(
        K=1e10, t=2, alpha_center=(0.815, 0.2), beta_center=(0.85, 0.6),
        N_list=(700,), regime="integrable", image_range=2,
    )
    (row,) = run_sweep(ScenarioSetup(config, ()))
    assert row.error.startswith("NumericalError: the kick phase rounds by up to")
    assert np.isnan(row.C_qm)
