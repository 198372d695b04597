"""Shared fixtures: the two preset scenarios are prepared once per session.

Scenario preparation (seed search plus Newton refinement) and the full N
sweep dominate the suite's runtime, and their outputs are deterministic,
so every test that needs them shares one instance.
"""
import time

import pytest

from ggwpd.experiment import preset, prepare_scenario, run_sweep


class SweepBundle:
    """A prepared scenario, its sweep rows, and the wall time both took."""

    def __init__(self, name: str) -> None:
        self.config = preset(name)
        start = time.perf_counter()
        self.setup = prepare_scenario(self.config)
        self.rows = run_sweep(self.setup)
        self.duration = time.perf_counter() - start


@pytest.fixture(scope="session")
def integrable_bundle() -> SweepBundle:
    return SweepBundle("integrable-fig2")


@pytest.fixture(scope="session")
def chaotic_bundle() -> SweepBundle:
    return SweepBundle("chaotic-fig6")
