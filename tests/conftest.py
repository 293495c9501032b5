import threading

import numpy as np
import pytest

import gradflow.flow
import gradflow.spectral
from gradflow import Grid, ScalarField


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="also run the long reference-resolution computations",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def smooth_field(rng):
    """Factory for random band-limited fields with decaying mode amplitudes."""

    def make(grid: Grid, amplitude: float = 1.0, max_mode: int = 4, offset: float = 0.0):
        x = grid.x
        y = grid.y
        values = np.zeros((grid.nx, grid.ny))
        for mx in range(max_mode + 1):
            for my in range(max_mode + 1):
                if mx == 0 and my == 0:
                    continue
                decay = 1.0 / (1.0 + mx * mx + my * my)
                a, b, c, d = rng.normal(size=4)
                values = values + decay * (
                    a * np.sin(mx * x) * np.sin(my * y)
                    + b * np.sin(mx * x) * np.cos(my * y)
                    + c * np.cos(mx * x) * np.sin(my * y)
                    + d * np.cos(mx * x) * np.cos(my * y)
                )
        values *= amplitude / max(1e-30, np.abs(values).max())
        return ScalarField(grid, values + offset)

    return make



class Pairing:
    """``pairing(True)`` makes every grid made afterwards share its steps
    with the helper thread, as grids of ``spectral._PAIR_POINTS`` points do
    on two cores; ``pairing(False)`` makes none do.  A grid keeps the layout
    it was made with (``Grid.paired``).  Two cores are reported either way,
    and ``helper_calls`` counts the calls of the solver that ran on another
    thread."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.helper_calls = 0
        monkeypatch.setattr(gradflow.spectral, "_CORES", 2)
        pair = gradflow.flow._pair

        def spied(grid, fa, fb):
            def counted_fb():
                self.helper_calls += threading.current_thread() is not threading.main_thread()
                return fb()

            return pair(grid, fa, counted_fb)

        monkeypatch.setattr(gradflow.flow, "_pair", spied)
        monkeypatch.setattr(gradflow.spectral, "_pair", spied)

    def __call__(self, on: bool) -> None:
        self.monkeypatch.setattr(gradflow.spectral, "_PAIR_POINTS", 0 if on else 2**62)


@pytest.fixture
def pairing(monkeypatch):
    return Pairing(monkeypatch)
