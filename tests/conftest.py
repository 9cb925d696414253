import numpy as np
import pytest

from liouwave import make_torus_grid


@pytest.fixture(scope="session")
def grid32():
    return make_torus_grid(32, 32)


@pytest.fixture(scope="session")
def grid64():
    return make_torus_grid(64, 64)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


class CheckpointLog(list):
    """An `on_checkpoint` callback for `evolve` that keeps a clone of each
    checkpoint state, as (step_index, state)."""

    def __call__(self, step_index, state):
        self.append((step_index, state.clone()))


@pytest.fixture()
def checkpoint_log():
    """The `CheckpointLog` class: each call makes a new, empty log."""
    return CheckpointLog
