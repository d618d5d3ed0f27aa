"""Shared fixtures for the repro test suite."""

import numpy as np
import pytest
from hypothesis import settings

from repro.desim import Simulator
from repro.pimexec import UnitView, VectorUnitArray

from tests.pimexec.unit_oracle import BankExecUnit

#: The generated differential properties' larger budget: CI's property
#: step runs them with ``--hypothesis-profile=properties``; tier-1 runs
#: each with the budget it states.
settings.register_profile(
    "properties", max_examples=1500, deadline=None, derandomize=True
)


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator starting at t=0."""
    return Simulator()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG for tests that sample."""
    return np.random.default_rng(12345)



class ArrayUnit(UnitView):
    """One production unit: the ``(0, 0)`` view of a 1 x 1
    :class:`VectorUnitArray`, whose ``execute`` is the production
    ``VectorUnitArray.execute`` on that selection — so one
    unit-semantics test body runs on the oracle and on the grid."""

    def __init__(self, lanes, dtype="fp64", ports=1):
        array = VectorUnitArray(1, 1, lanes, dtype=dtype, ports=ports)
        super().__init__(array, 0, 0)

    def execute(self, command, row=0, col=0):
        self._array.execute(command, row, col, (0, 0))


@pytest.fixture(params=["oracle", "array"])
def make_unit(request):
    """``make_unit(lanes, dtype="fp64", ports=1)``: the tests-only
    oracle unit or the production grid's one-unit case."""
    return BankExecUnit if request.param == "oracle" else ArrayUnit
