"""Campaign fixtures shared across test modules."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apps.prototype import STEADY_MTF, build_steady_prototype
from repro.campaign import Scenario
from repro.campaign.scenarios import FACTORIES
from repro.fault.faults import SimulatedCrashFault


@pytest.fixture
def cruise(monkeypatch):
    """Four 40-MTF steady-cruise scenarios, whose frames the cycle cache
    replays.  The cruise factory is registered for the test only; forked
    pool workers inherit the registration."""
    monkeypatch.setitem(FACTORIES, "prototype_cruise",
                        build_steady_prototype)
    return [Scenario(scenario_id=f"cruise-{i}",
                     factory="prototype_cruise", seed=i,
                     ticks=40 * STEADY_MTF) for i in range(4)]


@pytest.fixture
def cruise_drill(cruise):
    """A cruise scenario that crashes at MTF 30, after replay started.
    Its own seed, so it shares no prefix to fork from: the crash ends a
    cold run that replayed steady MTFs first."""
    return replace(cruise[0], scenario_id="cruise-crash", seed=99,
                   faults=((30 * STEADY_MTF, SimulatedCrashFault()),))
