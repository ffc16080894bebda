"""The cycle cache's campaign-scale contract: replay changes no byte.

Each suite runs serially and over a two-worker pool with the cycle cache
armed (the default), then again with every simulator built cache-off
(:func:`~tests.conftest.cycle_cache_off`, which forked pool workers
inherit).  The deterministic report bytes must match, and the cached
side must have done the work the comparison is about: replayed frames
on the steady suites, probed boundaries on the faulted chaos suite.
"""

import pytest

from repro.campaign import (
    chaos_campaign,
    config_sweep_campaign,
    report_json,
    run_campaign,
)

from ..conftest import cycle_cache_off

WORKERS = (1, 2)


def run(scenarios):
    """Report bytes and results of *scenarios* at every worker count."""
    runs = []
    for workers in WORKERS:
        results = run_campaign(scenarios, workers=workers)
        runs.append((report_json(results), results))
    return runs


def total(results, stat):
    return sum(result.cycle_cache_stats[stat] for result in results)


@pytest.fixture(params=["config_sweep", "cruise", "chaos"])
def suite(request):
    """``(scenarios, the counter that shows the cache acted)``."""
    if request.param == "config_sweep":
        return config_sweep_campaign(count=8), "hits"
    if request.param == "cruise":
        cruise = request.getfixturevalue("cruise")
        drill = request.getfixturevalue("cruise_drill")
        return cruise + [drill], "hits"
    return chaos_campaign(count=16, mtfs=10), "fingerprint_ns"


def test_reports_equal_a_cache_off_reference(suite, monkeypatch):
    scenarios, acted = suite
    cached = run(scenarios)
    with monkeypatch.context() as patch:
        cycle_cache_off(patch)
        reference = run(scenarios)
    for (report, results), (expected, plain) in zip(cached, reference):
        assert total(results, acted) > 0
        assert all(result.cycle_cache_stats is None for result in plain)
        assert report == expected
