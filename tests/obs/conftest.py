"""Shared hygiene for observability tests.

The obs layer is process-wide state (one toggle, one metrics registry,
one tracer, one log hub); every test in this package starts from and
returns to the pristine disabled state so tests cannot leak
instrumentation into each other — or into the rest of the suite.
"""

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def pristine_obs():
    obs.disable()
    obs.metrics.reset()
    obs.tracer.reset()
    obs.log_hub.reset()
    yield
    obs.disable()
    obs.metrics.reset()
    obs.tracer.reset()
    obs.log_hub.reset()
