import types

import pytest

from tracer import Tracer, install_core, install_journal, install_serve, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 3] and [4, 8]; grandchild [5, 6].
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 4.0, 8.0, 0],
        ["c", 5.0, 6.0, 2],
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])
    # Self times partition the root's wall time.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_merges_overlapping_and_clips_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 2.0, 6.0, 0],
        ["b", 4.0, 7.0, 0],  # overlaps a: union is [2, 7]
        ["c", 9.0, 12.0, 0],  # runs past the parent: clipped to [9, 10]
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_recorded_spans_nest_and_summarise():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        tracer.call("leaf", leaf)
        clock.now += 3.0

    tracer.call("outer", outer)
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "self_s": 4.0, "total_s": 6.0}
    assert summary["leaf"] == {"calls": 1, "self_s": 2.0, "total_s": 2.0}
    assert tracer.covered_s() == 6.0


def test_span_ends_when_the_call_raises():
    clock = FakeClock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 1.0
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.call("boom", boom)
    assert tracer.summary()["boom"]["total_s"] == 1.0
    tracer.call("after", lambda: None)
    [spans] = tracer.spans()
    assert spans[1][3] == -1  # the stack was unwound


def test_wrap_and_restore_on_module_and_class():
    module = types.ModuleType("m")
    module.f = lambda x: x + 1

    class C:
        def g(self):
            return 7

    original_f, original_g = module.f, C.__dict__["g"]
    with Tracer() as tracer:
        tracer.wrap(module, "f", "m.f")
        tracer.wrap(C, "g", "C.g")
        assert module.f is not original_f
        assert module.f(1) == 2 and C().g() == 7
    assert module.f is original_f and C.__dict__["g"] is original_g
    assert tracer.summary()["m.f"]["calls"] == 1


def test_install_restores_every_program_entry_point():
    from repro.algorithms.wait_free import WaitFreeGather
    from repro.core import configuration
    from repro.geometry import kernels
    from repro.resilience.journal import SweepJournal
    from repro.serve import admission, server, store
    from repro.sim import batch, engine

    owners = [
        (configuration.Configuration, ("__init__", "memo")),
        (configuration, ("smallest_enclosing_circle",)),
        (kernels, ("near_pairs", "weiszfeld", "batch_polar_views")),
        (WaitFreeGather, ("compute",)),
        (engine.Simulation, ("step",)),
        (engine, ("snap_destination",)),
        (batch, ("snap_destination",)),
        (SweepJournal, ("append",)),
        (store.ResultStore, ("get", "put")),
        (admission.AdmissionController, ("acquire",)),
        (server, ("run_scenario",)),
        (server._Handler, ("do_POST",)),
    ]
    before = entry_points(owners)
    with Tracer() as tracer:
        install_core(tracer)
        install_journal(tracer)
        install_serve(tracer)
        during = entry_points(owners)
        assert all(during[key] is not before[key] for key in before)
    assert entry_points(owners) == before


def entry_points(owners):
    return {
        (id(owner), attr): owner.__dict__[attr]
        for owner, attrs in owners
        for attr in attrs
    }


def test_traced_simulation_matches_untraced_and_counts_layers():
    from repro.experiments.runner import Scenario, run_scenario

    scenario = Scenario("asymmetric", 8, f=7, scheduler="random")
    plain = run_scenario(scenario, 3)
    with Tracer() as tracer:
        install_core(tracer)
        traced = run_scenario(scenario, 3)
    assert (traced.verdict, traced.rounds, traced.final_positions) == (
        plain.verdict,
        plain.rounds,
        plain.final_positions,
    )
    summary = tracer.summary()
    assert summary["sim.step"]["calls"] == plain.rounds
    assert summary["core.memo.class"]["calls"] >= 1
    assert tracer.counts["core.memo.hits"] > 0
    total = sum(row["self_s"] for row in summary.values())
    assert total == pytest.approx(tracer.covered_s())
