from common import SetupProbes


def test_setup_probes_spread_over_the_run_and_report_the_median():
    values = iter([5.0, 1.0, 3.0, 2.0, 4.0])
    probes = SetupProbes(lambda: next(values), 5)
    probes.due(0.0)
    assert probes.samples == []
    probes.due(0.3)  # ceil(1.5): two of five are due
    assert probes.samples == [5.0, 1.0]
    probes.due(0.3)
    assert len(probes.samples) == 2
    assert probes.spent >= 0.0
    assert probes.median() == 3.0  # runs the three still due
    assert len(probes.samples) == 5
    probes.due(2.0)
    assert len(probes.samples) == 5
