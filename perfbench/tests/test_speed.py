import pytest

import speed


def test_slice_scales_by_the_reference_loop_around_it(monkeypatch):
    loops = iter([0.03, 0.05])  # the machine runs at half reference speed
    monkeypatch.setattr(speed, "loop_s", lambda: next(loops))
    with speed.Slice() as timing:
        pass
    assert timing.factor == pytest.approx(speed.REFERENCE_S / 0.04)
    assert timing.scaled_s == pytest.approx(timing.raw_s * timing.factor)


def test_factor_summary():
    summary = speed.factor_summary([1.2, 0.8, 1.0])
    assert summary == {"min": 0.8, "median": 1.0, "max": 1.2, "slices": 3}
