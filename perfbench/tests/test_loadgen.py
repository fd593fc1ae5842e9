import time

import pytest

from loadgen import Outcome, closed_loop, group_rates, open_loop


def fake_sender(service):
    """Sends nothing; request ``i`` takes ``service(i)`` seconds."""

    def make():
        def send(request):
            time.sleep(service(request))
            return 200, {"X-Repro-Cache": "hit"}, b"{}"

        return send

    return make


def test_open_loop_times_requests_from_their_due_time():
    # One connection at 100 req/s; request 0 stalls for 0.2 s, so
    # requests 1..19 are all due before it returns and go out late.
    outcomes = open_loop(
        fake_sender(lambda i: 0.2 if i == 0 else 0.0), list(range(30)), 100.0, 1
    )
    start = outcomes[0].due
    assert [o.due - start for o in outcomes] == pytest.approx(
        [i / 100.0 for i in range(30)]
    )
    assert outcomes[0].lag < 0.05
    for o in outcomes[1:20]:
        # Sent only after the stall: lag and latency both include the
        # wait, measured from the due time.
        assert o.sent >= outcomes[0].done
        assert o.lag == pytest.approx(o.sent - o.due)
        assert o.latency >= o.lag
        assert o.latency == pytest.approx(o.done - o.due)
    # The backlog drains: the last requests are on time again.
    assert outcomes[-1].lag < 0.05
    assert [o.index for o in outcomes] == list(range(30))


def test_open_loop_uses_at_most_the_given_connections():
    active = [0]
    peak = [0]

    def make():
        def send(request):
            active[0] += 1
            peak[0] = max(peak[0], active[0])
            time.sleep(0.02)
            active[0] -= 1
            return 200, {}, b""

        return send

    open_loop(make, list(range(20)), 1000.0, 2)
    assert peak[0] <= 2


def test_closed_loop_stops_after_its_time():
    requests = iter(range(10**6))
    outcomes, wall = closed_loop(fake_sender(lambda i: 0.01), requests.__next__, 2, 0.2)
    assert 0.2 <= wall < 0.5
    assert all(o.status == 200 for o in outcomes)
    assert [o.index for o in outcomes] == list(range(len(outcomes)))


def test_group_rates():
    outcomes = [Outcome(i, 0.0, 0.0, 0.1 * i, 200, None, b"") for i in range(11)]
    assert group_rates(outcomes, 5) == pytest.approx([10.0, 10.0])
