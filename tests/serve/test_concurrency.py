"""Store races under real concurrency: exactly-once computation.

``N`` threads fire identical and distinct ``POST /run``\\ s (and
overlapping ``POST /sweep``\\ s) through real sockets at once.  The properties under test are the cache's soundness
guarantees, which must hold for *every* interleaving:

* one computation per content address (duplicates coalesce or hit);
* every response body for one key is byte-identical;
* the request/cache counters add up — nothing double-counted, nothing
  lost.
"""

import json
import sys
import threading
import time
from contextlib import contextmanager

from .client import serving

SCENARIO = {
    "workload": "random",
    "n": 6,
    "f": 1,
    "crashes": "random",
    "max_rounds": 5000,
}


def fire_concurrently(client, payloads):
    """POST /run for every payload at once (barrier start); -> results."""
    return post_concurrently(client, [("/run", p) for p in payloads])


def post_concurrently(client, requests):
    """POST every ``(path, payload)`` at once (barrier start); ->
    results in request order."""
    results = [None] * len(requests)
    barrier = threading.Barrier(len(requests))

    def worker(index, path, payload):
        barrier.wait()
        results[index] = client.request("POST", path, payload)

    threads = [
        threading.Thread(target=worker, args=(i, path, payload))
        for i, (path, payload) in enumerate(requests)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return results


class TestIdenticalRequests:
    def test_duplicates_compute_exactly_once(self, tmp_path):
        n_clients = 8
        with serving(store_root=str(tmp_path / "store")) as client:
            payload = {"scenario": SCENARIO, "seed": 42}
            results = fire_concurrently(client, [payload] * n_clients)

            bodies = set()
            states = []
            for status, headers, raw in results:
                assert status == 200
                bodies.add(raw)
                states.append(headers["X-Repro-Cache"])
            # Byte-identical bodies, whichever path each request took.
            assert len(bodies) == 1
            assert json.loads(bodies.pop())["seed"] == 42

            # Exactly-once: one store fill for one content address,
            # however many requests raced for it.
            store = client.server.store
            assert store.stores == 1
            assert len(store) == 1

            # Every request is accounted for exactly once: the leader
            # is the miss, every other is a hit (arrived after the fill)
            # or coalesced (arrived during the computation).
            document = client.metrics()
            requests = document["requests"]
            assert requests["serve.run.requests"] == n_clients
            assert requests.get("serve.cache.miss", 0) == 1
            accounted = (
                requests.get("serve.cache.miss", 0)
                + requests.get("serve.cache.hit", 0)
                + requests.get("serve.cache.coalesced", 0)
            )
            assert accounted == n_clients
            assert document["robustness"]["coalesced"] == requests.get(
                "serve.cache.coalesced", 0
            )
            assert states.count("miss") == 1

    def test_coalesced_followers_wait_for_leader(self, tmp_path):
        # Serialize the simulation behind a request already holding the
        # work lock: followers for the same key must then overlap the
        # leader and coalesce (not recompute) once it releases.
        with serving(store_root=str(tmp_path / "store")) as client:
            release = threading.Event()
            client.server._work_lock.acquire()
            holder = threading.Thread(
                target=lambda: (
                    release.wait(10),
                    client.server._work_lock.release(),
                )
            )
            holder.start()
            try:
                payload = {"scenario": SCENARIO, "seed": 7}
                results_box = {}

                def racers():
                    results_box["r"] = fire_concurrently(
                        client, [payload] * 4
                    )

                thread = threading.Thread(target=racers)
                thread.start()
                # All four requests are now parked (one on the work
                # lock, three on the flight); let them go.
                deadline_t = threading.Event()
                deadline_t.wait(0.2)
                release.set()
                thread.join(timeout=30)
            finally:
                release.set()
                holder.join(timeout=10)
            results = results_box["r"]
            assert [status for status, _, _ in results] == [200] * 4
            assert len({raw for _, _, raw in results}) == 1
            assert client.server.store.stores == 1
            assert client.server.flights.coalesced >= 1


class TestDistinctRequests:
    def test_distinct_seeds_all_compute_once(self, tmp_path):
        seeds = list(range(10))
        with serving(store_root=str(tmp_path / "store")) as client:
            payloads = [{"scenario": SCENARIO, "seed": s} for s in seeds]
            results = fire_concurrently(client, payloads)
            for seed, (status, _, raw) in zip(seeds, results):
                assert status == 200
                assert json.loads(raw)["seed"] == seed
            store = client.server.store
            assert store.stores == len(seeds)
            assert len(store) == len(seeds)

            # Replaying the same batch is all hits, byte-identical.
            replay = fire_concurrently(client, payloads)
            assert [r[2] for r in replay] == [r[2] for r in results]
            assert store.stores == len(seeds)  # nothing recomputed
            hits = client.metrics()["requests"]["serve.cache.hit"]
            assert hits >= len(seeds)


@contextmanager
def parked_until(client, coalesced):
    """Hold the simulation slot while the body runs its requests, and
    release it once ``coalesced`` seeds wait on another request's
    flight (or after 10 s): every request has then resolved its keys
    before anything computes."""
    server = client.server
    server._work_lock.acquire()

    def release_when_parked():
        stop = time.monotonic() + 10.0
        while server.flights.coalesced < coalesced and time.monotonic() < stop:
            time.sleep(0.005)
        server._work_lock.release()

    holder = threading.Thread(target=release_when_parked)
    holder.start()
    try:
        yield
    finally:
        holder.join(timeout=30)


def sweep_lines(raw):
    """A sweep stream's per-seed lines, keyed by seed (summary dropped)."""
    lines = raw.decode().splitlines(keepends=True)
    return {json.loads(line)["seed"]: line.encode() for line in lines[:-1]}


class TestAcrossEndpoints:
    def test_sweeps_and_run_compute_each_seed_once(self, tmp_path):
        sweep = {"scenario": SCENARIO, "seed_start": 0, "seed_count": 8}
        with serving(store_root=str(tmp_path / "store")) as client:
            # Seeds 0-7 are each led once and followed once by the
            # other sweep; the /run of seed 3 follows too.
            with parked_until(client, coalesced=9):
                results = post_concurrently(
                    client,
                    [
                        ("/sweep", sweep),
                        ("/sweep", sweep),
                        ("/run", {"scenario": SCENARIO, "seed": 3}),
                    ],
                )
            assert [status for status, _, _ in results] == [200] * 3
            (_, _, first), (_, _, second), (_, _, run) = results
            assert first == second
            assert sweep_lines(first)[3] == run
            assert client.server.store.stores == 8
            assert client.server.flights.coalesced >= 1
            robustness = client.metrics()["robustness"]
            assert robustness["coalesced"] == client.server.flights.coalesced

    def test_overlapping_sweeps_do_not_deadlock(self, tmp_path):
        # Each sweep can lead some of the seeds the other follows; both
        # finish their own flights before waiting on the other's.
        with serving(store_root=str(tmp_path / "store")) as client:
            with parked_until(client, coalesced=8):
                results = post_concurrently(
                    client,
                    [
                        ("/sweep", {"scenario": SCENARIO,
                                    "seed_start": start, "seed_count": 16})
                        for start in (0, 8)
                    ],
                )
            assert [status for status, _, _ in results] == [200, 200]
            low, high = (sweep_lines(raw) for _, _, raw in results)
            assert sorted(low) == list(range(16))
            assert sorted(high) == list(range(8, 24))
            assert all(low[seed] == high[seed] for seed in range(8, 16))
            assert client.server.store.stores == 24

    def test_mixed_overlapping_traffic_stress(self, tmp_path):
        # More clients than cores and a short switch interval: sweeps
        # over overlapping ranges and single runs race for the same
        # keys.  A lost flight update would compute a key twice (or
        # hang a follower past the join timeout).
        requests = [
            ("/sweep", {"scenario": SCENARIO, "seed_start": 4 * k,
                        "seed_count": 12})
            for k in range(4)
        ] + [("/run", {"scenario": SCENARIO, "seed": s}) for s in (2, 9, 13)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with serving(store_root=str(tmp_path / "store")) as client:
                results = post_concurrently(client, requests)
                stores = client.server.store.stores
        finally:
            sys.setswitchinterval(interval)
        assert all(result is not None for result in results)
        assert [status for status, _, _ in results] == [200] * len(requests)
        bodies = {}
        for (path, payload), (_, _, raw) in zip(requests, results):
            if path == "/run":
                lines = {payload["seed"]: raw}
            else:
                lines = sweep_lines(raw)
            for seed, line in lines.items():
                assert bodies.setdefault(seed, line) == line
        assert sorted(bodies) == list(range(24))
        assert stores == 24

    def test_follower_does_not_inherit_leader_deadline(self, tmp_path):
        # A /run with a short deadline leads seed 5 and times out queued
        # for the simulation slot; the deadline-free sweep following it
        # must resolve seed 5 itself, not end in the /run's 504.
        server_kwargs = {"store_root": str(tmp_path / "store")}
        with serving(**server_kwargs) as client:
            server = client.server
            server._work_lock.acquire()
            results = {}

            def send(name, path, payload):
                results[name] = client.request("POST", path, payload)

            run = threading.Thread(target=send, args=(
                "run", "/run",
                {"scenario": SCENARIO, "seed": 5, "deadline_s": 0.5},
            ))
            sweep = threading.Thread(target=send, args=(
                "sweep", "/sweep",
                {"scenario": SCENARIO, "seed_start": 0, "seed_count": 8},
            ))
            try:
                run.start()
                stop = time.monotonic() + 10.0
                while not server.flights._flights and time.monotonic() < stop:
                    time.sleep(0.005)
                sweep.start()
                while server.flights.coalesced < 1 and time.monotonic() < stop:
                    time.sleep(0.005)
                run.join(timeout=30)
            finally:
                server._work_lock.release()
            sweep.join(timeout=60)
            assert not run.is_alive() and not sweep.is_alive()
            assert results["run"][0] == 504
            status, _, raw = results["sweep"]
            assert status == 200
            assert sorted(sweep_lines(raw)) == list(range(8))
            assert server.store.stores == 8
