"""Integration: the archive -> replay -> verify reproducibility loop.

Two guarantees are pinned end to end:

* the **committed corpus** (``tests/corpus/*.json``) — traces of crashed
  runs recorded at the commit that introduced them — replays
  bit-identically on every backend, forever.  A failure here means a
  code change silently altered simulation semantics for archived
  executions.
* a **fresh archive** produced by ``run_batch`` failure archiving goes
  through the same loop: load, replay on both backends, verify
  invariants offline.

Known defects live in ``tests/corpus/known-defects/``, outside the
corpus glob: their traces replay bit-identically on the backend that
recorded them, and the lemma check they break is a strict xfail, so a
fix flips the test and the entry moves into the corpus proper.
"""

import glob
import os

import pytest

from repro.analysis import InvariantViolation, verify_trace
from repro.experiments.runner import Scenario, run_batch
from repro.geometry import kernels
from repro.sim.replay import load_trace, replay_trace

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))
#: linear-interval, n = 8, f = 7, random scheduler, random crashes,
#: random-stop, seed 114341012: the run gathers, but one round moves a
#: QR configuration to class A, which the lemma checkers forbid.
QR_TO_A = os.path.join(
    CORPUS_DIR, "known-defects", "linear-interval-qr-to-a.json"
)


@pytest.mark.parametrize(
    "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS]
)
def test_committed_corpus_replays_bit_identically(path):
    trace = load_trace(path)
    assert trace.meta is not None and trace.meta.scenario is not None
    # Corpus traces record crash-adversary runs; keep them that way.
    assert trace.meta.scenario["f"] > 0
    for backend in kernels.available_backends():
        report = replay_trace(trace, backend=backend, path=path)
        assert report.ok, report.describe()


@pytest.mark.parametrize(
    "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS]
)
def test_committed_corpus_satisfies_invariants_offline(path):
    trace = load_trace(path)
    if trace.meta is not None and trace.meta.engine == "async":
        # The invariant suite encodes ATOM class-transition lemmas,
        # which ASYNC interleavings legitimately violate; async corpus
        # entries are covered by the bit-identical replay test above.
        pytest.skip("async-engine trace: ATOM invariants do not apply")
    monitor = verify_trace(trace)
    assert monitor.rounds_checked == len(trace)


def test_known_defect_replays_bit_identically():
    trace = load_trace(QR_TO_A)
    assert trace.meta.scenario["frames"] == "random"
    report = replay_trace(trace, backend=trace.meta.backend, path=QR_TO_A)
    assert report.ok, report.describe()


@pytest.mark.xfail(
    raises=InvariantViolation,
    strict=True,
    reason="known defect: illegal class transition QR -> A",
)
def test_known_defect_satisfies_invariants():
    verify_trace(load_trace(QR_TO_A))


def test_corpus_is_nonempty():
    assert len(CORPUS) >= 3


def test_fresh_crash_archive_round_trip(tmp_path):
    """A run with crashes that fails is archived by run_batch and the
    archive replays bit-identically under both backends."""
    corpus = str(tmp_path / "archive")
    scenario = Scenario(
        workload="asymmetric",
        n=6,
        f=2,
        crashes="random",
        movement="random-stop",
        max_rounds=4,  # too few rounds to gather -> guaranteed failure
    )
    results = run_batch(scenario, [0], archive_dir=corpus)
    assert not results[0].gathered
    archived = os.listdir(corpus)
    assert len(archived) == 1
    trace = load_trace(os.path.join(corpus, archived[0]))
    assert trace.meta.scenario == scenario.to_dict()
    for backend in kernels.available_backends():
        report = replay_trace(trace, backend=backend)
        assert report.ok, report.describe()
