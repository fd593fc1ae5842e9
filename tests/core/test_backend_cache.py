"""Regression: configuration memos must not survive a backend switch.

``Configuration._cache`` holds everything the classification tower
memoizes (ray loads, safe points, views, Weber points).  Those values
are computed by whichever kernel backend is active at first call; the
two backends agree to tolerance but not necessarily to the bit, so a
memo warmed under one backend leaking into a run under the other would
silently break bit-reproducibility — exactly the situation of
``repro check --backend both`` replaying one shared trace, or a live
engine's configuration cache spanning a ``REPRO_BACKEND`` flip.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core import Configuration, classify, safe_points
from repro.core.safe_points import all_max_ray_loads
from repro.experiments.runner import Scenario, run_scenario
from repro.geometry import kernels
from repro.resilience.journal import result_to_dict
from repro.workloads import generate

pytestmark = pytest.mark.skipif(
    "numpy" not in kernels.available_backends(),
    reason="needs both kernel backends to switch between",
)

# Big enough that kernels.enabled_for() is true and the numpy paths run.
POINTS = generate("asymmetric", 12, seed=3)


class TestMemoInvalidation:
    def test_flip_clears_warm_memos(self):
        config = Configuration(POINTS)
        with kernels.backend("python"):
            safe_points(config)
            assert config.memo_get("safe_points") is not None
            assert config.memo_get("ray_loads") is not None
        with kernels.backend("numpy"):
            # The python-backend memos must be gone, not served stale.
            assert config.memo_get("safe_points") is None
            assert config.memo_get("ray_loads") is None

    def test_flipped_config_matches_fresh_config_bitwise(self):
        config = Configuration(POINTS)
        with kernels.backend("python"):
            safe_points(config)
            classify(config)
        with kernels.backend("numpy"):
            # A config whose memos were warmed under python, then
            # flipped, must produce exactly what a fresh config computes
            # under numpy.
            fresh = Configuration(POINTS)
            assert safe_points(config) == safe_points(fresh)
            assert all_max_ray_loads(config) == all_max_ray_loads(fresh)
            assert classify(config) == classify(fresh)

    def test_memo_survives_within_one_backend(self):
        # The invalidation must not break memoization itself.
        config = Configuration(POINTS)
        with kernels.backend("python"):
            sentinel = object()
            config.memo("probe", lambda: sentinel)
            assert config.memo("probe", lambda: object()) is sentinel


class TestRunLevelBitIdentity:
    """Flipping REPRO_BACKEND between runs in one process must give the
    same bits as fresh processes pinned to each backend."""

    SCENARIO = Scenario(
        workload="asymmetric",
        n=12,
        f=1,
        scheduler="round-robin",
        crashes="after-move",
        movement="rigid",
        max_rounds=2_000,
    )

    def _fresh_process_result(self, backend: str) -> dict:
        code = (
            "import json, sys\n"
            "from repro.experiments.runner import Scenario, run_scenario\n"
            "from repro.resilience.journal import result_to_dict\n"
            f"scenario = Scenario.from_dict({self.SCENARIO.to_dict()!r})\n"
            "result = run_scenario(scenario, 0)\n"
            "print(json.dumps(result_to_dict(result)))\n"
        )
        env = dict(os.environ, REPRO_BACKEND=backend)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_backend_flips_match_fresh_processes(self):
        flipped = {}
        # One process, alternating backends — the exact pattern that PR
        # 6's memo caches could poison across the switch.
        for backend in ("python", "numpy", "python", "numpy"):
            with kernels.backend(backend):
                flipped[backend] = result_to_dict(
                    run_scenario(self.SCENARIO, 0)
                )
        for backend in ("python", "numpy"):
            assert flipped[backend] == self._fresh_process_result(backend), (
                f"in-process {backend} run after backend flips diverged "
                f"from a fresh {backend}-pinned process"
            )
