"""Backend equivalence sweeps: numpy kernels == pure-Python reference.

The acceptance contract of the vectorized backend is *semantic
equivalence within the tolerance quantum*: every combinatorial artefact
derived from a configuration (cluster merge, support, multiplicities,
classification, safe points, symmetry, election order) must be
identical under both backends, and every numeric artefact (view radii
and angles, Weber points) must agree to within one quantization step.
Bitwise float equality is deliberately *not* asserted for views:
``np.arctan2``/``np.hypot`` may differ from ``math``'s libm by an ulp
depending on the SIMD path, and the tolerance model exists precisely to
absorb that.

Seeded sweeps rather than Hypothesis: the interesting inputs here are
the structured workload families (biangular, linear, multiplicities),
which the generators already produce; random floats from a strategy
would explore far less of the classification tower per example.
"""

import pytest

from repro.core.classification import classify
from repro.core.configuration import Configuration
from repro.core.election import elect, election_key
from repro.core.safe_points import (
    _max_ray_loads_python,
    all_max_ray_loads,
    max_ray_load,
    safe_points,
)
from repro.core.views import symmetry, view_table
from repro.geometry import DEFAULT_TOLERANCE, geometric_median, kernels
from repro.workloads import generate

pytestmark = pytest.mark.skipif(
    "numpy" not in kernels.available_backends(),
    reason="NumPy not importable in this environment",
)

# (workload, sizes): every classification branch plus scale.
SWEEP = [
    ("random", [5, 9, 16, 48]),
    ("asymmetric", [5, 9, 16, 48]),
    ("multiple", [5, 9, 16, 48]),
    ("linear-unique", [5, 9, 17, 49]),
    ("linear-interval", [6, 16, 48]),
    ("regular-polygon", [5, 8, 16, 48]),
    ("biangular", [6, 8, 16, 48]),
    ("near-bivalent", [6, 8, 16]),
    ("bivalent", [6, 8, 16]),
    ("unsafe-ray", [8, 16]),
    ("random", [256]),
]

CASES = [
    (workload, n, seed)
    for workload, sizes in SWEEP
    for n in sizes
    for seed in (1, 2)
]


def both_backends(pts):
    """The full derived tower of ``pts`` under each backend."""
    snapshots = {}
    for backend_name in ("python", "numpy"):
        with kernels.backend(backend_name):
            config = Configuration(pts)
            snapshots[backend_name] = {
                "points": config.points,
                "support": config.support,
                "mults": [config.mult(p) for p in config.support],
                "class": classify(config).name,
                "symmetry": symmetry(config),
                "ray_loads": (
                    all_max_ray_loads(config)
                    if backend_name == "numpy"
                    else [max_ray_load(config, p) for p in config.support]
                ),
                "safe": safe_points(config),
                "views": view_table(config),
                "keys": [election_key(config, p) for p in config.support],
            }
    return snapshots["python"], snapshots["numpy"]


@pytest.mark.parametrize("workload,n,seed", CASES)
def test_combinatorial_tower_identical(workload, n, seed):
    pts = generate(workload, n, seed)
    py, np_ = both_backends(pts)
    # The cluster merge is the root of everything downstream: both
    # backends must produce the same representative for every robot.
    assert py["points"] == np_["points"]
    assert py["support"] == np_["support"]
    assert py["mults"] == np_["mults"]
    assert py["class"] == np_["class"]
    assert py["symmetry"] == np_["symmetry"]
    assert py["ray_loads"] == np_["ray_loads"]
    assert py["safe"] == np_["safe"]


@pytest.mark.parametrize("workload,n,seed", CASES)
def test_views_within_one_quantum(workload, n, seed):
    pts = generate(workload, n, seed)
    py, np_ = both_backends(pts)
    tol = DEFAULT_TOLERANCE
    for p in py["support"]:
        va, vb = py["views"][p], np_["views"][p]
        assert len(va) == len(vb)
        for (ra, ta), (rb, tb) in zip(va, vb):
            assert abs(ra - rb) <= tol.eps_dist + 1e-15
            assert abs(ta - tb) <= tol.eps_angle + 1e-15


@pytest.mark.parametrize("workload,n,seed", CASES)
def test_election_order_agrees(workload, n, seed):
    pts = generate(workload, n, seed)
    py, np_ = both_backends(pts)
    tol = DEFAULT_TOLERANCE
    for ka, kb in zip(py["keys"], np_["keys"]):
        assert ka[0] == kb[0]
        # The distance sum is quantized before comparison; the two
        # summation orders may land on adjacent quanta at worst.
        assert abs(ka[1] - kb[1]) <= 2 * tol.eps_dist
    # The elected point itself must coincide on asymmetric inputs where
    # safe points exist (the case the algorithm relies on).
    with kernels.backend("python"):
        config = Configuration(pts)
        safe = safe_points(config)
        winner_py = elect(config, safe) if safe else None
    with kernels.backend("numpy"):
        config = Configuration(pts)
        safe = safe_points(config)
        winner_np = elect(config, safe) if safe else None
    assert winner_py == winner_np


@pytest.mark.parametrize(
    "workload,n,seed",
    [(w, n, s) for w, sizes in SWEEP[:7] for n in sizes[:2] for s in (1,)],
)
def test_weber_certificates_agree(workload, n, seed):
    pts = generate(workload, n, seed)
    with kernels.backend("python"):
        result_py = geometric_median(pts)
    with kernels.backend("numpy"):
        result_np = geometric_median(pts)
    assert result_py.certified == result_np.certified
    assert (
        result_py.point.distance_to(result_np.point)
        <= DEFAULT_TOLERANCE.eps_dist
    )


@pytest.mark.parametrize("scheduler", ["fsync", "random"])
def test_full_simulation_verdicts_agree(scheduler):
    """End-to-end: whole runs reach the same verdict on both backends.

    Round trajectories may diverge bitwise after many quantization
    steps, so the assertion is on the contract that matters: the
    verdict and the gathering outcome.
    """
    from repro.experiments.runner import Scenario, run_scenario

    scenario = Scenario(
        workload="asymmetric", n=9, f=2, scheduler=scheduler, max_rounds=5_000
    )
    with kernels.backend("python"):
        result_py = run_scenario(scenario, seed=3)
    with kernels.backend("numpy"):
        result_np = run_scenario(scenario, seed=3)
    assert result_py.verdict == result_np.verdict


@pytest.mark.parametrize(
    "workload,n,seed",
    [
        ("random", 9, 1),
        ("asymmetric", 16, 2),
        ("multiple", 8, 3),
        ("regular-polygon", 12, 1),
        ("unsafe-ray", 16, 2),
        ("near-bivalent", 8, 1),
    ],
)
def test_python_bulk_ray_loads_matches_reference(workload, n, seed):
    """The cached python bulk path == per-center ``max_ray_load``."""
    config = Configuration(generate(workload, n, seed))
    bulk = _max_ray_loads_python(config)
    reference = [
        max_ray_load(Configuration(config.points), p)
        for p in config.support
    ]
    assert bulk == reference
