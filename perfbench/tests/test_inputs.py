import pytest

import inputs


@pytest.mark.parametrize("workload", ["sweep-mixed", "large-team", "serve-mixed"])
def test_digest_is_a_function_of_the_seed(workload):
    assert inputs.digest(workload, 5) == inputs.digest(workload, 5)
    assert inputs.digest(workload, 5) != inputs.digest(workload, 6)


def test_sweep_blocks_cover_the_class_matrix():
    block = inputs.sweep_block(1, 0)
    cells = {(cell["workload"], cell["n"]) for cell, _ in block}
    assert len(cells) == len(inputs.SWEEP_FAMILIES) * len(inputs.SWEEP_SIZES)
    assert "gathered" not in {w for w, _ in cells}
    assert all(cell["f"] == cell["n"] - 1 for cell, _ in block)
    assert all(len(seeds) == inputs.SEEDS_PER_CELL for _, seeds in block)
    assert inputs.sweep_block(1, 1) != block


def test_large_team_alternates_families():
    stream = inputs.large_team_runs(3)
    runs = [next(stream) for _ in range(6)]
    assert [r[0]["workload"] for r in runs] == list(inputs.LARGE_FAMILIES) * 3
    assert all(r[0]["n"] == 64 and r[0]["f"] == 63 for r in runs)


def test_request_mix_fresh_keys_are_unique_and_one_in_ten():
    mix = inputs.RequestMix(2)
    requests = mix.take(5000)
    fresh = [r for r in requests if r.fresh]
    warm_keys = {r.key for r in mix.warm}
    assert len({r.key for r in fresh}) == len(fresh)
    assert not {r.key for r in fresh} & warm_keys
    assert all(r.key in warm_keys for r in requests if not r.fresh)
    for start in range(0, len(requests), inputs.FRESH_EVERY):
        stratum = requests[start : start + inputs.FRESH_EVERY]
        assert sum(r.fresh for r in stratum) == 1


def test_expected_verdicts_follow_theorem_5_1():
    assert inputs.expected_verdict("bivalent") == "impossible"
    for family in inputs.SWEEP_FAMILIES:
        if family != "bivalent":
            assert inputs.expected_verdict(family) == "gathered"
