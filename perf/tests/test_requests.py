"""Request generation is a pure function of the seed."""

import json

import pytest

from ledger.requests import (
    CATALOGUE_SIZE,
    WORKLOADS,
    catalogue,
    prefill_requests,
    round_requests,
)

ROUNDS = range(0, 6)


def _dump(seed):
    return json.dumps(
        {name: [round_requests(w, seed, r) for r in ROUNDS] for name, w in WORKLOADS.items()},
        sort_keys=True,
    )


def test_same_seed_gives_byte_identical_request_lists():
    assert _dump(7) == _dump(7)


def test_different_seed_gives_different_request_lists():
    assert _dump(7) != _dump(8)
    for name, workload in WORKLOADS.items():
        assert round_requests(workload, 7, 1) != round_requests(workload, 8, 1), name


def test_no_cold_request_repeats_a_config_seed_pair():
    seen = set()
    for workload in WORKLOADS.values():
        if not workload.cold:
            continue
        for r in ROUNDS:
            for request in round_requests(workload, 3, r):
                for job in request["jobs"]:
                    # Point seeds derive from (job seed, position), so a
                    # fresh job seed per workload is a fresh pair per point.
                    pair = (job["workload"], job["seed"])
                    assert pair not in seen
                    seen.add(pair)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_round_length_is_fixed(name):
    workload = WORKLOADS[name]
    for r in ROUNDS:
        assert len(round_requests(workload, 0, r)) == workload.round_requests


def test_warm_batch_draws_only_from_the_prefilled_catalogue():
    entries = catalogue(5)
    assert len(entries) == CATALOGUE_SIZE
    keys = {json.dumps(job, sort_keys=True) for job in entries}
    assert len(keys) == CATALOGUE_SIZE  # all distinct
    prefilled = {
        json.dumps(job, sort_keys=True)
        for request in prefill_requests(5)
        for job in request["jobs"]
    }
    assert prefilled == keys
    for request in round_requests(WORKLOADS["warm_batch"], 5, 1):
        assert len(request["jobs"]) == 64
        assert all(json.dumps(job, sort_keys=True) in keys for job in request["jobs"])
