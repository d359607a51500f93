"""Names, units and the median/IQR helpers."""

import json
import os
import re
import statistics

import pytest

from ledger import REPO_ROOT, metrics, report
from ledger.measure import Round
from ledger.requests import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def contract():
    return report.load_benchmark(REPO_ROOT)


def _round(index, traced, jobs=4):
    spans = []
    if traced:
        for rid in range(2):
            t = float(rid)
            spans += [
                (rid, "serve.client.submit", "request", t, t + 0.001),
                (rid, "serve.client.poll", "serve.client.wait", t + 0.001, t + 0.002),
                (rid, "serve.client.fetch", "serve.client.wait", t + 0.022, t + 0.023),
                (rid, "serve.client.wait", "request", t + 0.001, t + 0.023),
                (rid, "verify", "request", t + 0.023, t + 0.024),
                (rid, "request", None, t, t + 0.025),
            ]
    return Round(
        index=index, traced=traced, requests=2, jobs=jobs, points=jobs, wall_s=0.05,
        cpu_s=0.02, latencies_s=[0.025, 0.025], failures=[],
        point_wall_s=0.02, point_setup_s=0.001, point_execute_s=0.019,
        request_point_wall_s=[0.01, 0.01], events=100, messages=50, bytes=800.0,
        virtual_time_s=0.5, stats_digest="d", first_request_stats=[[1]],
        stats_delta={"points_total": jobs, "cache_hits": 0, "coalesced": 0,
                     "scheduled": jobs, "jobs_evicted": 0, "requests_served": 6,
                     "requests_reused": 6},
        spans=spans, response_bytes=1000 if traced else 0,
    )


def test_benchmark_json_names_and_units_are_well_formed(contract):
    names = [w["name"] for w in contract["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for spec in contract[group]:
            names.append(spec["name"])
            assert UNIT.fullmatch(spec["unit"]), spec
            assert spec["better"] in ("higher", "lower")
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert all(0 < spec["bound"] <= 0.25 for spec in contract["end_to_end"])
    assert "setup_s" in [spec["name"] for spec in contract["end_to_end"]]
    assert contract["paths"] == ["perf"]
    assert len(json.dumps(contract)) < 64 * 1024


def test_workloads_match_benchmark_json(contract):
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS.values())


def test_end_to_end_metric_names_match_benchmark_json(contract):
    measured = metrics.end_to_end([_round(1, False)], [1.0, 1.1, 1.2], 100.0)
    assert sorted(measured) == sorted(s["name"] for s in contract["end_to_end"])
    assert measured["jobs_per_s"]["value"] == pytest.approx(4 / 0.05)
    assert measured["setup_s"]["value"] == 1.1


def test_per_layer_metric_names_match_benchmark_json(contract, tmp_path):
    from ledger import layers
    from ledger.requests import catalogue

    replayed = layers.replay(
        [{"call": "run_batch", "jobs": catalogue(0)[:4]}], str(tmp_path)
    )
    measured = metrics.per_layer(
        [_round(1, False), _round(2, True)], replayed, round_trip_ms=0.2
    )
    assert sorted(measured) == sorted(s["name"] for s in contract["per_layer"])
    # request 25 ms = submit 1 + wait-before-fetch 21 + fetch 1 + verify 1
    # + 1 glue; the engine (10 ms) explains 10 of the 21 waited.
    assert measured["serve.client.wait_ms"]["value"] == pytest.approx(21.0)
    assert measured["serve.client.polls_per_job"]["value"] == pytest.approx(1.0)
    assert measured["trace.unattributed_share"]["value"] == pytest.approx(12 / 25)
    assert measured["serve.backends.busy_share"]["value"] == pytest.approx(0.4)


def test_median_and_iqr_helpers():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert metrics.median(values) == 3.5
    assert metrics.iqr(values) == q3 - q1
    assert metrics.iqr([2.0]) == 0.0
    assert metrics.percentile(list(range(1, 101)), 90) == 90
    assert metrics.percentile([3.0], 90) == 3.0
    record = metrics.sample(values)
    assert record["n"] == 6 and record["rounds"] == values


def _document(jobs_per_s, events=100):
    metric = lambda v: {"value": v, "iqr": 0.0, "n": 1, "rounds": [v]}  # noqa: E731
    return {"workloads": {"cold_small": {
        "failed": 0,
        "metrics": {"jobs_per_s": metric(jobs_per_s), "latency_p50_ms": metric(20.0),
                    "cpu_s_per_job": metric(0.01), "server_rss_mb": metric(100.0),
                    "setup_s": metric(1.0)},
        "exact": {"events": events},
    }}}


@pytest.mark.parametrize("b, expected", [
    (_document(41.0), 0),            # +2.5 %: inside the bound
    (_document(20.0), 1),            # -50 %: outside
    (_document(40.0, events=101), 1),  # an exact count moved at all
])
def test_compare_flags_out_of_bound_and_inexact_pairs(contract, tmp_path, capsys, b, expected):
    paths = []
    for label, document in (("a", _document(40.0)), ("b", b)):
        paths.append(os.path.join(tmp_path, f"{label}.json"))
        report.write_results(paths[-1], document)
    assert report.compare(paths[0], paths[1], contract) == expected
    assert "jobs_per_s" in capsys.readouterr().out
