"""Simulation-as-a-service demo: the job server end to end.

The HPCC testbeds were shared national resources -- many users asking
one machine room the same questions.  ``repro serve`` is that front
door: submit a machine+workload spec over HTTP, get the simulated
result back, and never pay for the same question twice.  This demo
boots a real server on an ephemeral loopback port, submits a tiny lu2d
sweep twice, and proves the second submission is answered entirely
from the content-addressed run cache -- bit-identical results, zero
recomputation.  It then brings up the v2 data plane: a **2-shard**
backend behind consistent-hash routing, driven by the pooled
keep-alive client pushing **batched** submissions -- and a DELETE
cancelling a job mid-flight.

It doubles as the CI smoke test: any assertion failure exits nonzero.

Run:  python examples/serve_demo.py
"""

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.serve import InProcessBackend, ShardedBackend, serve_in_thread
from repro.sweep import RunCache


def main() -> None:
    configs = [
        {"prows": 2, "pcols": 2, "n": 32},
        {"prows": 1, "pcols": 4, "n": 32},
    ]

    with tempfile.TemporaryDirectory(prefix="repro-serve-demo-") as tmp:
        cache = RunCache(os.path.join(tmp, "cache"))
        with serve_in_thread(backend=InProcessBackend(workers=2), cache=cache) as handle:
            client = handle.client()

            print("=" * 70)
            print(f"1. Server up at http://{handle.host}:{handle.port}")
            health = client.healthz()
            print(f"   /healthz: {health['status']}; workloads: "
                  f"{', '.join(health['workloads'])}")

            print("=" * 70)
            print("2. First submission: every point is fresh work")
            first = client.run("lu2d", configs, seed=3)
            assert first["state"] == "done", first
            assert first["dedupe"] == {"cache_hits": 0, "coalesced": 0, "scheduled": 2}
            for config, result in zip(configs, first["results"]):
                assert result["exact"], "distributed LU drifted from serial"
                print(f"   {config['prows']}x{config['pcols']} n={config['n']}: "
                      f"virtual {result['virtual_time_s']:.6f}s, "
                      f"{result['events']} events, exact={result['exact']}")

            print("=" * 70)
            print("3. Same submission again: answered from the cache")
            second = client.run("lu2d", configs, seed=3)
            assert second["state"] == "done", second
            assert second["dedupe"] == {"cache_hits": 2, "coalesced": 0, "scheduled": 0}
            assert second["results"] == first["results"], "cache replay drifted"
            print("   dedupe:", json.dumps(second["dedupe"]))
            print("   results bit-identical to the first run: True")

            print("=" * 70)
            print("4. /stats: the counters prove nothing was recomputed")
            stats = client.stats()
            assert stats["points_total"] == 4
            assert stats["scheduled"] == 2
            assert stats["cache_hits"] == 2
            assert stats["backend"]["completed"] == 2
            print(f"   points submitted: {stats['points_total']}, "
                  f"simulated: {stats['backend']['completed']}, "
                  f"cache hits: {stats['cache_hits']}")

        print("=" * 70)
        print("5. v2 data plane: 2 shards, keep-alive client, batched submits")
        backend = ShardedBackend(
            shards=2, factory=lambda i: InProcessBackend(workers=1)
        )
        cache2 = RunCache(os.path.join(tmp, "cache-sharded"))
        with serve_in_thread(backend=backend, cache=cache2) as handle:
            client = handle.client()  # pooled persistent connections

            # One held batch request carries several jobs out and every
            # result back; identical points coalesce onto one simulation
            # within the batch itself.
            specs = [
                {"workload": "lu2d", "configs": [c], "seed": 3} for c in configs
            ] + [{"workload": "lu2d", "configs": [configs[0]], "seed": 3}]
            payloads = client.run_batch(specs)
            assert [p["state"] for p in payloads] == ["done"] * 3
            deterministic = ("ranks", "n", "virtual_time_s", "events",
                             "messages", "bytes", "exact")
            assert [
                {k: r[k] for k in deterministic} for r in payloads[0]["results"]
            ] == [
                {k: r[k] for k in deterministic} for r in first["results"][:1]
            ], "sharded result drifted from the unsharded run"
            assert payloads[2]["dedupe"]["scheduled"] == 0, (
                "duplicate job in the batch was re-simulated"
            )

            # Cancellation: a submitted job can be revoked mid-flight.
            # submit() is the un-held form (the id comes back at once);
            # wait() is a held GET the server answers as the job settles.
            submitted = client.submit("lu2d", [{"prows": 4, "pcols": 1, "n": 48}])
            report = client.cancel(submitted["job_id"])
            final = client.wait(submitted["job_id"])
            assert final["state"] in ("cancelled", "done"), final

            stats = client.stats()
            by_shard = stats["backend"]["points_by_shard"]
            http = stats["http"]
            assert stats["backend"]["shards"] == 2
            assert sum(by_shard) >= 2
            assert http["requests_reused"] > 0, "keep-alive never reused"
            print(f"   batch of {len(specs)} jobs over one kept-alive "
                  f"connection; dedupe: "
                  f"{json.dumps(stats['batch'])}")
            print(f"   points by shard: {by_shard}; connections accepted: "
                  f"{http['connections_accepted']}, requests reused: "
                  f"{http['requests_reused']}")
            print(f"   cancelled {report['job_id']}: "
                  f"{report['cancelled_points']} point(s) revoked, "
                  f"final state: {final['state']}")

    print("=" * 70)
    print("serve demo OK")


if __name__ == "__main__":
    main()
