"""The sweep result cache: content addressing, hit/miss accounting,
and the invariant that caching never changes what ``run_sweep``
returns.

The error-propagation tests at the bottom pin the other half of the
runner's contract: a workload exception must surface to the caller
with the original traceback text -- serially and through the process
pool -- rather than hanging the sweep.
"""

import json
import os
import sys
import threading
from dataclasses import dataclass

import pytest

from repro.sweep import (
    SCHEMA_VERSION,
    CollectivesPoint,
    Lu2dPoint,
    RunCache,
    SweepPointError,
    batch_cache_keys,
    cache_key,
    lu2d_point,
    parse_age,
    run_sweep,
    sweep_seeds,
    workload_id,
)
from repro.sweep import cache as cache_module
from repro.sweep.cache import ENTRY_OVERHEAD_BYTES, BoundedLRU
from repro.util.errors import ConfigurationError

CONFIGS = [Lu2dPoint(2, 2, 32), Lu2dPoint(2, 4, 32)]

DETERMINISTIC_FIELDS = (
    "ranks", "n", "virtual_time_s", "events", "messages", "bytes", "exact",
)


def _deterministic(results):
    return [{k: r[k] for k in DETERMINISTIC_FIELDS} for r in results]


def _stats(hits, misses, mem_hits=0, mem_bytes=0):
    return {"hits": hits, "misses": misses, "mem_hits": mem_hits, "mem_bytes": mem_bytes}


def _tier_bytes(cache, keys):
    """What the memory tier charges for holding ``keys``' records."""
    return sum(
        os.path.getsize(os.path.join(cache.root, key[:2], f"{key}.json"))
        + ENTRY_OVERHEAD_BYTES
        for key in keys
    )


@dataclass(frozen=True)
class _Nested:
    """A config whose field is not a scalar."""

    shape: tuple


def _echo(config, seed):
    return {"config": config, "seed": seed}


def _none_result(config, seed):
    return None


def _unpicklable_to_json(config, seed):
    return object()  # not JSON-serialisable: must be skipped, not crash


class _Marker(Exception):
    pass


def _explode(config, seed):
    raise _Marker(f"workload exploded on {config!r}")


class TestCacheKey:
    def test_stable_and_sensitive(self):
        base = cache_key(_echo, "c0", 1)
        assert base == cache_key(_echo, "c0", 1)
        assert base != cache_key(_echo, "c1", 1)  # config changes key
        assert base != cache_key(_echo, "c0", 2)  # seed changes key
        assert base != cache_key(_none_result, "c0", 1)  # workload too

    def test_dataclass_configs_keyed_by_class_and_fields(self):
        a = cache_key(_echo, Lu2dPoint(2, 2, 32), 0)
        assert a == cache_key(_echo, Lu2dPoint(2, 2, 32), 0)
        assert a != cache_key(_echo, Lu2dPoint(2, 2, 48), 0)
        assert a != cache_key(_echo, Lu2dPoint(2, 2, 32, overlap=True), 0)

    def test_float_fields_keyed_exactly(self):
        assert cache_key(_echo, {"x": 0.1}, 0) != cache_key(_echo, {"x": 0.1 + 1e-17}, 0) or (
            0.1 == 0.1 + 1e-17  # adjacent floats may round to the same value
        )
        assert cache_key(_echo, {"x": 1.0}, 0) != cache_key(_echo, {"x": 1}, 0)

    def test_workload_id_is_importable_name(self):
        assert workload_id(lu2d_point) == "repro.sweep.workloads.lu2d_point"


class TestBatchCacheKeys:
    """``batch_cache_keys`` must be bit-identical to ``cache_key`` --
    the serving data plane's dedupe correctness hangs on it."""

    def test_matches_cache_key_exactly(self):
        # Hashable dataclass configs, including the default inf float
        # field (the canonical payload must render inf identically) and
        # repeats exercising the per-config memo.
        configs = [
            Lu2dPoint(2, 2, 32),
            Lu2dPoint(2, 4, 32),
            Lu2dPoint(2, 2, 32),  # repeated: served from the memo
            Lu2dPoint(2, 2, 32, eager_threshold_bytes=1024.0),
        ]
        seeds = sweep_seeds(7, len(configs))
        assert batch_cache_keys(lu2d_point, configs, seeds) == [
            cache_key(lu2d_point, c, s) for c, s in zip(configs, seeds)
        ]

    def test_matches_for_unhashable_configs(self):
        # Dict configs cannot be memoised; the fallback path must still
        # produce identical keys.
        configs = [{"x": 1, "y": [1, 2]}, {"x": float("inf")}, {"x": 1, "y": [1, 2]}]
        seeds = [10, 11, 12]
        assert batch_cache_keys(_echo, configs, seeds) == [
            cache_key(_echo, c, s) for c, s in zip(configs, seeds)
        ]

    def test_sort_keys_ordering_is_pinned(self):
        # The splice exploits the alphabetical payload ordering
        # config < schema < seed < workload.  If cache_key ever gains a
        # field that breaks that ordering, this must fail loudly.
        keys = ["config", "schema", "seed", "workload"]
        assert keys == sorted(keys)
        assert batch_cache_keys(_echo, ["c0"], [1]) == [cache_key(_echo, "c0", 1)]

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigurationError, match="one seed per config"):
            batch_cache_keys(_echo, ["c0", "c1"], [1])

    def test_empty_batch_is_empty(self):
        assert batch_cache_keys(_echo, [], []) == []

    #: Config pairs that compare and hash equal but tokenise apart.
    EQUAL_BUT_DISTINCT = [
        (CollectivesPoint(ranks=32), CollectivesPoint(ranks=32.0)),
        (CollectivesPoint(ranks=32, rounds=1), CollectivesPoint(ranks=32, rounds=True)),
        (
            Lu2dPoint(2, 2, 32, eager_threshold_bytes=0.0),
            Lu2dPoint(2, 2, 32, eager_threshold_bytes=-0.0),
        ),
        ((1, "x"), (1.0, "x")),
        (_Nested((1, 2)), _Nested((1.0, 2))),
    ]

    @pytest.mark.parametrize(
        "pair",
        EQUAL_BUT_DISTINCT,
        ids=["int-float", "int-bool", "zero-sign", "tuple", "nested-dataclass"],
    )
    def test_batch_keys_are_type_exact(self, pair):
        """The token memo must not conflate configs that are equal as
        values: within one batch, and across calls (the memo outlives
        a call), each key equals ``cache_key``'s."""
        a, b = pair
        assert a == b and hash(a) == hash(b)
        direct = [cache_key(_echo, c, 5) for c in (a, b)]
        assert direct[0] != direct[1]
        assert batch_cache_keys(_echo, [a, b], [5, 5]) == direct
        assert batch_cache_keys(_echo, [b], [5]) == direct[1:]
        assert batch_cache_keys(_echo, [a], [5]) == direct[:1]


class TestSweepSeeds:
    def test_repeat_calls_return_fresh_equal_lists(self):
        first = sweep_seeds(11, 3)
        first.append(-1)  # a caller's mutation must not reach the memo
        assert sweep_seeds(11, 3) == first[:3]
        assert sweep_seeds(11, 3) is not sweep_seeds(11, 3)

    def test_memo_is_type_exact(self):
        sweep_seeds(1, 2)
        with pytest.raises(TypeError):
            sweep_seeds(1.0, 2)  # SeedSequence rejects a float seed

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_seeds(0, -1)


class TestRunCache:
    def test_round_trip_and_counters(self, tmp_path):
        cache = RunCache(str(tmp_path / "rc"))
        key = cache_key(_echo, "c0", 5)
        sentinel = object()
        assert cache.get(key, sentinel) is sentinel
        cache.put(key, {"value": 12})
        assert cache.get(key) == {"value": 12}
        assert cache.stats() == _stats(1, 1, mem_bytes=_tier_bytes(cache, [key]))

    def test_cached_none_distinguished_from_miss(self, tmp_path):
        cache = RunCache(str(tmp_path / "rc"))
        key = cache_key(_none_result, "c0", 0)
        cache.put(key, None)
        sentinel = object()
        assert cache.get(key, sentinel) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = RunCache(str(tmp_path / "rc"))
        key = cache_key(_echo, "c0", 0)
        cache.put(key, 42)
        path = os.path.join(cache.root, key[:2], f"{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{truncated")
        sentinel = object()
        assert cache.get(key, sentinel) is sentinel
        # put() repairs it.
        cache.put(key, 42)
        assert cache.get(key) == 42

    def test_stale_schema_is_a_miss(self, tmp_path):
        cache = RunCache(str(tmp_path / "rc"))
        key = cache_key(_echo, "c0", 0)
        cache.put(key, 42)
        path = os.path.join(cache.root, key[:2], f"{key}.json")
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        assert record["schema"] == SCHEMA_VERSION
        record["schema"] = SCHEMA_VERSION - 1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        sentinel = object()
        assert cache.get(key, sentinel) is sentinel

    def test_unserialisable_result_silently_skipped(self, tmp_path):
        cache = RunCache(str(tmp_path / "rc"))
        key = cache_key(_unpicklable_to_json, "c0", 0)
        cache.put(key, object())
        sentinel = object()
        assert cache.get(key, sentinel) is sentinel


class TestMemoryTier:
    """The in-memory tier in front of the record files."""

    def test_filled_only_by_a_verified_read(self, tmp_path):
        cache = RunCache(str(tmp_path / "rc"))
        key = cache_key(_echo, "c0", 0)
        cache.put(key, {"value": 1})
        assert cache.stats()["mem_bytes"] == 0  # put does not fill it
        assert cache.get(key) == {"value": 1}  # a disk read does
        assert cache.get(key) == {"value": 1}
        assert cache.stats() == _stats(2, 0, mem_hits=1, mem_bytes=_tier_bytes(cache, [key]))

    def test_mutated_hit_does_not_change_the_next_hit(self, tmp_path):
        cache = RunCache(str(tmp_path / "rc"))
        key = cache_key(_echo, "c0", 0)
        cache.put(key, {"values": [1, 2]})
        from_disk = cache.get(key)
        from_disk["values"].append(3)
        from_memory = cache.get(key)
        assert from_memory == {"values": [1, 2]}
        from_memory["values"].clear()
        assert cache.get(key) == {"values": [1, 2]}
        assert cache.stats()["mem_hits"] == 2

    def test_get_after_put_returns_what_put_stored(self, tmp_path):
        cache = RunCache(str(tmp_path / "rc"))
        key = cache_key(_echo, "c0", 0)
        cache.put(key, "old")
        assert cache.get(key) == "old"
        assert cache.get(key) == "old"  # now held in memory
        cache.put(key, "new")
        assert cache.get(key) == "new"
        assert cache.get(key) == "new"

    def test_prune_leaves_no_hit_in_memory(self, tmp_path):
        cache = RunCache(str(tmp_path / "rc"))
        key = cache_key(_echo, "c0", 0)
        cache.put(key, 7)
        cache.get(key)
        assert cache.stats()["mem_bytes"] > 0
        cache.prune(older_than_s=0)
        assert cache.stats()["mem_bytes"] == 0
        sentinel = object()
        assert cache.get(key, sentinel) is sentinel
        assert cache.stats()["mem_hits"] == 0

    def test_prune_of_other_records_still_empties_memory(self, tmp_path):
        cache = RunCache(str(tmp_path / "rc"))
        key = cache_key(_echo, "c0", 0)
        cache.put(key, 7)
        cache.get(key)
        assert cache.prune(older_than_s=3600)["kept"] == 1
        assert cache.stats()["mem_bytes"] == 0
        assert cache.get(key) == 7  # re-read from disk, not from memory
        assert cache.stats()["mem_hits"] == 0

    def test_byte_bound_holds_with_lru_eviction(self, tmp_path, monkeypatch):
        root = str(tmp_path / "rc")
        keys = [cache_key(_echo, f"c{i}", i) for i in range(3)]
        writer = RunCache(root)
        for key in keys:
            writer.put(key, {"pad": "x" * 100})
        per_record = _tier_bytes(writer, keys[:1])
        assert _tier_bytes(writer, keys) == 3 * per_record
        monkeypatch.setattr(cache_module, "MEMORY_TIER_BYTES", 2 * per_record)
        cache = RunCache(root)
        cache.get(keys[0])
        cache.get(keys[1])
        cache.get(keys[0])  # memory hit: keys[1] is now least recent
        assert cache.stats() == _stats(3, 0, mem_hits=1, mem_bytes=2 * per_record)
        cache.get(keys[2])  # fills, evicting keys[1]
        assert cache.stats()["mem_bytes"] == 2 * per_record
        cache.get(keys[0])
        cache.get(keys[2])
        assert cache.stats()["mem_hits"] == 3
        cache.get(keys[1])  # evicted: read from disk again
        assert cache.stats() == _stats(7, 0, mem_hits=3, mem_bytes=2 * per_record)

    def test_record_larger_than_the_bound_is_not_held(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_TIER_BYTES", ENTRY_OVERHEAD_BYTES + 10)
        cache = RunCache(str(tmp_path / "rc"))
        key = cache_key(_echo, "c0", 0)
        cache.put(key, "a result longer than ten characters")
        assert cache.get(key) == cache.get(key)
        assert cache.stats() == _stats(2, 0)

    def test_parent_format_records_are_hits(self, tmp_path):
        """A record written as a plain ``json.dump`` of the schema-1
        layout (the on-disk format is unchanged) is a hit, then a
        memory hit."""
        cache = RunCache(str(tmp_path / "rc"))
        key = cache_key(_echo, "c0", 0)
        path = os.path.join(cache.root, key[:2], f"{key}.json")
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "key": key, "result": [1.5, None]}, fh)
        assert cache.get(key) == cache.get(key) == [1.5, None]
        assert cache.stats() == _stats(2, 0, mem_hits=1, mem_bytes=_tier_bytes(cache, [key]))

    @pytest.mark.parametrize("text", ["[1, 2]", "42", '{"schema": 1}'])
    def test_non_record_json_is_a_miss(self, tmp_path, text):
        cache = RunCache(str(tmp_path / "rc"))
        key = cache_key(_echo, "c0", 0)
        path = os.path.join(cache.root, key[:2], f"{key}.json")
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        sentinel = object()
        assert cache.get(key, sentinel) is sentinel
        assert cache.stats() == _stats(0, 1)


class TestBoundedLRU:
    def test_concurrent_use_keeps_the_byte_count(self):
        """Threads racing put/get/pop on a small bound: the charged
        bytes must still equal what is held, and stay in bound."""
        lru = BoundedLRU(limit=200, size=len)
        errors = []

        def hammer(worker):
            try:
                for i in range(2000):
                    key = (worker + i) % 13
                    lru.put(key, "x" * (1 + key * 5))
                    lru.get((key + 1) % 13)
                    if i % 7 == 0:
                        lru.pop((key + 2) % 13)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert lru.bytes == sum(len(v) for v in lru._data.values()) <= 200


class TestCacheManagement:
    def _populate(self, cache, n):
        keys = [cache_key(_echo, f"c{i}", i) for i in range(n)]
        for key in keys:
            cache.put(key, {"value": key[:4]})
        return keys

    def test_disk_stats_counts_entries_and_bytes(self, tmp_path):
        cache = RunCache(str(tmp_path / "rc"))
        assert cache.disk_stats()["entries"] == 0
        self._populate(cache, 3)
        stats = cache.disk_stats()
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        assert stats["schema_version"] == SCHEMA_VERSION
        assert stats["by_schema"] == {str(SCHEMA_VERSION): 3}
        assert stats["stale_entries"] == 0

    def test_disk_stats_flags_stale_and_corrupt(self, tmp_path):
        cache = RunCache(str(tmp_path / "rc"))
        keys = self._populate(cache, 3)
        stale_path = os.path.join(cache.root, keys[0][:2], f"{keys[0]}.json")
        with open(stale_path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        record["schema"] = SCHEMA_VERSION - 1
        with open(stale_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        corrupt_path = os.path.join(cache.root, keys[1][:2], f"{keys[1]}.json")
        with open(corrupt_path, "w", encoding="utf-8") as fh:
            fh.write("{nope")
        stats = cache.disk_stats()
        assert stats["entries"] == 3
        assert stats["stale_entries"] == 2
        assert stats["by_schema"]["corrupt"] == 1

    def test_prune_all_then_empty(self, tmp_path):
        cache = RunCache(str(tmp_path / "rc"))
        keys = self._populate(cache, 4)
        report = cache.prune(older_than_s=0)
        assert report["removed"] == 4 and report["kept"] == 0
        assert report["bytes_freed"] > 0
        assert cache.disk_stats()["entries"] == 0
        # Shard dirs are cleaned up with their entries.
        assert os.listdir(cache.root) == []
        sentinel = object()
        assert cache.get(keys[0], sentinel) is sentinel

    def test_prune_respects_age_cutoff(self, tmp_path):
        cache = RunCache(str(tmp_path / "rc"))
        keys = self._populate(cache, 2)
        old_path = os.path.join(cache.root, keys[0][:2], f"{keys[0]}.json")
        os.utime(old_path, (1_000_000, 1_000_000))  # long ago
        report = cache.prune(older_than_s=3600)
        assert report == {
            "dir": cache.root, "removed": 1, "kept": 1,
            "bytes_freed": report["bytes_freed"],
        }
        assert cache.get(keys[1]) is not None

    def test_prune_missing_root_is_noop(self, tmp_path):
        cache = RunCache(str(tmp_path / "never-created"))
        assert cache.prune(0)["removed"] == 0


class TestParseAge:
    @pytest.mark.parametrize(
        "text,seconds",
        [("90", 90.0), ("2.5", 2.5), ("30s", 30.0), ("30m", 1800.0),
         ("12h", 43200.0), ("7d", 604800.0), ("1w", 604800.0), ("2D", 172800.0)],
    )
    def test_units(self, text, seconds):
        assert parse_age(text) == seconds

    @pytest.mark.parametrize("text", ["", "d7", "-3h", "3 hours", "h"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ConfigurationError):
            parse_age(text)


class TestRunSweepWithCache:
    def test_cached_sweep_returns_identical_results(self, tmp_path):
        cache = RunCache(str(tmp_path / "rc"))
        plain = run_sweep(CONFIGS, lu2d_point, workers=1, seed=3)
        first = run_sweep(CONFIGS, lu2d_point, workers=1, seed=3, cache=cache)
        assert cache.stats() == _stats(0, len(CONFIGS))
        second = run_sweep(CONFIGS, lu2d_point, workers=1, seed=3, cache=cache)
        keys = [
            cache_key(lu2d_point, c, s)
            for c, s in zip(CONFIGS, sweep_seeds(3, len(CONFIGS)))
        ]
        held = _tier_bytes(cache, keys)
        assert cache.stats() == _stats(len(CONFIGS), len(CONFIGS), mem_bytes=held)
        third = run_sweep(CONFIGS, lu2d_point, workers=1, seed=3, cache=cache)
        assert cache.stats() == _stats(
            2 * len(CONFIGS), len(CONFIGS), mem_hits=len(CONFIGS), mem_bytes=held
        )
        assert _deterministic(plain) == _deterministic(first)
        # The second pass is served verbatim from disk, the third from
        # the memory tier.
        assert second == first
        assert third == first

    def test_partial_hits_use_original_positional_seeds(self, tmp_path):
        cache = RunCache(str(tmp_path / "rc"))
        configs = ["c0", "c1", "c2", "c3"]
        # Pre-populate only the middle two points.
        seeds = sweep_seeds(9, 4)
        for i in (1, 2):
            cache.put(cache_key(_echo, configs[i], seeds[i]), "cached")
        out = run_sweep(configs, _echo, workers=1, seed=9, cache=cache)
        hit_keys = [cache_key(_echo, configs[i], seeds[i]) for i in (1, 2)]
        assert cache.stats() == _stats(2, 2, mem_bytes=_tier_bytes(cache, hit_keys))
        assert out[1] == out[2] == "cached"
        # The misses ran with the seeds their positions would have
        # received in an uncached sweep -- order fully preserved.
        assert out[0] == {"config": "c0", "seed": seeds[0]}
        assert out[3] == {"config": "c3", "seed": seeds[3]}

    def test_cached_none_results_round_trip(self, tmp_path):
        cache = RunCache(str(tmp_path / "rc"))
        out1 = run_sweep(["a", "b"], _none_result, workers=1, cache=cache)
        out2 = run_sweep(["a", "b"], _none_result, workers=1, cache=cache)
        assert out1 == out2 == [None, None]
        keys = [cache_key(_none_result, c, s) for c, s in zip("ab", sweep_seeds(0, 2))]
        assert cache.stats() == _stats(2, 2, mem_bytes=_tier_bytes(cache, keys))

    def test_seed_change_misses(self, tmp_path):
        cache = RunCache(str(tmp_path / "rc"))
        run_sweep(["a"], _echo, workers=1, seed=0, cache=cache)
        run_sweep(["a"], _echo, workers=1, seed=1, cache=cache)
        assert cache.stats() == _stats(0, 2)


class TestErrorPropagation:
    def test_serial_sweep_wraps_in_sweep_point_error(self):
        # The wrapper names the failing position and config; the
        # original exception stays chained for debuggers.
        with pytest.raises(SweepPointError, match="workload exploded on 'c0'") as excinfo:
            run_sweep(["c0", "c1"], _explode, workers=1)
        assert excinfo.value.index == 0
        assert excinfo.value.config_token == '"c0"'
        assert "sweep point 0" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, _Marker)

    def test_parallel_sweep_surfaces_point_error_and_does_not_hang(self):
        # Pool.map re-raises on the parent -- the sweep must fail fast,
        # not hang, and the wrapper must survive the pickle round trip
        # with its point attribution intact.
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(["c0", "c1"], _explode, workers=2)
        assert "workload exploded on" in str(excinfo.value)
        assert excinfo.value.index in (0, 1)
        assert excinfo.value.config_token in ('"c0"', '"c1"')

    def test_cached_miss_failure_names_original_position(self, tmp_path):
        # Only point 1 misses; its error must still carry position 1,
        # not its position within the miss batch.
        cache = RunCache(str(tmp_path / "rc"))
        seeds = sweep_seeds(0, 2)
        cache.put(cache_key(_explode, "c0", seeds[0]), "cached")
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(["c0", "c1"], _explode, workers=1, seed=0, cache=cache)
        assert excinfo.value.index == 1

    def test_parallel_sweep_with_cache_still_raises(self, tmp_path):
        cache = RunCache(str(tmp_path / "rc"))
        with pytest.raises(SweepPointError):
            run_sweep(["c0", "c1"], _explode, workers=2, cache=cache)
        assert cache.stats() == _stats(0, 2)

    def test_sweep_point_error_pickle_round_trip(self):
        import pickle

        err = SweepPointError("boom", index=3, config_token='{"n":32}')
        clone = pickle.loads(pickle.dumps(err))
        assert str(clone) == "boom"
        assert clone.index == 3
        assert clone.config_token == '{"n":32}'
