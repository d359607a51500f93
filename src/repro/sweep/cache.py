"""Content-addressed cache of sweep run results.

A sweep point is fully determined by ``(workload, config, seed)``: the
workload is a deterministic function, the config is a value object, and
the seed pins every RNG stream the simulation spawns.  So a stable hash
of those three identifies the *result* -- the same key on a later run
(or in an overlapping sweep) can be served from disk instead of
resimulated.

Keys are SHA-256 over a canonical JSON encoding of:

* a schema version (bump :data:`SCHEMA_VERSION` whenever the record
  layout or key recipe changes -- old entries then simply miss);
* the workload's identity (``module.qualname``, the importable name
  that also makes it picklable for the process pool);
* a canonical token of the config (dataclasses by field dict,
  containers recursively, primitives as-is, anything else by ``repr``);
* the integer seed.

Records are one JSON file per key under ``<root>/<key[:2]>/<key>.json``
(two-level fan-out keeps directories small), written atomically via
temp-file rename so a crashed run never leaves a truncated record.
Corrupt or unreadable entries are treated as misses and rewritten.

In front of the files sits a memory tier: the text of records a disk
read has verified (schema and key), bounded in bytes
(:data:`MEMORY_TIER_BYTES`) with least-recently-used eviction.  A
repeated ``get`` answers from it without opening a file, decoding a
fresh object each time exactly as a disk hit does.  ``put`` drops the
key's entry (the next ``get`` re-reads what was written) and ``prune``
empties the tier.  Records are deterministic per key, so an entry can
only go stale by a prune in another process, which costs nothing worse
than serving a result that process deleted.

Key derivation in the serving path is memoised as well: the canonical
token of a config is kept (bounded, :data:`TOKEN_MEMO_BYTES`) under a
*type-exact* key, because ``1``, ``1.0`` and ``True`` -- and ``0.0``
and ``-0.0`` -- compare and hash equal yet tokenise differently.

The cache deliberately does **not** hash the code version: the schema
version plus the deterministic engine (bit-identical results are an
invariant the test suite enforces across refactors) make results
stable, and `repro sweep --no-cache` or deleting ``.repro-cache/`` is
the escape hatch after a model-changing commit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import tempfile
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.util.errors import ConfigurationError

#: Bump to invalidate every existing cache entry (key recipe or record
#: layout changes).
SCHEMA_VERSION = 1

#: Bound on :class:`RunCache`'s memory tier: record text plus
#: :data:`ENTRY_OVERHEAD_BYTES` per entry.
MEMORY_TIER_BYTES = 4 << 20

#: Bound on the config-token memo behind :func:`batch_cache_keys`.
TOKEN_MEMO_BYTES = 1 << 20

#: What one memo entry costs beyond its payload (key string or tuple,
#: the ordered-dict node, the payload's object header), charged against
#: each memo's byte bound so many small entries cannot outgrow it.
ENTRY_OVERHEAD_BYTES = 256


class BoundedLRU:
    """A thread-safe map bounded by the summed ``size`` of its values.

    ``size(value)`` is charged on insertion; inserting past ``limit``
    evicts least-recently-used entries (``get`` refreshes recency) and
    a value larger than ``limit`` on its own is not kept at all.
    Values must not be ``None``, which ``get`` returns for a miss.
    """

    def __init__(self, limit: int, size: Callable[[Any], int]):
        self.limit = limit
        self._size = size
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        #: Summed ``size`` of the entries held.
        self.bytes = 0

    def get(self, key: Any) -> Any:
        """The value under ``key`` (now most recent), or ``None``."""
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key: Any, value: Any) -> None:
        size = self._size(value)
        with self._lock:
            self._discard(key)
            if size > self.limit:
                return
            self._data[key] = value
            self.bytes += size
            while self.bytes > self.limit:
                _, evicted = self._data.popitem(last=False)
                self.bytes -= self._size(evicted)

    def pop(self, key: Any) -> None:
        with self._lock:
            self._discard(key)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.bytes = 0

    def _discard(self, key: Any) -> None:
        old = self._data.pop(key, None)
        if old is not None:
            self.bytes -= self._size(old)



def _config_token(obj: Any) -> Any:
    """A JSON-stable token for a sweep config.

    Dataclasses flatten to ``{class_qualname, fields...}`` so two
    different config types with equal field dicts cannot collide;
    containers recurse; primitives pass through; everything else falls
    back to ``repr`` (stable for the value objects used in sweeps).
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        token: Dict[str, Any] = {
            "__class__": f"{type(obj).__module__}.{type(obj).__qualname__}"
        }
        for field in dataclasses.fields(obj):
            token[field.name] = _config_token(getattr(obj, field.name))
        return token
    if isinstance(obj, dict):
        return {str(k): _config_token(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_config_token(v) for v in obj]
    if isinstance(obj, float):
        # repr() round-trips floats exactly and renders inf/nan, which
        # plain JSON cannot.
        return f"float:{obj!r}"
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return f"repr:{obj!r}"


#: Types whose ``repr`` identifies a value exactly within its type.
_SCALARS = frozenset({int, float, str, bool, type(None)})


def _exact_key(obj: Any) -> Any:
    """A hashable key equal only for configs whose tokens are equal.

    Value equality is too coarse for the token memo: ``1 == 1.0 ==
    True`` and ``0.0 == -0.0`` hash alike but tokenise differently.  So
    every scalar is paired with its exact type and its ``repr``,
    sequences with their own type, dataclasses with their class and
    their fields' keys.  Any other value raises ``TypeError``; a config
    holding one is tokenised afresh on every call.
    """
    cls = type(obj)
    if cls in _SCALARS:
        return (cls, repr(obj))
    if cls is tuple or cls is list:
        return (cls, tuple([_exact_key(v) for v in obj]))
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"no exact memo key for {cls.__qualname__}")
    fields = dataclasses.fields(cls)
    return (cls, tuple([_exact_key(getattr(obj, f.name)) for f in fields]))


#: Canonical config tokens by :func:`_exact_key`, shared across calls.
#: An entry is charged twice its token: the key holds the values again.
_TOKEN_MEMO = BoundedLRU(
    TOKEN_MEMO_BYTES, lambda token: 2 * len(token) + ENTRY_OVERHEAD_BYTES
)


def _token_text(config: Any) -> str:
    """``config``'s canonical token serialised, memoised type-exactly."""
    try:
        key = _exact_key(config)
    except TypeError:
        key = None
    token = None if key is None else _TOKEN_MEMO.get(key)
    if token is None:
        token = json.dumps(_config_token(config), sort_keys=True, separators=(",", ":"))
        if key is not None:
            _TOKEN_MEMO.put(key, token)
    return token


def describe_config(config: Any, limit: int = 160) -> str:
    """A compact, canonical one-line rendering of a sweep config.

    The same token the cache key hashes, serialised and truncated --
    used by :class:`~repro.util.errors.SweepPointError` and job-server
    failure reports to name the failing point.
    """
    text = json.dumps(_config_token(config), sort_keys=True, separators=(",", ":"))
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text


_AGE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([smhdw]?)\s*$", re.IGNORECASE)

_AGE_UNITS = {"": 1.0, "s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def parse_age(text: str) -> float:
    """Parse a ``--older-than`` age like ``90``, ``30m``, ``12h``, ``7d``
    into seconds (bare numbers are seconds)."""
    match = _AGE_RE.match(str(text))
    if not match:
        raise ConfigurationError(
            f"bad age {text!r}: expected NUMBER[s|m|h|d|w], e.g. 3600, 30m, 7d"
        )
    value, unit = match.groups()
    return float(value) * _AGE_UNITS[unit.lower()]


def workload_id(workload: Callable) -> str:
    """The importable identity of a workload callable."""
    module = getattr(workload, "__module__", None) or "<unknown>"
    qualname = getattr(workload, "__qualname__", None) or getattr(
        workload, "__name__", repr(workload)
    )
    return f"{module}.{qualname}"


def cache_key(workload: Callable, config: Any, seed: int) -> str:
    """Content hash identifying one sweep point's result."""
    payload = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "workload": workload_id(workload),
            "config": _config_token(config),
            "seed": seed,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def batch_cache_keys(
    workload: Callable, configs: Sequence[Any], seeds: Sequence[int]
) -> List[str]:
    """All of one batch's cache keys in a single pass.

    Bit-identical to ``[cache_key(workload, c, s) for c, s in zip(...)]``
    (asserted in tests) but amortised for the serving hot path: the
    workload identity and the fixed parts of the canonical payload are
    rendered once per batch, each config's token comes from a memo
    shared across calls (keyed type-exactly, see :func:`_exact_key`),
    and only the per-point splice + SHA-256 remain per key.

    Relies on ``sort_keys`` ordering of the canonical payload --
    ``config < schema < seed < workload`` -- which is pinned by the
    equivalence test so the recipe cannot silently drift.
    """
    if len(configs) != len(seeds):
        raise ConfigurationError(
            f"batch_cache_keys needs one seed per config, "
            f"got {len(configs)} configs and {len(seeds)} seeds"
        )
    mid = f',"schema":{SCHEMA_VERSION},"seed":'
    tail = f',"workload":{json.dumps(workload_id(workload))}}}'
    keys: List[str] = []
    for config, seed in zip(configs, seeds):
        payload = f'{{"config":{_token_text(config)}{mid}{seed}{tail}'
        keys.append(hashlib.sha256(payload.encode("utf-8")).hexdigest())
    return keys


class RunCache:
    """Directory-backed result cache with hit/miss accounting, and a
    bounded memory tier of verified records in front of the files.

    ``get``/``put`` never raise on cache trouble: a corrupt entry is a
    miss, an unwritable or non-JSON result is silently not cached --
    the sweep's correctness never depends on the cache.
    """

    def __init__(self, root: str = ".repro-cache"):
        self.root = root
        self.hits = 0
        self.misses = 0
        #: Hits answered by the memory tier (a subset of ``hits``).
        self.mem_hits = 0
        #: Verified record text by key; see the module docstring.
        self._memory = BoundedLRU(
            MEMORY_TIER_BYTES, lambda text: len(text) + ENTRY_OVERHEAD_BYTES
        )

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def get(self, key: str, default: Any = None) -> Optional[Any]:
        """The cached result for ``key``, or ``default`` (counted as a
        miss).  Pass a sentinel default when cached ``None`` results
        must be distinguishable from misses."""
        text = self._memory.get(key)
        if text is not None:
            self.hits += 1
            self.mem_hits += 1
            return json.loads(text)["result"]
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                text = fh.read()
            record = json.loads(text)
            if (
                not isinstance(record, dict)
                or record.get("schema") != SCHEMA_VERSION
                or record.get("key") != key
            ):
                raise ValueError("stale or foreign cache record")
            result = record["result"]
        except (OSError, ValueError, KeyError):
            self.misses += 1
            return default
        self._memory.put(key, text)
        self.hits += 1
        return result

    def put(self, key: str, result: Any) -> None:
        """Store ``result`` (must be JSON-serialisable; silently skipped
        otherwise) atomically under ``key``."""
        self._memory.pop(key)
        record = {"schema": SCHEMA_VERSION, "key": key, "result": result}
        try:
            encoded = json.dumps(record)
        except (TypeError, ValueError):
            return
        path = self._path(key)
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(encoded)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "mem_hits": self.mem_hits,
            "mem_bytes": self._memory.bytes,
        }

    def entries(self) -> Iterator[Tuple[str, int, float]]:
        """Yield ``(path, size_bytes, mtime)`` for every stored record.

        In-progress ``.tmp`` files are skipped; a missing root yields
        nothing.  Entries that vanish mid-walk (a concurrent prune) are
        silently dropped.
        """
        try:
            shards = sorted(os.listdir(self.root))
        except OSError:
            return
        for shard in shards:
            directory = os.path.join(self.root, shard)
            try:
                names = sorted(os.listdir(directory))
            except OSError:
                continue
            for name in names:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(directory, name)
                try:
                    info = os.stat(path)
                except OSError:
                    continue
                yield path, info.st_size, info.st_mtime

    def disk_stats(self) -> Dict[str, Any]:
        """Summarise what is on disk: entry count, bytes, schema mix.

        ``stale_entries`` counts records whose stored schema differs
        from the current :data:`SCHEMA_VERSION` (they would miss on
        read and are prime pruning candidates).
        """
        entries = 0
        total_bytes = 0
        by_schema: Dict[str, int] = {}
        for path, size, _ in self.entries():
            entries += 1
            total_bytes += size
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    schema = json.load(fh).get("schema")
            except (OSError, ValueError):
                schema = "corrupt"
            key = str(schema)
            by_schema[key] = by_schema.get(key, 0) + 1
        stale = sum(
            count
            for schema, count in by_schema.items()
            if schema != str(SCHEMA_VERSION)
        )
        return {
            "dir": self.root,
            "entries": entries,
            "bytes": total_bytes,
            "schema_version": SCHEMA_VERSION,
            "by_schema": by_schema,
            "stale_entries": stale,
        }

    def prune(self, older_than_s: float = 0.0, now: Optional[float] = None) -> Dict[str, Any]:
        """Delete records not touched in the last ``older_than_s``
        seconds (``0`` empties the cache); returns removal counts.
        The memory tier is emptied whatever the age.

        Emptied shard directories are removed too, so a fully pruned
        cache leaves only its root behind.
        """
        self._memory.clear()
        if now is None:
            now = time.time()
        cutoff = now - older_than_s
        removed = kept = 0
        bytes_freed = 0
        for path, size, mtime in self.entries():
            if mtime <= cutoff:
                try:
                    os.unlink(path)
                except OSError:
                    kept += 1
                    continue
                removed += 1
                bytes_freed += size
            else:
                kept += 1
        try:
            for shard in os.listdir(self.root):
                directory = os.path.join(self.root, shard)
                try:
                    os.rmdir(directory)  # only succeeds when empty
                except OSError:
                    pass
        except OSError:
            pass
        return {
            "dir": self.root,
            "removed": removed,
            "kept": kept,
            "bytes_freed": bytes_freed,
        }
