"""Content-addressed on-disk result cache.

Keys are blake2b digests over everything that can change a simulation's
outcome: the task description (device, model, scheme, batch, cluster
knobs), the fault plan, the device's calibration constants, the code
version and a digest of the package sources that compute payloads.
Changing any of those — recalibrating a device, editing the simulator,
tweaking a fault plan — yields a different key, so a stale cache
self-invalidates without any manual flushing or version bump.

The store is a directory of one JSON file per key under
``.repro-cache/objects/``.  It is *single-writer by construction*: only
the coordinating process (the one driving the engine) ever calls
:meth:`ResultCache.store`; worker processes just return payloads.
Writes go through a temporary file and ``os.replace`` so a crashed run
can leave at worst a stale temp file, never a torn object.  Corrupt or
truncated objects read back as misses, never as errors.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

from repro._version import __version__
from repro.gpu.device import get_device
from repro.runner.tasks import ExperimentTask

__all__ = ["CACHE_FORMAT_VERSION", "CacheCounters", "ResultCache",
           "source_digest", "task_key"]

# Bump when the payload layout changes; invalidates every existing key.
CACHE_FORMAT_VERSION = 1

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Package-relative paths that only present results (CLI, rendering) and
# never feed a payload; editing them keeps cached results valid.
_PRESENTATION = ("__main__.py", "cli.py", "report")


def source_digest(root: str = _PACKAGE_ROOT) -> str:
    """blake2b over every payload-computing ``.py`` source under ``root``
    (the ``repro`` package directory), in sorted path order."""
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            if (name.endswith(".py")
                    and rel.split(os.sep)[0] not in _PRESENTATION):
                paths.append(rel.replace(os.sep, "/"))
    digest = hashlib.blake2b(digest_size=16)
    for rel in sorted(paths):
        with open(os.path.join(root, rel), "rb") as handle:
            data = handle.read()
        digest.update(b"%s\0%d\0" % (rel.encode(), len(data)))
        digest.update(data)
    return digest.hexdigest()


@functools.lru_cache(maxsize=1)
def _package_digest() -> str:
    return source_digest()


def task_key(task: ExperimentTask) -> str:
    """The content-addressed cache key for ``task``.

    blake2b over a canonical JSON encoding of the task description, the
    device calibration constants, the code/cache-format versions and
    the :func:`source_digest` of this package (computed once per
    process).  The digest lives only in the key: reports never carry
    it, so they do not move when code changes.
    """
    material = {
        "cache_format": CACHE_FORMAT_VERSION,
        "code_version": __version__,
        "code_digest": _package_digest(),
        "task": task.describe(),
        "calibration": asdict(get_device(task.device)),
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


@dataclass
class CacheCounters:
    """What the cache did during one engine run."""

    hits: int = 0
    misses: int = 0
    writes: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for reports."""
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes}


class ResultCache:
    """Single-writer JSON object store under ``root``.

    ``read=False`` (the ``--no-cache`` path) bypasses lookups but still
    writes fresh results, so a forced re-run repopulates the store.
    """

    def __init__(self, root: str = ".repro-cache", read: bool = True,
                 write: bool = True) -> None:
        self.root = root
        self.read = read
        self.write = write
        self.counters = CacheCounters()

    @property
    def objects_dir(self) -> str:
        """Directory holding one JSON file per key."""
        return os.path.join(self.root, "objects")

    def _path(self, key: str) -> str:
        return os.path.join(self.objects_dir, f"{key}.json")

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` on a miss.

        A corrupt, truncated or wrong-shape object is a miss, not an
        error: the engine simply recomputes and overwrites it.
        """
        if not self.read:
            self.counters.misses += 1
            return None
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                obj = json.load(handle)
        except (OSError, ValueError):
            self.counters.misses += 1
            return None
        if (not isinstance(obj, dict) or obj.get("key") != key
                or "payload" not in obj):
            self.counters.misses += 1
            return None
        self.counters.hits += 1
        return obj["payload"]

    def store(self, key: str, task: ExperimentTask,
              payload: Dict[str, Any]) -> None:
        """Atomically persist ``payload`` under ``key``.

        Only the coordinating process calls this (single-writer); the
        task description rides along for debuggability.
        """
        if not self.write:
            return
        os.makedirs(self.objects_dir, exist_ok=True)
        obj = {"key": key, "cache_format": CACHE_FORMAT_VERSION,
               "code_version": __version__, "task": task.describe(),
               "payload": payload}
        fd, tmp = tempfile.mkstemp(dir=self.objects_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(obj, handle)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.counters.writes += 1

    def __repr__(self) -> str:
        return (f"<ResultCache {self.root!r} read={self.read} "
                f"write={self.write} {self.counters.as_dict()}>")
