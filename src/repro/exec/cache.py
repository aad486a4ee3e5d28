"""Content-addressed, multi-tenant on-disk store of simulation results.

A cache entry's address is ``sha256(fingerprint + point.key())`` where
the fingerprint hashes the entire ``repro`` source tree.  Any source
change — a model constant, a collective algorithm, the engine itself —
therefore invalidates every entry automatically: stale results can never
be served.

Entries are pickled :class:`~repro.exec.worker.PointRecord` objects
stored under ``.repro_cache/<fp-16-hex>/<2-hex>/<64-hex>.pkl``: the
first level is the *generation* directory (a prefix of the source
fingerprint), the rest shards entries to keep directories small.
Grouping a generation under one directory is what makes the store
multi-tenant-manageable: :meth:`ResultCache.gc` can sweep every stale
generation in one pass without touching the live one, even while other
tenants (concurrent harness runs, service worker threads, fleet
subprocesses) keep reading and writing.

Integrity comes from the write protocol alone: each writer pickles into
its own ``mkstemp`` file in the entry's shard directory, then moves it
onto the entry with ``os.replace``.  A reader sees either no entry or
one complete entry, and concurrent writers of the same entry simply
replace one complete file with another.  ``gc`` does not coordinate
with writers: one run from an edited source tree sweeps the generation
other tenants still write to, possibly between a write's ``mkdir`` and
its rename, so a write that finds its directory gone remakes it and
retries once.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
from pathlib import Path

from ..config import DEFAULT_CACHE_DIR
from ..imb import fastpath
from .points import SimPoint

#: Bump when the on-disk record layout changes incompatibly.
#: v2: entries live under per-generation (fingerprint-prefix)
#: directories so the store is GC-able per source generation.
CACHE_FORMAT = 2

#: Hex chars of the fingerprint naming a generation directory.
GENERATION_PREFIX = 16

_fingerprint_memo: dict[str, str] = {}


def source_fingerprint(root: str | os.PathLike | None = None) -> str:
    """Hash of every ``*.py`` file under the ``repro`` package.

    The digest covers relative paths and file contents, so renames,
    edits, additions and deletions all change it.  Memoised per root —
    the tree is only read once per process.
    """
    if root is None:
        root = Path(__file__).resolve().parent.parent  # src/repro
    root = Path(root)
    memo_key = str(root)
    cached = _fingerprint_memo.get(memo_key)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(f"format={CACHE_FORMAT}".encode())
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if "__pycache__" in rel:
            continue
        h.update(rel.encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    digest = h.hexdigest()
    _fingerprint_memo[memo_key] = digest
    return digest


class ResultCache:
    """Content-addressed store mapping :class:`SimPoint` -> result record."""

    def __init__(self, root: str | os.PathLike = DEFAULT_CACHE_DIR,
                 fingerprint: str | None = None) -> None:
        self.root = Path(root)
        self.fingerprint = fingerprint or source_fingerprint()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    @property
    def generation_dir(self) -> Path:
        """This source generation's directory within the store."""
        return self.root / self.fingerprint[:GENERATION_PREFIX]

    def _path(self, point: SimPoint) -> Path:
        # The macro fast-path salts the address so approximate and exact
        # results never alias.
        blob = self.fingerprint + "\n" + fastpath.salt(point.key())
        digest = hashlib.sha256(blob.encode()).hexdigest()
        return self.generation_dir / digest[:2] / f"{digest}.pkl"

    def get(self, point: SimPoint):
        """Return the cached record for ``point``, or ``None`` on a miss."""
        path = self._path(point)
        try:
            with path.open("rb") as fh:
                record = pickle.load(fh)
        except Exception:  # unreadable or corrupt entry: a counted miss
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, point: SimPoint, record) -> None:
        """Store ``record`` for ``point`` (atomic tempfile + rename)."""
        path = self._path(point)
        # Overwrite unconditionally: an existing entry at this address is
        # either identical content (same address => same inputs) or a
        # pre-observability record being upgraded with comm/timeline data.
        try:
            self._write(path, record)
        except FileNotFoundError:
            # A concurrent ``gc`` swept the generation after the mkdir.
            self._write(path, record)
        self.stores += 1

    def _write(self, path: Path, record) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(record, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> None:
        """Delete the entire cache directory (every generation)."""
        if self.root.exists():
            shutil.rmtree(self.root)

    # -- multi-tenant maintenance ------------------------------------------

    def generations(self) -> list[str]:
        """Generation directory names currently present in the store."""
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir()
                      if p.is_dir() and len(p.name) == GENERATION_PREFIX)

    def gc(self, *, keep_current: bool = True) -> dict:
        """Sweep stale generations; returns ``{removed, kept, bytes}``.

        A generation is stale when its directory name is not the current
        fingerprint prefix.  With ``keep_current=False`` the live
        generation is swept too (equivalent to :meth:`clear`, but
        per-generation and reported).
        """
        current = self.fingerprint[:GENERATION_PREFIX]
        removed, kept, freed = [], [], 0
        for name in self.generations():
            gen = self.root / name
            if keep_current and name == current:
                kept.append(name)
                continue
            freed += sum(f.stat().st_size for f in gen.rglob("*")
                         if f.is_file())
            shutil.rmtree(gen, ignore_errors=True)
            removed.append(name)
        return {"removed": removed, "kept": kept, "bytes": freed}

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ResultCache {self.root} hits={self.hits} "
                f"misses={self.misses}>")
