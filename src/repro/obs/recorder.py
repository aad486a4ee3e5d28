"""The per-point recorder protocol: metrics, commviz, timeline, energy.

Every per-point recorder observes one simulated point at a time and
travels home as a snapshot:

* :meth:`Recorder.child` makes the fresh, enabled instance a point runs
  under, routed to the point's phase;
* :meth:`Recorder.snapshot` turns it into a plain JSON-able dict (the
  value stored under the recorder's name in ``PointRecord.obs``);
* :meth:`Recorder.merge` folds one snapshot into the parent's recorder.
  Merges are commutative or run in a fixed input order, so serial,
  ``--jobs N`` and cache-warm sweeps produce byte-identical results;
* :attr:`Recorder.replay_cached` says whether a cached point's snapshot
  merges like a fresh one.  It is true for pure virtual-time facts
  (traffic, occupancy, joules), which a cache hit replays exactly, and
  false for host-side counts of work this run did not execute.

The phase cursor and the snapshot-merge helper live here once.  The
registry of recorder classes and the ambient lookup live in
:mod:`repro.obs.context`.
"""

from __future__ import annotations

import contextlib
from typing import Iterable, Iterator

#: Phase used when nothing more specific has been set.
DEFAULT_PHASE = "default"


class Recorder:
    """Base of the per-point recorders: phase cursor, child, merge helper.

    Subclasses set :attr:`name` (their key in the recorder registry and
    in ``PointRecord.obs``) and :attr:`replay_cached`, and implement
    :meth:`snapshot` and :meth:`merge`.  A recorder without phases (the
    metrics registry) simply never reads its cursor.
    """

    name = "?"
    replay_cached = False

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._phase_name = DEFAULT_PHASE

    # -- phase management ----------------------------------------------------

    def set_phase(self, name: str) -> str:
        """Route subsequent records to ``name``; returns the old phase."""
        previous, self._phase_name = self._phase_name, name
        return previous

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Scope a phase for a ``with`` block (a no-op when disabled)."""
        if not self.enabled:
            yield
            return
        previous = self.set_phase(name)
        try:
            yield
        finally:
            self.set_phase(previous)

    @property
    def current_phase(self) -> str:
        return self._phase_name

    # -- the protocol --------------------------------------------------------

    def child(self, phase: str) -> "Recorder":
        """A fresh enabled recorder of this type, routed to ``phase``."""
        rec = type(self)(enabled=True)
        rec.set_phase(phase)
        return rec

    def snapshot(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError

    def merge(self, snap: dict) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    @classmethod
    def merge_snapshots(cls, snaps: Iterable[dict]) -> dict:
        """Merge several snapshots into one (for worker fan-in)."""
        rec = cls(enabled=True)
        for snap in snaps:
            rec.merge(snap)
        return rec.snapshot()
