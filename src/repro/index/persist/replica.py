"""Read-only replica mode: N processes serving one on-disk v3 index.

A :class:`ReplicaIndex` wraps the packed view of the latest committed
generation and transparently delegates the whole index read surface to
it. Because attaching is O(1) and the manifest commit is atomic, any
number of replica processes can serve the same index files while a
writer keeps committing new generations:

* :meth:`ReplicaIndex.refresh` polls the manifest's generation counter
  (one indexed SQLite read) and, when a newer commit exists, attaches
  it and swaps the inner view in a single attribute assignment. A
  segment read in flight finishes against the old view; new reads see
  the new one. Every attribute is looked up on the view attached at
  that moment, so a request that spans the swap may read both
  generations. The swap never closes the old view: it is released (its
  mmaps unmapped) when the last read holding it drops it, and POSIX
  keeps the old generation's unlinked segment files readable until
  then.
* :class:`GenerationWatcher` runs that poll on a daemon thread, which is
  what ``repro serve --replica`` uses.

The swap changes ``index.version`` (the content fingerprint), so every
version-keyed cache above the index — score caches, collection views,
the service result store — invalidates by construction, and two
replicas attached to the same generation report identical versions.
"""

from __future__ import annotations

import logging
import threading
from pathlib import Path
from typing import Callable, Iterator

from repro.errors import IndexFormatError
from repro.index.persist.manifest import Manifest
from repro.obs.trace import event as obs_event
from repro.index.persist.packed import PackedShardedIndex, attach_packed

logger = logging.getLogger(__name__)

#: Default seconds between generation polls in watch mode.
DEFAULT_WATCH_INTERVAL = 2.0


class ReplicaIndex:
    """A packed index view that can follow new commits at runtime.

    Delegates every index attribute to the currently attached packed
    view; mutation attempts raise
    :class:`~repro.errors.ReadOnlyIndexError` exactly like the view
    itself. Construct one per serving process — the heavyweight state
    (mmaps, page cache) is shared between processes by the OS.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._manifest = Manifest.open(self._path)
        self._inner: PackedShardedIndex = self._attach()
        self._refresh_lock = threading.Lock()
        self._watcher: GenerationWatcher | None = None

    def _attach(self) -> PackedShardedIndex:
        """Attach the latest generation, absorbing one writer race.

        Between reading the generation row and opening its segments, a
        writer may commit and garbage-collect the generation we chose.
        One retry re-reads the (now newer) latest row; a second failure
        is a real corruption and propagates.
        """
        try:
            return attach_packed(self._path)
        except IndexFormatError:
            return attach_packed(self._path)

    # -- refresh -------------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    @property
    def generation(self) -> int:
        return self._inner.storage_info()["generation"]

    def refresh(self) -> bool:
        """Attach the newest committed generation if it changed.

        Returns True when a swap happened. Serialised by a lock so a
        watcher thread and an explicit caller cannot double-attach; the
        swap itself is one attribute assignment, safe against concurrent
        readers (a read holding the old view's segments finishes on
        them).
        """
        with self._refresh_lock:
            latest = self._manifest.latest_generation_number()
            if latest is None or latest == self.generation:
                return False
            previous = self.generation
            # The old view is not closed: a segment read still holding
            # it finishes on it, and it is released when the last of
            # them drops it.
            self._inner = self._attach()
            obs_event(
                "replica/swap", generation=self.generation, previous=previous
            )
            logger.info(
                "replica %s: attached generation %d (was %d)",
                self._path,
                self.generation,
                previous,
            )
            return True

    def watch(
        self,
        interval: float = DEFAULT_WATCH_INTERVAL,
        on_refresh: Callable[[int], None] | None = None,
    ) -> "GenerationWatcher":
        """Start (or return) the background generation watcher."""
        if self._watcher is None or not self._watcher.is_alive():
            self._watcher = GenerationWatcher(self, interval, on_refresh)
            self._watcher.start()
        return self._watcher

    def close(self) -> None:
        if self._watcher is not None:
            self._watcher.stop()
        self._inner.close()

    # -- delegation ----------------------------------------------------------

    def storage_info(self) -> dict:
        info = self._inner.storage_info()
        info["replica"] = True
        return info

    def __getattr__(self, name: str):
        # Only called for names not found on the replica itself: the
        # whole read surface (and the mutation methods, which raise
        # ReadOnlyIndexError in the packed view) falls through here.
        return getattr(object.__getattribute__(self, "_inner"), name)

    # Special methods bypass __getattr__; forward them explicitly.

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._inner

    def __len__(self) -> int:
        return len(self._inner)

    def __iter__(self) -> Iterator:
        return iter(self._inner)


class GenerationWatcher(threading.Thread):
    """Daemon thread that refreshes a replica when the writer commits."""

    def __init__(
        self,
        replica: ReplicaIndex,
        interval: float = DEFAULT_WATCH_INTERVAL,
        on_refresh: Callable[[int], None] | None = None,
    ):
        super().__init__(name="generation-watcher", daemon=True)
        self.replica = replica
        self.interval = interval
        self.on_refresh = on_refresh
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self.interval):
            try:
                if self.replica.refresh() and self.on_refresh is not None:
                    self.on_refresh(self.replica.generation)
            except IndexFormatError as error:
                # Transient mid-commit state or a vanished file: keep
                # serving the attached generation and retry next tick.
                logger.warning(
                    "replica %s: refresh failed, keeping generation %d: %s",
                    self.replica.path,
                    self.replica.generation,
                    error,
                )

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=self.interval + 1.0)
