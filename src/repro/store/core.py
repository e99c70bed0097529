"""`Store`: one root, one backend kind, a backend per namespace.

A :class:`Store` is the object ``--store-dir``/``--store-backend``
construct: it owns a root location and a backend kind and hands out
one backend per storage concern (``stage``, ``results``,
``datasets``, ``jobs``), each rooted at its own subdirectory — so a
single directory tree carries everything a service needs to survive a
restart::

    store/
      stage/     <fingerprint>.pkl        (stage cache)
      results/   <fingerprint>.json       (result envelopes)
      datasets/  <name>/{locations.csv,rentals.csv,meta.json}
      jobs/      <job id>.json            (job journal)

Per-namespace layouts are exactly what the pre-unification stores
wrote, so existing cache/results/datasets directories are adopted
unchanged when pointed at directly through the deprecated per-store
flags.  With the ``sharded`` backend each namespace fans its entries
out into digest-prefix shard directories; file contents stay
byte-identical.  Without a root the store is memory-backed with
identical semantics — the mode in-process test services use.

Policy (quotas, eviction, key encoding) is layered on by each
adapter's canonical namespace builder (``stage_namespace``,
``results_namespace``, ``datasets_namespace``, ``jobs_namespace``).
"""

from __future__ import annotations

import json
from pathlib import Path

from ..exceptions import StoreError
from .backend import BACKEND_KINDS, Backend, make_backend

#: Marker file recording a store tree's backend kind, so reopening the
#: tree without ``--store-backend`` adopts the right layout instead of
#: silently bifurcating into a second, mutually invisible one.
MARKER_NAME = "store.json"


class Store:
    """A per-namespace backend factory bound to one root and kind."""

    def __init__(
        self,
        root: str | Path | None = None,
        backend: str | None = None,
    ) -> None:
        self.root = Path(root) if root is not None else None
        recorded = self._read_marker()
        if backend is None:
            backend = recorded or ("dir" if root is not None else "memory")
        if backend not in BACKEND_KINDS:
            raise StoreError(
                f"unknown store backend {backend!r}; expected one of "
                f"{BACKEND_KINDS}"
            )
        if backend != "memory" and root is None:
            raise StoreError(
                f"the {backend!r} store backend needs a root directory"
            )
        if recorded is not None and backend != recorded:
            raise StoreError(
                f"store at {self.root} was created with the {recorded!r} "
                f"backend; refusing to open it as {backend!r} (the layouts "
                "are mutually invisible)"
            )
        self.backend_kind = backend
        if self.root is not None and recorded is None:
            self._write_marker()

    def _marker_path(self) -> Path:
        assert self.root is not None
        return self.root / MARKER_NAME

    def _read_marker(self) -> str | None:
        if self.root is None:
            return None
        try:
            payload = json.loads(self._marker_path().read_text())
        except (OSError, ValueError):
            return None
        kind = payload.get("backend") if isinstance(payload, dict) else None
        return kind if kind in BACKEND_KINDS else None

    def _write_marker(self) -> None:
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._marker_path().write_text(
                json.dumps({"type": "Store", "backend": self.backend_kind})
                + "\n"
            )
        except OSError:
            pass  # unwritable root fails later, with a better error

    def backend(self, name: str) -> Backend:
        """A backend of this store's kind rooted at ``<root>/<name>``.

        When the ``REPRO_FAULT_*`` environment variables describe a
        fault schedule (see :class:`~repro.resilience.faults.FaultConfig`),
        the backend is wrapped in a
        :class:`~repro.resilience.faults.FaultInjectingBackend` — the
        switch chaos tests flip to fault a real ``repro serve``
        subprocess without touching its code.
        """
        # The fault layer wraps this package's backends; importing it
        # here keeps the two packages loadable in either order.
        from ..resilience.faults import FaultConfig, FaultInjectingBackend

        backend = make_backend(
            self.backend_kind,
            None if self.root is None else self.root / name,
        )
        faults = FaultConfig.from_env()
        if faults is not None and faults.active:
            backend = FaultInjectingBackend(backend, faults)
        return backend
