"""Kept only for the benchmark's ``unpublish_shared_library`` import.

Nothing is shared between processes: every spawned pool worker
enumerates the exact rewrite tables itself in its initializer
(:func:`~repro.rewriting.library.warm_worker`).  Delete this module
together with the import in ``perfbench/workloads.py``.
"""

from __future__ import annotations

__all__ = ["unpublish_shared_library"]


def unpublish_shared_library() -> None:
    """No-op."""
