"""Spawned pool workers build their own exact rewrite tables.

Both spawned pools -- the partition ``ProcessExecutor`` and
``repro serve --workers N`` -- run :func:`~repro.rewriting.library.warm_worker`
as their initializer, so each worker enumerates the exact tables once
per pool lifetime.  The tables a warmed worker holds must be the ones
the parent enumerates.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from repro.rewriting.library import _enumerate_exact, default_library, warm_worker


def test_spawned_warm_worker_holds_the_parents_exact_tables() -> None:
    with ProcessPoolExecutor(
        max_workers=2, mp_context=get_context("spawn"), initializer=warm_worker
    ) as pool:
        # A worker's own process-wide library, pickled back as it stands.
        libraries = [future.result() for future in [pool.submit(default_library) for _ in range(2)]]
    for library in libraries:
        assert sorted(library._exact_by_arity) == [2, 3, 4]
        for num_vars in (2, 3, 4):
            reference = _enumerate_exact(num_vars, library.exact_gate_limit)
            assert library._exact_by_arity[num_vars] == reference
