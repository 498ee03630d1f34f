"""Run independent cells in worker processes, one per available core.

Suite cells each own their RNG substreams, so running them at the same
time, in any order, changes no bit of their results. Workers are forked:
each inherits the inputs that every cell reads (config and split) through
the pool's initializer, instead of receiving a pickled copy with every task.
Only a cell's own arguments and its result cross between processes. Results
come back in submission order.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Iterator
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

# the inputs every cell of the current pool reads; set once in each worker
_shared: tuple = ()


def available_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _install(shared: tuple) -> None:
    global _shared
    _shared = shared


def _call(fn: Callable, args: tuple):
    return fn(*_shared, *args)


def map_cells(fn: Callable, shared: tuple, cells: list[tuple],
              inline: bool = False) -> Iterator:
    """Yield ``fn(*shared, *args)`` for each ``args`` in ``cells``, in order.

    The cells run in ``min(available_cpus(), len(cells))`` forked worker
    processes; ``fn`` and each ``args`` must pickle. With ``inline``, with
    one worker, or where processes cannot be forked, they run in this
    process and no process starts. If a worker dies, every cell not
    finished by then yields the ``BrokenProcessPool`` error in place of its
    result. No worker outlives the iteration.
    """
    workers = min(available_cpus(), len(cells))
    if inline or workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        for args in cells:
            yield fn(*shared, *args)
        return
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_install, initargs=(shared,)) as pool:
        futures = [pool.submit(_call, fn, args) for args in cells]
        try:
            for future in futures:
                try:
                    yield future.result()
                except BrokenProcessPool as err:
                    yield err
        finally:
            # a caller that stops early must not wait for cells it dropped
            for future in futures:
                future.cancel()
