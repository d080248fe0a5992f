"""Reference sweep: the cell-by-cell orchestrator loop.

:func:`reference_run_sweep` is the original body of
:func:`repro.sweep.run_sweep`.  It walks the grid in order, checks the
store before each cell, executes each miss on its own through
:meth:`RunSpec.execute <repro.store.RunSpec.execute>` and stores it
before it moves on, so every cell synthesises, expands and accounts its
source again.  The library runs the misses that differ only in their
sampler in one source pass; the test suite checks that the two execute
the same cells, report the same keys and progress events, and store the
same results.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.store import RunSpec, RunStore
from repro.sweep import SweepGrid, SweepReport


def reference_run_sweep(
    grid: SweepGrid,
    store: RunStore,
    *,
    parallel: str | bool | int | None = "auto",
    jobs: int | None = None,
    max_cells: int | None = None,
    progress: Callable[[str, int, int, RunSpec], None] | None = None,
) -> SweepReport:
    """Execute the grid's misses one cell at a time, in grid order.

    Takes the arguments of :func:`repro.sweep.run_sweep` and fills the
    same report, except ``passes``, which has no meaning here.
    """
    cells = grid.cells()
    report = SweepReport(total=len(cells))
    for index, spec in enumerate(cells):
        if spec in store:
            if progress is not None:
                progress("hit", index, len(cells), spec)
            report.cached.append(store.key_of(spec))
            continue
        if max_cells is not None and len(report.executed) >= max_cells:
            report.interrupted = True
            break
        if progress is not None:
            progress("run", index, len(cells), spec)
        result = spec.execute(parallel=parallel, jobs=jobs)
        report.executed.append(store.put(spec, result))
    return report
