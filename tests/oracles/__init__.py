"""Reference implementations the library is bit-checked against.

Each module here keeps the original, straightforward version of a stage
whose library implementation was later rebuilt for speed.  They are not
part of ``repro``: the test suite asserts the library equals them
property-based, and ``benchmarks/harness.py`` imports them for its
speed-ratio gates.

* :mod:`oracles.assembly` — concatenate + stable-argsort chunk assembly
  for every packet source (the library uses pooled buffers and merges);
* :mod:`oracles.groupby` — the argsort + ``reduceat`` group-by with
  sorted-union merges between chunks (the library uses the hash
  accumulator);
* :mod:`oracles.objectpath` — per-packet flow classification and the
  binned flow table over :class:`~repro.flows.packets.Packet` objects
  (the library accounts columnar chunks);
* :mod:`oracles.stream` — the stream fold with a per-chunk ``np.unique``
  over ``bin x group`` codes and sorted-union bin merges, scoring each
  stream with the loop oracle below (the library counts every stream in
  the truth engine's per-stream columns).
* :mod:`oracles.metrics` — the swapped-pair metrics as double loops over
  flow pairs, and ``reference_swapped_pair_counts``, the per-stream loop
  over top flows (the library scores every stream of a bin in one call,
  sorting and ``searchsorted`` for flows below the top list);
* :mod:`oracles.sweep` — the cell-by-cell sweep loop, one pipeline run
  per grid cell (the library runs the cells that differ only in their
  sampler in one pass of their source).
"""
