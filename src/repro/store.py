"""Persistent, content-addressed store of pipeline results.

The paper's results are *grids*: ranking/detection quality swept over
sampling rate, flow definition, bin duration, scenario and seed.  Every
``repro run`` used to recompute its cell from scratch and discard the
output; this module gives runs a durable home so sweeps become
incremental.

Two pieces:

* :class:`RunSpec` — the canonical, fully-resolved description of one
  run (source spec, sampler specs, key policy, bins, seed, monitor
  settings).  Everything that determines the run's numbers is in the
  spec; everything that does not (chunk size, execution backend — both
  bit-identical by the executor's contracts) is deliberately *not*.
* :class:`RunStore` — a directory of JSON/NPZ artifacts keyed by
  :func:`store_key`, a stable hash of the canonical spec plus a
  code-version salt.  ``get``/``put``/``list``/``verify``/``gc`` cover
  the cache workflows; an ``index.jsonl`` journal makes listing cheap.

The cache-key contract
----------------------
``store_key(spec)`` hashes the JSON of ``spec.canonical().to_dict()``
with sorted keys, salted with :data:`STORE_SALT` (store format version
plus the library version).  Consequences:

* the same spec hashes identically in every process and for every
  dict-key or spec-argument ordering (``canonical_spec`` sorts spec
  kwargs, ``sort_keys`` sorts the JSON);
* changing **any** field that affects the numbers changes the key;
* results computed by a different library version are never reused —
  a version bump invalidates the cache rather than silently mixing
  numerics.

>>> spec = RunSpec(samplers=("bernoulli:rate=0.5",), trace="sprint:duration=120,scale=0.002",
...                num_runs=2, seed=0)
>>> spec.canonical() == RunSpec.from_dict(spec.to_dict()).canonical()
True
>>> store_key(spec) == store_key(spec.canonical())
True

Layout on disk::

    <root>/
      index.jsonl          # journal: one "\n" + {"key", "spec"} line per put
      index.json           # pre-journal index, read as its base until gc
      index.lock           # flock target: appends vs gc's compaction
      runs/<key>.json      # {"key", "salt", "spec", "result"}
      runs/<key>.npz       # large arrays, when array_format="npz"
      leases/<key>.json    # in-flight claim: {"key", "owner", "deadline"}

Leases are the distribution primitive: ``claim`` lets N uncoordinated
worker processes drain one sweep with no coordination channel beyond
this directory (see :mod:`repro.sweep`).  A lease is an *advisory*
claim with a deadline — completed artifacts always win over leases,
and an expired lease (a crashed worker) is reclaimable by anyone.

See ``docs/sweeps.md`` for the full contract and the resumable sweep
orchestrator built on top (:mod:`repro.sweep`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import operator
import os
import time
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path

try:  # POSIX-only; without it journal appends and gc are unserialised
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

import numpy as np

from . import __version__, telemetry
from .core.metrics import _checked_top_t
from .flows.accounting import _checked_max_flows
from .pipeline.pipeline import Pipeline, _run_pipelines
from .pipeline.result import PipelineResult
from .spec import canonical_spec

#: Store format version — bump when the on-disk layout or the key
#: derivation changes incompatibly.
STORE_FORMAT = 1

#: Salt mixed into every store key: ties cached results to both the
#: store format and the code version that produced them.
STORE_SALT = f"repro-store/{STORE_FORMAT}/repro/{__version__}"


@dataclass(frozen=True)
class RunSpec:
    """Canonical description of one pipeline run — the unit the store keys.

    Exactly one of ``trace`` / ``scenario`` names the packet source (as
    a registry spec string); ``samplers`` is the tuple of sampler specs
    evaluated against it.  All fields are spec strings or plain numbers,
    so a ``RunSpec`` is JSON-serialisable, hashable and buildable from
    a config file or CLI flags.

    Fields that do **not** affect the computed numbers (streaming chunk
    size, execution backend, worker count) are intentionally absent:
    the executor guarantees bit-identical results across them, so they
    must not fragment the cache.

    ``top_t``, ``num_runs`` and ``seed`` must be integers, ``top_t`` and
    ``num_runs`` at least 1, and ``max_flows``, when given, an integer
    of at least 1: a non-integer (``2.5``, or a float such as ``2.0``)
    raises :class:`TypeError` rather than keying a run under the integer
    it would be rounded to.
    """

    samplers: tuple[str, ...]
    trace: str | None = None
    scenario: str | None = None
    key: str = "five-tuple"
    bin_duration: float = 60.0
    top_t: int = 10
    num_runs: int = 5
    seed: int = 0
    monitor: bool = False
    max_flows: int | None = None

    def __post_init__(self) -> None:
        if isinstance(self.samplers, str):
            object.__setattr__(self, "samplers", (self.samplers,))
        else:
            object.__setattr__(self, "samplers", tuple(self.samplers))
        if not self.samplers:
            raise ValueError("a run spec needs at least one sampler spec")
        if self.trace is not None and self.scenario is not None:
            raise ValueError("trace and scenario are mutually exclusive in a run spec")
        if self.seed is None:
            raise ValueError(
                "a stored run must be seeded: seed=None draws fresh entropy and "
                "could never be reproduced from its cache key"
            )
        try:
            num_runs, seed = operator.index(self.num_runs), operator.index(self.seed)
        except TypeError:
            raise TypeError(
                "num_runs and seed must be integers, got "
                f"num_runs={self.num_runs!r}, seed={self.seed!r}"
            ) from None
        if num_runs < 1:
            raise ValueError(f"num_runs must be at least 1, got {num_runs}")
        object.__setattr__(self, "top_t", _checked_top_t(self.top_t))
        object.__setattr__(self, "num_runs", num_runs)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "max_flows", _checked_max_flows(self.max_flows))

    # ------------------------------------------------------------------
    def canonical(self) -> "RunSpec":
        """The order-independent form of this spec (what the store hashes).

        Every component spec string is normalised with
        :func:`repro.spec.canonical_spec` (kwargs sorted by name) and
        the remaining float and bool fields are coerced to plain Python
        types (the integer fields already are), so two specs describing
        the same run compare — and hash — equal.
        """
        return replace(
            self,
            samplers=tuple(canonical_spec(spec) for spec in self.samplers),
            trace=None if self.trace is None else canonical_spec(self.trace),
            scenario=None if self.scenario is None else canonical_spec(self.scenario),
            key=canonical_spec(self.key),
            bin_duration=float(self.bin_duration),
            monitor=bool(self.monitor),
        )

    def to_dict(self) -> dict:
        """JSON-friendly export; inverse of :meth:`from_dict`."""
        return {
            "samplers": list(self.samplers),
            "trace": self.trace,
            "scenario": self.scenario,
            "key": self.key,
            "bin_duration": float(self.bin_duration),
            "top_t": self.top_t,
            "num_runs": self.num_runs,
            "seed": self.seed,
            "monitor": bool(self.monitor),
            "max_flows": self.max_flows,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        """Rebuild a spec from its :meth:`to_dict` representation.

        The integer fields go through the same checks as the
        constructor's, so a stored ``top_t`` of ``2.5`` raises instead
        of loading as ``2``.
        """
        return cls(
            samplers=tuple(data["samplers"]),
            trace=data.get("trace"),
            scenario=data.get("scenario"),
            key=data.get("key", "five-tuple"),
            bin_duration=float(data.get("bin_duration", 60.0)),
            top_t=data.get("top_t", 10),
            num_runs=data.get("num_runs", 5),
            seed=data["seed"],
            monitor=bool(data.get("monitor", False)),
            max_flows=data.get("max_flows"),
        )

    # ------------------------------------------------------------------
    def build_pipeline(self) -> Pipeline:
        """A :class:`~repro.pipeline.pipeline.Pipeline` configured to run this spec."""
        pipeline = (
            Pipeline()
            .with_key_policy(self.key)
            .with_bin_duration(self.bin_duration)
            .with_top(self.top_t)
            .with_runs(self.num_runs)
            .with_seed(self.seed)
        )
        if self.scenario is not None:
            pipeline.with_scenario(self.scenario)
        else:
            pipeline.with_trace(self.trace if self.trace is not None else "sprint")
        for sampler in self.samplers:
            pipeline.with_sampler(sampler)
        if self.monitor or self.max_flows is not None:
            pipeline.with_monitor(self.max_flows)
        return pipeline

    def execute(
        self, parallel: str | bool | int | None = "auto", jobs: int | None = None
    ) -> PipelineResult:
        """Run the spec through the pipeline's execution backends.

        Parameters
        ----------
        parallel, jobs:
            As in :meth:`Pipeline.run
            <repro.pipeline.pipeline.Pipeline.run>` — the result is
            bit-identical whatever backend executes the cells, monitor
            specs (bounded or not) included.
        """
        return _execute_specs([self], parallel, jobs)[0]


def _execute_specs(
    specs: Sequence[RunSpec], parallel: str | bool | int | None, jobs: int | None
) -> list[PipelineResult]:
    """Execute specs that differ only in their samplers in one source pass.

    The source is synthesised, expanded and accounted once for all of
    them (see :func:`repro.pipeline.pipeline._run_pipelines`), and each
    result is bit-identical to executing its spec alone.
    """
    return _run_pipelines([spec.build_pipeline() for spec in specs], parallel, jobs)


def store_key(spec: RunSpec, *, salt: str = STORE_SALT) -> str:
    """Stable content-address of one run spec.

    SHA-256 of the canonical spec's sorted-key JSON, salted with the
    store format and library version; truncated to 24 hex characters
    (96 bits — collision-safe for any realistic sweep).  Stable across
    processes, machines and dict/kwargs orderings; any change to a
    field that affects the numbers yields a different key.

    >>> a = RunSpec(samplers=("periodic:period=100,phase=3",), trace="sprint", seed=1)
    >>> b = RunSpec(samplers=("periodic:phase=3,period=100",), trace="sprint", seed=1)
    >>> store_key(a) == store_key(b)
    True
    >>> store_key(a) == store_key(replace(a, seed=2))
    False
    """
    return _key_of_canonical(spec.canonical().to_dict(), salt)


def _key_of_canonical(spec_dict: dict, salt: str = STORE_SALT) -> str:
    """:func:`store_key` of a spec already in ``canonical().to_dict()`` form."""
    payload = json.dumps(
        {"salt": salt, "spec": spec_dict}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


@dataclass(frozen=True)
class StoredRun:
    """One store hit: the key, the spec that produced it, and the result."""

    key: str
    spec: RunSpec
    result: PipelineResult


@dataclass(frozen=True)
class Lease:
    """An advisory claim on one pending cell by one worker.

    A lease is a ``leases/<key>.json`` file: whoever holds it intends
    to compute the artifact for ``key`` before ``deadline`` (a
    monotonic-clock timestamp).  Leases are *advisory* — they only
    prevent duplicate work, never corruption: artifacts are atomic and
    idempotent, so even a duplicated execution converges to the same
    bytes.  An expired lease marks a crashed (or stalled) worker and
    may be reclaimed by anyone.
    """

    key: str
    owner: str
    deadline: float
    acquired: float

    def expired(self, now: float) -> bool:
        """Whether the holder's deadline has passed at clock time ``now``."""
        return now >= self.deadline

    def remaining(self, now: float) -> float:
        """Seconds of validity left at clock time ``now`` (never negative)."""
        return max(0.0, self.deadline - now)

    def to_dict(self) -> dict:
        """JSON-friendly export; inverse of :meth:`from_dict`."""
        return {
            "key": self.key,
            "owner": self.owner,
            "deadline": float(self.deadline),
            "acquired": float(self.acquired),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Lease":
        """Rebuild a lease from its :meth:`to_dict` representation."""
        return cls(
            key=str(data["key"]),
            owner=str(data["owner"]),
            deadline=float(data["deadline"]),
            acquired=float(data["acquired"]),
        )


def default_clock() -> float:
    """The store's default lease clock: the machine-wide monotonic clock.

    Lease deadlines only order events *between live processes on one
    machine sharing one store directory*; they never enter results,
    keys or artifacts, so reading the clock here cannot break
    reproducibility.  ``time.monotonic`` (CLOCK_MONOTONIC) is shared
    across processes on the platforms the worker pool supports and is
    immune to wall-clock steps from NTP.  Tests inject a fake clock
    through ``RunStore(clock=...)`` instead of patching this.
    """
    return time.monotonic()  # reprolint: disable=wall-clock -- lease TTLs order live processes only; never enters results or keys


@dataclass
class VerifyReport:
    """Outcome of :meth:`RunStore.verify`: what was checked, what is wrong."""

    checked: int = 0
    ok: int = 0
    issues: list[tuple[str, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when every checked entry loaded and re-keyed correctly."""
        return not self.issues


class RunStore:
    """A directory of content-addressed pipeline results.

    Parameters
    ----------
    root:
        Store directory; created on first :meth:`put`.
    array_format:
        ``"json"`` (default) keeps the full result in one JSON file per
        run; ``"npz"`` moves the per-bin metric arrays into a sibling
        ``.npz`` (compact and mmap-able for large sweeps) and leaves
        ``{"__npz__": name}`` references in the JSON.  A store may mix
        formats; ``get`` handles both.

    >>> import tempfile
    >>> spec = RunSpec(samplers=("bernoulli:rate=0.5",),
    ...                trace="sprint:duration=120,scale=0.002", num_runs=2, seed=0)
    >>> store = RunStore(tempfile.mkdtemp())
    >>> store.get(spec) is None
    True
    >>> key = store.put(spec, spec.execute())
    >>> store.get(spec).result.num_runs
    2
    >>> [entry[0] == key for entry in store.list()]
    [True]
    """

    INDEX_NAME = "index.jsonl"
    #: A pre-journal store's index: the journal's base until :meth:`gc`.
    LEGACY_INDEX_NAME = "index.json"
    INDEX_LOCK = "index.lock"
    RUNS_DIR = "runs"
    LEASES_DIR = "leases"

    def __init__(
        self,
        root: str | Path,
        array_format: str = "json",
        clock: Callable[[], float] | None = None,
    ) -> None:
        if array_format not in ("json", "npz"):
            raise ValueError(f"unknown array_format {array_format!r}; expected 'json' or 'npz'")
        self.root = Path(root)
        self.array_format = array_format
        #: Lease clock; injectable so tests control expiry deterministically.
        self.clock: Callable[[], float] = clock if clock is not None else default_clock
        #: Multi-subscriber lifecycle bus.  Events fired at named points
        #: (``put.after-artifact``, ``get.hit``/``get.miss``,
        #: ``lease.claim``/``lease.renew``/``lease.release``/
        #: ``lease.reclaim``) with the store key; the fault-injection
        #: suite, telemetry adapters and progress reporters subscribe
        #: concurrently without clobbering each other.
        self.events: telemetry.EventBus = telemetry.EventBus()

    # ------------------------------------------------------------------
    # Paths and index
    # ------------------------------------------------------------------
    @property
    def index_path(self) -> Path:
        """Location of the fast-listing index journal."""
        return self.root / self.INDEX_NAME

    @property
    def runs_dir(self) -> Path:
        """Directory holding one artifact set per stored run."""
        return self.root / self.RUNS_DIR

    @property
    def leases_dir(self) -> Path:
        """Directory holding one advisory lease file per in-flight cell."""
        return self.root / self.LEASES_DIR

    def run_path(self, key: str) -> Path:
        """JSON artifact path of one key."""
        return self.runs_dir / f"{key}.json"

    def lease_path(self, key: str) -> Path:
        """Lease file path of one key."""
        return self.leases_dir / f"{key}.json"

    def _npz_path(self, key: str) -> Path:
        return self.runs_dir / f"{key}.npz"

    def _fire(self, event: str, key: str) -> None:
        self.events.emit(event, key)

    def _read_index(self) -> dict[str, dict]:
        """Every indexed run as ``{key: spec dict}``: the journal, folded.

        A pre-journal ``index.json`` is the base; journal records
        override it, later ones winning.  A line that is no record (the
        torn tail of an append killed mid-write) is skipped: its run is
        still on disk, :meth:`verify` reports it and :meth:`gc`
        reindexes it.
        """
        entries: dict[str, dict] = {}
        with contextlib.suppress(OSError, ValueError, KeyError, TypeError):
            legacy = json.loads((self.root / self.LEGACY_INDEX_NAME).read_bytes())
            entries.update(legacy["entries"])
        try:
            journal = self.index_path.read_bytes().decode("utf-8", "replace")
        except FileNotFoundError:
            return entries
        try:  # one parse for the whole journal, unless some line is no record
            records = json.loads("[" + journal[1:].replace("\n", ",") + "]")
            entries.update((record["key"], record["spec"]) for record in records)
        except (ValueError, KeyError, TypeError):
            for line in journal.split("\n"):
                try:
                    record = json.loads(line)
                    entries[record["key"]] = record["spec"]
                except (ValueError, KeyError, TypeError):
                    continue
        return entries

    @contextlib.contextmanager
    def _index_lock(self) -> Iterator[None]:
        """Hold an exclusive advisory lock on the index journal.

        ``flock`` on a sibling ``index.lock`` file serialises journal
        appends with :meth:`gc`, which holds it from reading the
        journal to replacing it compacted: an append made in between
        would land in the replaced file and be lost.  On platforms
        without ``fcntl`` the lock is a no-op (the artifacts remain the
        source of truth; ``gc`` reindexes).
        """
        if fcntl is None:
            yield
            return
        fd = os.open(self.root / self.INDEX_LOCK, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing the descriptor releases the lock

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def key_of(self, spec: RunSpec | str) -> str:
        """The store key of a spec (a passed string is already a key)."""
        return spec if isinstance(spec, str) else store_key(spec)

    def __contains__(self, spec: RunSpec | str) -> bool:
        return self.run_path(self.key_of(spec)).is_file()

    def put(self, spec: RunSpec, result: PipelineResult) -> str:
        """Persist one result under its spec's key; returns the key.

        Writing is idempotent (putting the same spec again overwrites
        the artifact with equivalent contents — results are
        deterministic functions of the spec) and **atomic**: every file
        lands via a same-directory temp file and ``os.replace``, so a
        sweep killed mid-write never leaves a truncated artifact that
        a resumed sweep would mistake for a cache hit.  The NPZ sibling
        is replaced before the JSON that references it, then one
        ``{"key", "spec"}`` record is appended to the index journal
        (never read back here), and any lease on the key is released
        last — a completed artifact always wins over a lease, whatever
        instant a worker dies at.
        """
        spec_dict = spec.canonical().to_dict()
        key = _key_of_canonical(spec_dict)
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        result_dict = result.to_dict()
        if self.array_format == "npz":
            result_dict, arrays = _extract_arrays(result_dict)
            buffer = io.BytesIO()
            np.savez_compressed(buffer, **arrays)
            _atomic_write_bytes(self._npz_path(key), buffer.getvalue())
        payload = {
            "key": key,
            "salt": STORE_SALT,
            "spec": spec_dict,
            "result": result_dict,
        }
        _atomic_write_text(
            self.run_path(key), json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        if telemetry.enabled:
            telemetry.count("store.put")
        self._fire("put.after-artifact", key)
        with self._index_lock(), open(self.index_path, "ab") as journal:  # reprolint: disable=non-atomic-write -- an append-only journal: readers skip a torn last line, and each record opens with its own newline
            journal.write(_journal_record(key, spec_dict))
            journal.flush()
            os.fsync(journal.fileno())
        self.lease_path(key).unlink(missing_ok=True)
        return key

    def get(self, spec: RunSpec | str) -> StoredRun | None:
        """Load one stored run by spec or key; ``None`` on a miss."""
        key = self.key_of(spec)
        path = self.run_path(key)
        if not path.is_file():
            if telemetry.enabled:
                telemetry.count("store.get.miss")
            self._fire("get.miss", key)
            return None
        if telemetry.enabled:
            telemetry.count("store.get.hit")
        self._fire("get.hit", key)
        payload = json.loads(path.read_text())
        result_dict = payload["result"]
        if _has_npz_refs(result_dict):
            with np.load(self._npz_path(key)) as arrays:
                result_dict = _restore_arrays(result_dict, arrays)
        return StoredRun(
            key=key,
            spec=RunSpec.from_dict(payload["spec"]),
            result=PipelineResult.from_dict(result_dict),
        )

    def list(self) -> list[tuple[str, RunSpec]]:
        """Every indexed run as ``(key, spec)``, sorted by key.

        Folds only the index journal (over a pre-journal ``index.json``,
        if one is left) — listing a store of thousands of runs does not
        open the artifacts.
        """
        return [
            (key, RunSpec.from_dict(entry)) for key, entry in sorted(self._read_index().items())
        ]

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    def get_lease(self, key: str) -> Lease | None:
        """The current lease on ``key``, or ``None`` when absent/corrupt.

        A corrupt lease file (torn by a dying writer, or hand-edited)
        is reported by :meth:`verify`, reaped by :meth:`gc`, and
        treated as *expired* by :meth:`claim` — a file nobody can parse
        protects nobody's work.
        """
        try:
            return Lease.from_dict(json.loads(self.lease_path(key).read_text()))
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _publish_lease(self, lease: Lease) -> bool:
        """Atomically create ``leases/<key>.json``; False when contended.

        The file is materialised with its full contents under a unique
        temp name, fsynced, then *hard-linked* into place — ``os.link``
        fails with ``FileExistsError`` when the lease path already
        exists, so exactly one of any number of racing workers wins,
        and a reader can never observe a partially written lease.  A
        lease over an artifact that landed (and released its holder's
        lease) after the caller checked is withdrawn, as contended.
        """
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        path = self.lease_path(lease.key)
        temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        _write_file_synced(temp, (json.dumps(lease.to_dict(), sort_keys=True) + "\n").encode())
        try:
            os.link(temp, path)
        except FileExistsError:
            return False
        finally:
            temp.unlink(missing_ok=True)
        if self.run_path(lease.key).is_file():
            path.unlink(missing_ok=True)
            return False
        return True

    def claim(self, spec: RunSpec | str, owner: str, ttl: float) -> Lease | None:
        """Try to lease one pending cell for ``owner``; ``None`` on failure.

        The decision procedure, in order:

        1. the artifact already exists — nothing to claim (``None``);
        2. no lease file — atomically create one (hard-link publish:
           exactly one racing claimer wins);
        3. a live lease we already own — renew it;
        4. a live lease owned by someone else — back off (``None``);
        5. an expired or corrupt lease — the holder crashed: *reclaim*
           by atomically renaming the dead lease aside (exactly one
           racing reclaimer wins the rename) and publishing our own.

        ``ttl`` seconds of validity are granted from the store clock;
        hold the lease alive across long executions with :meth:`renew`.
        """
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl}")
        key = self.key_of(spec)
        if self.run_path(key).is_file():
            return None
        now = self.clock()
        lease = Lease(key=key, owner=owner, deadline=now + ttl, acquired=now)
        if self._publish_lease(lease):
            if telemetry.enabled:
                telemetry.count("store.lease.claim")
            self._fire("lease.claim", key)
            return lease
        current = self.get_lease(key)
        if current is None:
            # Corrupt (or vanished) lease file: reclaim it like an
            # expired one — it cannot be protecting live work.
            return self._reclaim(key, lease)
        if current.owner == owner and not current.expired(now):
            return self.renew(current, ttl)
        if not current.expired(now):
            return None
        return self._reclaim(key, lease)

    def _reclaim(self, key: str, lease: Lease) -> Lease | None:
        """Take over an expired/corrupt lease; ``None`` when we lose the race.

        ``os.rename`` of the dead lease to a per-process tombstone is
        the mutex: the filesystem lets exactly one racing reclaimer
        rename the same source file.  The winner removes the tombstone
        and publishes its own lease (which can still lose to a fresh
        claimer that slipped into the gap — then this claim fails and
        the worker simply moves to the next cell).
        """
        tomb = self.lease_path(key).with_name(f"{key}.{os.getpid()}.reclaim.tmp")
        try:
            os.rename(self.lease_path(key), tomb)
        except FileNotFoundError:
            pass  # already reclaimed/released; fall through to publish
        else:
            tomb.unlink(missing_ok=True)
        if self.run_path(key).is_file():
            return None
        if not self._publish_lease(lease):
            return None
        if telemetry.enabled:
            telemetry.count("store.lease.reclaim")
        self._fire("lease.reclaim", key)
        return lease

    def renew(self, lease: Lease, ttl: float) -> Lease | None:
        """Heartbeat: extend an owned lease; ``None`` when it was lost.

        Re-reads the lease file first — if another worker reclaimed the
        key (this process stalled past its deadline) the renewal fails
        and the caller must treat its execution as speculative (the
        eventual ``put`` is still safe: artifacts are idempotent).
        """
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl}")
        current = self.get_lease(lease.key)
        if current is None or current.owner != lease.owner:
            return None
        renewed = replace(current, deadline=self.clock() + ttl)
        _atomic_write_text(
            self.lease_path(lease.key), json.dumps(renewed.to_dict(), sort_keys=True) + "\n"
        )
        if telemetry.enabled:
            telemetry.count("store.lease.renew")
        self._fire("lease.renew", lease.key)
        return renewed

    def release(self, lease: Lease) -> None:
        """Drop an owned lease (no-op when already gone or reclaimed)."""
        current = self.get_lease(lease.key)
        if current is not None and current.owner == lease.owner:
            self.lease_path(lease.key).unlink(missing_ok=True)
            if telemetry.enabled:
                telemetry.count("store.lease.release")
            self._fire("lease.release", lease.key)

    def list_leases(self) -> list[Lease]:
        """Every parseable lease file, sorted by key (corrupt ones skipped)."""
        if not self.leases_dir.is_dir():
            return []
        leases = []
        for path in sorted(self.leases_dir.glob("*.json")):
            lease = self.get_lease(path.stem)
            if lease is not None:
                leases.append(lease)
        return leases

    def cell_state(self, spec: RunSpec | str) -> str:
        """Lifecycle state of one cell: done, leased, orphaned or pending.

        ``done`` — the artifact exists (leases are irrelevant then);
        ``leased`` — a live lease holds the cell; ``orphaned`` — the
        only claim is an expired lease (its worker crashed); ``pending``
        — no artifact, no lease.
        """
        key = self.key_of(spec)
        if self.run_path(key).is_file():
            return "done"
        lease = self.get_lease(key)
        if lease is None:
            return "orphaned" if self.lease_path(key).is_file() else "pending"
        return "orphaned" if lease.expired(self.clock()) else "leased"

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def verify(self) -> VerifyReport:
        """Check every artifact against the cache-key contract.

        For each run file: it must parse, its recorded salt must match
        the running code's :data:`STORE_SALT`, its spec must re-hash to
        the file's key, its result must rebuild through
        :meth:`PipelineResult.from_dict
        <repro.pipeline.result.PipelineResult.from_dict>`, and any NPZ
        references must resolve.  Index entries without artifacts (and
        artifacts missing from the index) are reported too.

        Lease files are audited as well: an expired lease (crashed
        worker), a lease shadowed by its completed artifact, and a
        lease file that does not parse are all reported — and left in
        place; reaping is :meth:`gc`'s job, and neither operation ever
        touches a valid artifact.
        """
        report = VerifyReport()
        indexed = self._read_index()
        on_disk = (
            {path.stem for path in self.runs_dir.glob("*.json")}
            if self.runs_dir.is_dir()
            else set()
        )
        for key in sorted(on_disk | set(indexed)):
            report.checked += 1
            if key not in on_disk:
                report.issues.append((key, "indexed but artifact file is missing"))
                continue
            try:
                payload = json.loads(self.run_path(key).read_text())
            except (OSError, json.JSONDecodeError) as error:
                report.issues.append((key, f"unreadable artifact: {error}"))
                continue
            problems = []
            if payload.get("salt") != STORE_SALT:
                problems.append(
                    f"stale salt {payload.get('salt')!r} (current {STORE_SALT!r})"
                )
            try:
                spec = RunSpec.from_dict(payload["spec"])
                if store_key(spec) != key:
                    problems.append("spec does not hash to its key")
                result_dict = payload["result"]
                if _has_npz_refs(result_dict):
                    with np.load(self._npz_path(key)) as arrays:
                        result_dict = _restore_arrays(result_dict, arrays)
                PipelineResult.from_dict(result_dict)
            except Exception as error:  # noqa: BLE001 - verify reports, never raises
                problems.append(f"artifact does not rebuild: {error}")
            if key not in indexed:
                problems.append("artifact present but not indexed (run gc to reindex)")
            if problems:
                report.issues.extend((key, problem) for problem in problems)
            else:
                report.ok += 1
        lease_keys = (
            sorted(path.stem for path in self.leases_dir.glob("*.json"))
            if self.leases_dir.is_dir()
            else []
        )
        now = self.clock()
        for key in lease_keys:
            lease = self.get_lease(key)
            if lease is None:
                report.issues.append((key, "unreadable lease file (run gc to reap it)"))
            elif self.run_path(key).is_file():
                report.issues.append(
                    (key, f"lease by {lease.owner!r} outlived its completed artifact")
                )
            elif lease.expired(now):
                report.issues.append(
                    (key, f"expired lease by {lease.owner!r} — worker crash? gc reaps it")
                )
        return report

    def gc(self) -> dict:
        """Reconcile the index with the artifacts on disk.

        Removes artifacts whose salt no longer matches (results from an
        older code version) or that fail to parse, drops index entries
        whose artifacts are gone, and indexes orphaned artifacts that
        are valid, then replaces the journal with one line per kept run
        (under the index lock from its read on, so no put's line is
        lost) and deletes a pre-journal ``index.json``.  Stale leases
        are reaped too: expired (their worker crashed), shadowed by a
        completed artifact, or unreadable; so are dead writers' temp
        files — while live leases, live writers' temp files and valid
        artifacts are never touched.  Returns a summary dictionary with
        the ``removed`` keys, ``reindexed`` keys, ``reaped_leases`` keys
        and the number of entries ``kept``.
        """
        removed: list[str] = []
        reindexed: list[str] = []
        reaped_leases: list[str] = []
        for directory in (self.root, self.runs_dir, self.leases_dir):
            for leftover in directory.glob("*.tmp"):
                if not _writer_alive(leftover.name):
                    leftover.unlink(missing_ok=True)  # interrupted write
        if self.leases_dir.is_dir():
            now = self.clock()
            for path in sorted(self.leases_dir.glob("*.json")):
                key = path.stem
                lease = self.get_lease(key)
                stale = (
                    lease is None  # unreadable protects nobody
                    or lease.expired(now)  # holder crashed
                    or self.run_path(key).is_file()  # artifact won already
                )
                if stale:
                    path.unlink(missing_ok=True)
                    reaped_leases.append(key)
        self.root.mkdir(parents=True, exist_ok=True)
        with self._index_lock():
            entries = self._read_index()
            on_disk = sorted(path.stem for path in self.runs_dir.glob("*.json"))
            for key in on_disk:
                stale = False
                try:
                    payload = json.loads(self.run_path(key).read_text())
                    stale = payload.get("salt") != STORE_SALT or store_key(
                        RunSpec.from_dict(payload["spec"])
                    ) != key
                except Exception:  # noqa: BLE001 - any unreadable artifact is garbage
                    stale = True
                if stale:
                    self.run_path(key).unlink()
                    self._npz_path(key).unlink(missing_ok=True)
                    entries.pop(key, None)
                    removed.append(key)
                elif key not in entries:
                    entries[key] = payload["spec"]
                    reindexed.append(key)
            for key in sorted(set(entries) - set(on_disk)):
                del entries[key]
                removed.append(key)
            _atomic_write_bytes(
                self.index_path,
                b"".join(_journal_record(key, entries[key]) for key in sorted(entries)),
            )
            (self.root / self.LEGACY_INDEX_NAME).unlink(missing_ok=True)
        return {
            "removed": removed,
            "reindexed": reindexed,
            "reaped_leases": reaped_leases,
            "kept": len(entries),
        }


# ----------------------------------------------------------------------
# Atomic file replacement
# ----------------------------------------------------------------------
def _write_file_synced(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` and fsync it before returning.

    Every caller then publishes the file by ``os.replace`` or
    ``os.link``; the fsync makes sure the bytes are on disk before the
    name is, so a crash right after publishing cannot leave a cached
    name pointing at a truncated file.
    """
    with open(path, "wb") as handle:  # reprolint: disable=non-atomic-write -- the one raw-write primitive; every caller publishes via os.replace/os.link
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a same-directory temp file + rename.

    ``os.replace`` is atomic on POSIX and Windows, so readers (and a
    resumed sweep's hit check) only ever see the old file, the new
    file, or no file — never a truncated one.  The temp name embeds the
    writer's pid: two uncoordinated workers replacing the same path
    (idempotent duplicate puts) never share a temp file, so neither can
    rename the other's half-written bytes into place, and ``gc`` can
    tell a live writer's temp file from a dead one's.
    """
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    _write_file_synced(temp, data)
    os.replace(temp, path)


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def _writer_alive(temp_name: str) -> bool:
    """Whether the writer whose pid names a temp file still runs.

    Names are ``<name>.<pid>.tmp`` or ``<key>.<pid>.reclaim.tmp``; one
    without a pid is a dead writer's leftover.
    """
    pid = temp_name.removesuffix(".reclaim.tmp").removesuffix(".tmp").rpartition(".")[2]
    if not pid.isdecimal():
        return False
    if os.name != "posix":
        return True  # os.kill(pid, 0) would terminate the process there
    try:
        os.kill(int(pid), 0)
    except PermissionError:
        return True  # alive, but another user's
    except (OSError, OverflowError):
        return False
    return True


def _journal_record(key: str, spec_dict: dict) -> bytes:
    """One journal line; its leading newline ends a torn tail before it."""
    record = {"key": key, "spec": spec_dict}
    return b"\n" + json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


# ----------------------------------------------------------------------
# NPZ array externalisation
# ----------------------------------------------------------------------
def _extract_arrays(result_dict: dict) -> tuple[dict, dict[str, np.ndarray]]:
    """Replace per-series arrays with ``{"__npz__": name}`` references.

    Walks the ``ranking``/``detection`` series of a ``to_dict`` payload
    and moves every numeric list into a flat array mapping with
    deterministic names (``arr_0``, ``arr_1``, ... in problem, label,
    field order), so the JSON stays small and the arrays load lazily.
    Only the dicts along the walked path are copied — the arrays (the
    dominant payload, which is exactly what NPZ mode keeps out of the
    JSON) are referenced, never re-serialised.
    """
    out = dict(result_dict)
    arrays: dict[str, np.ndarray] = {}
    counter = 0
    for problem in ("ranking", "detection"):
        series_map = {label: dict(payload) for label, payload in out.get(problem, {}).items()}
        for payload in series_map.values():
            for field_name in ("bin_start_times", "mean", "std", "values"):
                name = f"arr_{counter}"
                counter += 1
                arrays[name] = np.asarray(payload[field_name], dtype=float)
                payload[field_name] = {"__npz__": name}
        out[problem] = series_map
    return out, arrays


def _has_npz_refs(result_dict: dict) -> bool:
    for problem in ("ranking", "detection"):
        for payload in result_dict.get(problem, {}).values():
            for value in payload.values():
                if isinstance(value, dict) and "__npz__" in value:
                    return True
    return False


def _restore_arrays(result_dict: dict, arrays: Mapping[str, np.ndarray]) -> dict:
    """Inverse of :func:`_extract_arrays` given the loaded NPZ mapping."""
    out = json.loads(json.dumps(result_dict))
    for problem in ("ranking", "detection"):
        for payload in out.get(problem, {}).values():
            for field_name, value in payload.items():
                if isinstance(value, dict) and "__npz__" in value:
                    payload[field_name] = arrays[value["__npz__"]].tolist()
    return out


__all__ = [
    "STORE_FORMAT",
    "STORE_SALT",
    "Lease",
    "RunSpec",
    "RunStore",
    "StoredRun",
    "VerifyReport",
    "default_clock",
    "store_key",
]
