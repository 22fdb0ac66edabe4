"""Host-side performance observability: regions, counters, profiles.

Two instruments, one context, zero cost when off:

* :class:`RegionProfiler` — wall-clock *cells* over the host-side hot
  paths, one per static ``;``-joined region path
  (``sim.engine.run;engine.bsp.gather;comm.serialization.pack``).  One
  primitive, two spellings: ``with ctx.cell(path):`` brackets a block,
  ``ctx.timed(path, fn)`` returns ``fn`` wrapped.  Produces a
  hierarchical self/cumulative report with call counts, exportable as
  JSON, a top-N table, or collapsed-stack (flamegraph) lines.
* :class:`CounterRegistry` — deterministic *work* counters (events
  scheduled/fired, heap ops, packets/bytes, matching probes, pool
  acquires).  Pure functions of the simulated schedule, so repeat runs
  of the same scenario produce identical counts and an identical
  :meth:`~CounterRegistry.fingerprint` — the drift-detection anchor in
  ``BENCH_core.json``.

Both ride on :class:`ProfileContext`, which ``BspEngine`` installs as
``fabric.profiler`` and ``env.profiler`` before the layers are built;
components read that attribute once at construction and wrap their hot
calls through :meth:`~RegionProfiler.timed`.  The contract mirrors
``repro.obs``:

* **Off by default** — no context installed means nothing is wrapped.
* **Bit-identical when on** — cells never advance simulated time,
  touch a component's counts, or change iteration order; ``RunMetrics``
  with the profiler enabled equals the plain run (tier-1 asserted).
* **Cheap when on** — per-packet sites read the clock on every
  :data:`LEAF_SAMPLE_STRIDE`-th call only, and per-packet *work counts*
  are never incremented on the hot path at all: components that already
  maintain deterministic tallies (NIC and pool counts, matching-queue
  probe counts) register a :meth:`ProfileContext.add_source` callback
  instead, read at snapshot time and settled into the registry when the
  engine's run returns.  ``benchmarks/perf`` reports the residual as
  ``obs.trace_overhead_frac`` per workload.

Wall-clock time is intentionally confined to this module:
:func:`wall_now` is the single sanctioned clock, so the determinism
lint (rule D101) flags any *other* wall-clock read in the tree.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Dict, List, Optional

from repro.obs.atomic import atomic_write_text

__all__ = [
    "wall_now",
    "RegionProfiler",
    "CounterRegistry",
    "ProfileContext",
    "PROFILE_DOC_KIND",
]

PROFILE_DOC_KIND = "repro-profile"
PROFILE_DOC_VERSION = 1


def wall_now() -> float:
    """The one sanctioned wall-clock read in the codebase.

    Everything the profiler measures is *host* time — how long the
    pure-Python simulator itself takes — which is exactly what the
    determinism lint exists to keep out of the simulation modules.
    Routing every read through this helper keeps the suppression
    surface to a single line and makes profiling code grep-able.
    """
    return time.perf_counter()  # lint-ok: D101 the profiler measures host wall-clock by design


#: The raw C clock, bound into the cells below: a call to the
#: :func:`wall_now` Python wrapper costs more than the clock read
#: itself.  Same clock, same lint rationale as :func:`wall_now`.
_perf_counter = time.perf_counter  # lint-ok: D101 hot-path alias of wall_now

#: Sampling stride of ``sampled=True`` cells.  Sites that fire per packet
#: or per queue walk read the clock on every STRIDE'th call only and
#: report ``cum * STRIDE``; call counts stay exact.  The untimed calls
#: pay one counter increment and one AND — the stride is a power of two
#: so the "is this call timed" check is a single mask test.  The
#: engine's compute/gather/scatter cells stay fully timed: their cost
#: amortizes over whole phases or batches and their low call counts
#: would make a sampled estimate coarse.
LEAF_SAMPLE_STRIDE = 8


class _Cell:
    """Accumulated time and call count of one region path.

    Usable directly as a (non-reentrant) ``with`` bracket.  ``mask`` is
    ``stride - 1``: a call is timed when ``calls & mask == 0``, so an
    unsampled cell (stride 1, mask 0) times every call through the same
    test.
    """

    __slots__ = ("cum", "calls", "mask", "_clock", "_t0")

    def __init__(self, clock, mask: int):
        self.cum = 0.0
        self.calls = 0
        self.mask = mask
        self._clock = clock
        self._t0 = None

    def __enter__(self) -> None:
        self.calls = n = self.calls + 1
        self._t0 = None if n & self.mask else self._clock()

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._t0 is not None:
            self.cum += self._clock() - self._t0


class RegionProfiler:
    """Hierarchical wall-clock region profiler.

    Every region is a :class:`_Cell` keyed by its full ``;``-joined
    path, which the call site states literally: the instrumented code
    runs synchronously inside the event loop, so its nesting is static.
    A cell belongs to the profiler, not to the component that feeds it,
    so two engines naming the same path add into one cell.  A region's
    *self* time is its cumulative time minus its direct children's.

    ``clock`` is injectable for deterministic tests; it defaults to
    :func:`wall_now`.
    """

    def __init__(self, clock=wall_now):
        if clock is wall_now:
            # The default clock drops the Python wrapper frame; tests
            # that inject a custom clock keep theirs verbatim.
            clock = _perf_counter
        self._clock = clock
        self._cells: Dict[str, _Cell] = {}

    def cell(self, path: str, sampled: bool = False) -> _Cell:
        """The cell for ``path``: ``with profiler.cell("a;b"): ...``"""
        mask = LEAF_SAMPLE_STRIDE - 1 if sampled else 0
        cell = self._cells.get(path)
        if cell is None:
            cell = self._cells[path] = _Cell(self._clock, mask)
        elif cell.mask != mask:
            raise ValueError(f"region {path!r} is both sampled and unsampled")
        return cell

    def timed(self, path: str, fn, sampled: bool = False):
        """``fn`` wrapped so every call lands in ``path``'s cell.

        The wrapper takes positional arguments only: it sits on
        per-packet paths, and accepting keywords would cost every call
        a dict (a tenth of the profiler's whole overhead when measured,
        more where the call site passes keywords).  A keyword call
        fails loudly with ``TypeError``.
        """
        cell = self.cell(path, sampled)
        mask, clock = cell.mask, self._clock

        def timed_fn(*args):
            cell.calls = n = cell.calls + 1
            if n & mask:
                return fn(*args)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                cell.cum += clock() - t0

        return timed_fn

    # -- reporting ------------------------------------------------------
    def rows(self) -> List[dict]:
        """The region tree, depth-first, children in name order.

        Each row carries the full ``;``-joined path, call count,
        cumulative seconds (sampled cells scaled by their stride), and
        self seconds (cumulative minus direct children's cumulative,
        floored at zero against clock jitter and sampling error).  Cells
        that never fired are left out; an ancestor path nobody timed
        appears with zero calls and time.
        """
        cum: Dict[tuple, float] = {}
        calls: Dict[tuple, int] = {}
        for path, cell in self._cells.items():
            if not cell.calls:
                continue
            parts = tuple(path.split(";"))
            for depth in range(1, len(parts)):
                cum.setdefault(parts[:depth], 0.0)
            cum[parts] = cell.cum * (cell.mask + 1)
            calls[parts] = cell.calls
        child_cum: Dict[tuple, float] = {}
        for parts, value in cum.items():
            child_cum[parts[:-1]] = child_cum.get(parts[:-1], 0.0) + value
        return [
            {
                "path": ";".join(parts),
                "name": parts[-1],
                "depth": len(parts) - 1,
                "calls": calls.get(parts, 0),
                "cum_s": cum[parts],
                "self_s": max(cum[parts] - child_cum.get(parts, 0.0), 0.0),
            }
            for parts in sorted(cum)
        ]

    def to_collapsed(self) -> str:
        """Collapsed-stack (flamegraph) export.

        One ``a;b;c <count>`` line per region path, where the count is
        the region's *self* time in integer microseconds — load it with
        flamegraph.pl / speedscope / inferno as-is.  Paths are sorted so
        the export is stable given stable timings.
        """
        lines = []
        for row in self.rows():
            lines.append(f"{row['path']} {int(round(row['self_s'] * 1e6))}")
        return "\n".join(lines) + ("\n" if lines else "")

    def format_top(self, n: int = 10) -> str:
        """Top-``n`` regions by self time, as an aligned table."""
        all_rows = self.rows()
        rows = sorted(all_rows, key=lambda r: -r["self_s"])[:n]
        total = 0.0
        for r in all_rows:
            total += r["self_s"]
        header = f"{'region':<42} {'calls':>9} {'self':>10} {'cum':>10} {'self%':>6}"
        lines = [header, "-" * len(header)]
        for r in rows:
            pct = 100.0 * r["self_s"] / total if total > 0 else 0.0
            lines.append(
                f"{r['name']:<42} {r['calls']:>9} "
                f"{r['self_s'] * 1e3:>8.2f}ms {r['cum_s'] * 1e3:>8.2f}ms "
                f"{pct:>5.1f}%"
            )
        return "\n".join(lines)


class CounterRegistry:
    """Deterministic host-side work counters.

    Unlike the components' own ``int`` counts (per-host, folded into
    ``RunMetrics.layer_counters``), this is a single flat cross-layer
    registry whose values depend only on the simulated schedule — never
    on wall-clock — so two runs of the same scenario agree exactly.
    :meth:`fingerprint` condenses the whole registry into a short hash:
    the cheapest possible "did the work change?" probe for the bench
    trajectory and for perf refactors that must not alter behaviour.
    """

    def __init__(self):
        self._counts: Dict[str, int] = {}

    def inc(self, name: str, n: int = 1) -> None:
        c = self._counts
        c[name] = c.get(name, 0) + n

    def set(self, name: str, value: int) -> None:
        """Overwrite a counter with an absolute value.

        The landing pad for deferred sources
        (:meth:`ProfileContext.flush`): a source reports its running
        total, so repeated flushes write the same value (idempotent).
        """
        self._counts[name] = value

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Counters in sorted-name order (canonical form)."""
        return {k: self._counts[k] for k in sorted(self._counts)}

    def fingerprint(self) -> str:
        """sha256 over the canonical JSON encoding, truncated to 16 hex.

        Stable across insertion order and Python versions; changes iff
        any counter's value changes.
        """
        blob = json.dumps(self.as_dict(), sort_keys=True).encode("ascii")
        return hashlib.sha256(blob).hexdigest()[:16]

    def merge(self, other: "CounterRegistry") -> None:
        for name, value in other.as_dict().items():
            self.inc(name, value)

    def __len__(self) -> int:
        return len(self._counts)


class ProfileContext:
    """Bundles the region profiler + counter registry onto the fabric.

    :meth:`install` hangs the context off the fabric and environment
    (like ``FaultInjector`` / ``ObsContext``) and wraps each NIC's two
    per-packet entry points; components built afterwards read
    ``fabric.profiler`` once at construction and wrap their own hot
    calls through :attr:`timed`.

    One context may be installed across several engines (the serve
    layer runs one engine per batch): regions and counters accumulate,
    which is exactly what a service-level profile wants.  The context
    references no component beyond the end of its run, so a finished
    engine is collectable while the context lives.

    Two ways for counts to land in the registry:

    * **Direct** — coarse per-phase code calls ``counters.inc`` (or the
      bound :attr:`count` alias).  Used where a handful of increments
      per round cannot matter.
    * **Deferred** — per-packet/per-op paths never touch the registry;
      the owning component registers an :meth:`add_source` callback
      that reports its running totals from state it maintains anyway
      (NIC/pool ``int`` counts, matching-queue probe
      tallies).  :meth:`flush` folds every live source in; all snapshot
      paths (:meth:`report_dict`, :meth:`counters_dict`,
      :meth:`fingerprint`, :meth:`format_counters`) flush first, and
      :meth:`settle` keeps the final totals and lets the sources go.
      Reading ``ctx.counters`` directly between flushes sees only the
      direct increments.
    """

    def __init__(self, clock=wall_now):
        self.regions = RegionProfiler(clock=clock)
        self.counters = CounterRegistry()
        #: Live deferred counter sources: callables returning an
        #: iterable of ``(name, running_total)`` pairs.
        self._sources: List = []
        #: Final totals of the sources :meth:`settle` has dropped.
        self._settled: Dict[str, int] = {}
        self.cell = self.regions.cell
        self.timed = self.regions.timed
        self.count = self.counters.inc

    def install(self, env, fabric) -> "ProfileContext":
        fabric.profiler = self
        env.profiler = self
        # Packets only ever move inside the event loop, so the parent
        # region is static.
        for host in range(fabric.num_hosts):
            nic = fabric.nic(host)
            nic.try_inject = self.timed(
                "sim.engine.run;netapi.nic.inject", nic.try_inject,
                sampled=True,
            )
            nic.deliver = self.timed(
                "sim.engine.run;netapi.nic.deliver", nic.deliver,
                sampled=True,
            )
        # The NIC layer keeps deterministic per-NIC packet/byte stats
        # regardless of profiling; snapshot them instead of paying
        # per-packet increments.
        self.add_source(lambda: _fabric_counts(fabric))
        return self

    def add_source(self, fn) -> None:
        """Register a deferred counter source (see the class docstring)."""
        self._sources.append(fn)

    def _source_totals(self) -> Dict[str, int]:
        totals = dict(self._settled)
        for fn in self._sources:
            for name, value in fn():
                totals[name] = totals.get(name, 0) + value
        return totals

    def flush(self) -> "ProfileContext":
        """Fold every deferred source's totals into the registry.

        Idempotent: sources report running totals, summed across
        sources (settled ones included) and written with
        :meth:`CounterRegistry.set`.  Zero totals are skipped so
        counters only exist once the event they count has happened
        (matching the direct-increment behaviour).
        """
        for name, value in self._source_totals().items():
            if value:
                self.counters.set(name, value)
        return self

    def settle(self) -> "ProfileContext":
        """Keep the sources' current totals, drop the sources, flush.

        ``BspEngine.run()`` calls this on its way out: the sources close
        over the engine's fabric, endpoints and pools, and a context
        that outlives the run must not keep them alive.  Every live
        source goes, so engines sharing a context are built and run one
        after the other (as the serve layer does).
        """
        self._settled = self._source_totals()
        self._sources.clear()
        return self.flush()

    # -- snapshot accessors (always flushed) ---------------------------
    def counters_dict(self) -> Dict[str, int]:
        self.flush()
        return self.counters.as_dict()

    def fingerprint(self) -> str:
        self.flush()
        return self.counters.fingerprint()

    # -- reporting ------------------------------------------------------
    def report_dict(self, meta: Optional[dict] = None) -> dict:
        """The JSON profile document (validated by
        :func:`repro.obs.validate.validate_profile_doc`)."""
        self.flush()
        return {
            "kind": PROFILE_DOC_KIND,
            "version": PROFILE_DOC_VERSION,
            "meta": dict(meta or {}),
            "regions": self.regions.rows(),
            "counters": self.counters.as_dict(),
            "fingerprint": self.counters.fingerprint(),
        }

    def format_top(self, n: int = 10) -> str:
        return self.regions.format_top(n)

    def to_collapsed(self) -> str:
        return self.regions.to_collapsed()

    def format_counters(self) -> str:
        """Counters grouped by layer prefix, as an aligned table."""
        counts = self.counters_dict()
        if not counts:
            return "(no counters)"
        width = max(len(k) for k in counts)
        lines = [f"{'counter':<{width}}  {'value':>14}"]
        lines.append("-" * (width + 16))
        prev_group = None
        for name in counts:
            group = name.split(".", 1)[0]
            if prev_group is not None and group != prev_group:
                lines.append("")
            prev_group = group
            lines.append(f"{name:<{width}}  {counts[name]:>14}")
        lines.append("")
        lines.append(f"{'fingerprint':<{width}}  {self.counters.fingerprint():>14}")
        return "\n".join(lines)

    def save_json(self, path: str, meta: Optional[dict] = None) -> None:
        atomic_write_text(
            path, json.dumps(self.report_dict(meta), indent=2) + "\n"
        )

    def save_collapsed(self, path: str) -> None:
        atomic_write_text(path, self.to_collapsed())


def _fabric_counts(fabric):
    """Deferred source over the NICs' always-on counts
    (``pkts_sent`` counts successful injections)."""
    return (
        ("netapi.pkts_injected", fabric.total("pkts_sent")),
        ("netapi.bytes_injected", fabric.total("bytes_sent")),
        ("netapi.pkts_delivered", fabric.total("pkts_received")),
        ("netapi.bytes_delivered", fabric.total("bytes_received")),
        ("netapi.tx_full", fabric.total("tx_queue_full")),
    )
