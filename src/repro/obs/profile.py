"""Host-side performance observability: regions, counters, profiles.

One context, two kinds of data, zero cost when off:

* :class:`RegionProfiler` — wall-clock *cells* over the host-side hot
  paths, one per static ``;``-joined region path
  (``sim.engine.run;engine.bsp.gather;comm.serialization.pack``).  One
  primitive, two spellings: ``with ctx.cell(path):`` brackets a block,
  ``ctx.timed(path, fn)`` returns ``fn`` wrapped.  Produces a
  hierarchical self/cumulative report with call counts, exportable as
  JSON, a top-N table, or collapsed-stack (flamegraph) lines.
* **Work counts** — events scheduled/fired, heap ops, packets/bytes,
  matching probes, pool acquires: a plain ``{name: int}`` dict.  Every
  count is an ``int`` the components keep anyway; ``BspEngine.run()``
  reads them once, off the finished engine (``BspEngine.work_counts()``),
  and adds them into the context.  Pure functions of the simulated
  schedule, so repeat runs of the same scenario produce identical counts
  and an identical :func:`counter_fingerprint` — the drift-detection
  anchor in ``BENCH_core.json``.

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
  :data:`LEAF_SAMPLE_STRIDE`-th call only, and counting costs the
  profiler nothing per event.  ``benchmarks/perf`` reports the residual
  as ``obs.trace_overhead_frac`` per workload.

Wall-clock time is intentionally confined to this module:
:func:`wall_now` is the single sanctioned clock.  A wall-clock read
that reaches a simulated time makes two runs of one scenario disagree,
which ``tests/test_determinism.py`` catches.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Dict, List, Mapping, Optional

from repro.obs.atomic import atomic_write_text

__all__ = [
    "wall_now",
    "RegionProfiler",
    "ProfileContext",
    "PROFILE_DOC_KIND",
    "counter_fingerprint",
]

PROFILE_DOC_KIND = "repro-profile"
PROFILE_DOC_VERSION = 1


def wall_now() -> float:
    """The one sanctioned wall-clock read in the codebase.

    Everything the profiler measures is *host* time — how long the
    pure-Python simulator itself takes — which must never reach a
    simulated time.  Routing every read through this helper makes
    profiling code grep-able.
    """
    return time.perf_counter()


#: The raw C clock, bound into the cells below: a call to the
#: :func:`wall_now` Python wrapper costs more than the clock read
#: itself.  Same clock as :func:`wall_now`.
_perf_counter = time.perf_counter

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


def counter_fingerprint(counts: Mapping[str, int]) -> str:
    """sha256 over the sorted-key JSON encoding of ``counts``, truncated
    to 16 hex: stable across insertion order and Python versions, and
    changed by any count's change — the cheapest "did the work change?"
    probe for the bench trajectory and for behaviour-preserving perf
    refactors."""
    blob = json.dumps(dict(counts), sort_keys=True).encode("ascii")
    return hashlib.sha256(blob).hexdigest()[:16]


class ProfileContext:
    """Bundles the region profiler and the work counts onto the fabric.

    :meth:`install` hangs the context off the fabric and environment
    (like ``FaultInjector`` / ``ObsContext``) and wraps each NIC's two
    per-packet entry points; components built afterwards read
    ``fabric.profiler`` once at construction and wrap their own hot
    calls through :attr:`timed`.

    :attr:`counters` is a plain dict that ``BspEngine.run()`` adds the
    engine's ``work_counts()`` into on its way out — a run that raises
    included.  One context may be installed across several engines (the
    serve layer runs one engine per batch): regions and counts add up,
    which is exactly what a service-level profile wants.  The context
    references no component, so a finished engine is collectable while
    the context lives.
    """

    def __init__(self, clock=wall_now):
        self.regions = RegionProfiler(clock=clock)
        #: Work counts by name, summed over the engines run under this
        #: context.
        self.counters: Dict[str, int] = {}
        self.cell = self.regions.cell
        self.timed = self.regions.timed

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
        return self

    def add_counts(self, counts: Mapping[str, int]) -> None:
        """Add one engine's work counts into :attr:`counters`."""
        totals = self.counters
        for name, value in counts.items():
            totals[name] = totals.get(name, 0) + value

    def counters_dict(self) -> Dict[str, int]:
        """The work counts in sorted-name order (canonical form)."""
        return {k: self.counters[k] for k in sorted(self.counters)}

    def fingerprint(self) -> str:
        return counter_fingerprint(self.counters)

    # -- reporting ------------------------------------------------------
    def report_dict(self, meta: Optional[dict] = None) -> dict:
        """The JSON profile document (validated by
        :func:`repro.obs.validate.validate_profile_doc`)."""
        return {
            "kind": PROFILE_DOC_KIND,
            "version": PROFILE_DOC_VERSION,
            "meta": dict(meta or {}),
            "regions": self.regions.rows(),
            "counters": self.counters_dict(),
            "fingerprint": self.fingerprint(),
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
        lines.append(f"{'fingerprint':<{width}}  {self.fingerprint():>14}")
        return "\n".join(lines)

    def save_json(self, path: str, meta: Optional[dict] = None) -> None:
        atomic_write_text(
            path, json.dumps(self.report_dict(meta), indent=2) + "\n"
        )

    def save_collapsed(self, path: str) -> None:
        atomic_write_text(path, self.to_collapsed())
