"""Locality-aware concurrent packet pool.

The pool is the flow-control heart of LCI: it holds a *fixed* number of
packets per host, so memory for communication buffers is bounded for the
whole run (Fig. 5) and a sender that outruns the network simply fails to
allocate and retries (no MPI-style crash).  The locality-aware design
(the paper's reference [16]) gives each thread a small private cache of
free packets: a cache hit costs a fraction of an atomic op and reuses a
warm buffer, a miss falls back to the shared lock-free pool at full
atomic cost.

Allocation is non-blocking and can return ``None``; that is the API
contract (Algorithm 1 returns NULL when ``packetAlloc`` fails).

The pool manages a *budget* (how many packets a host may have in
flight), which is plain integer arithmetic: ``_free`` plus per-thread
cache counts.  The packet descriptors drawn on that budget are ordinary
objects, built by :meth:`make_packet` and dropped when the last holder
lets go — the same path whether or not a fault injector or obs context
is attached.

The pool checks its own lifecycle on every run and raises
:class:`~repro.sanitize.SanitizerError` where a rule breaks; the checks
only read state, so they never move simulated time:

* ``lci.pool_double_free``      — a free that would push the free count
  past the pool's fixed capacity (some budget was returned twice);
* ``lci.packet_double_free``    — one packet retired twice by this host;
* ``lci.packet_use_after_free`` — a packet this host retired, handled
  again by the server or the receive path.
"""

from __future__ import annotations

from typing import Dict, List

from repro.netapi.packet import Packet, PacketType
from repro.sanitize import SanitizerError
from repro.sim.engine import Environment, Event
from repro.sim.machine import CpuModel

__all__ = ["PacketPool"]


class PacketPool:
    """Fixed-size pool of reusable packet buffers for one host."""

    def __init__(
        self,
        env: Environment,
        cpu: CpuModel,
        size: int,
        packet_data_bytes: int,
        local_cache_packets: int = 4,
        local_hit_cost_factor: float = 0.25,
        rx_reserve: int = 2,
        host: int = 0,
    ):
        """``rx_reserve`` packets are usable only by the receive path
        (the communication server's preposted buffers): send-side
        allocations fail once the shared pool drops to the reserve.
        This guarantees the server can always accept arrivals, breaking
        the cyclic rendezvous deadlock a fully-starved symmetric pool
        would otherwise allow (every budget parked in an outgoing RTS,
        no host able to accept the incoming ones).  ``host`` names the
        owner in a lifecycle violation.
        """
        if size < 1:
            raise ValueError("pool size must be >= 1")
        if rx_reserve >= size:
            rx_reserve = max(0, size - 1)
        self.env = env
        self.cpu = cpu
        self.host = host
        self.size = size
        self.rx_reserve = rx_reserve
        self.packet_data_bytes = packet_data_bytes
        self.local_cache_packets = local_cache_packets
        self.local_hit_cost_factor = local_hit_cost_factor
        #: Free descriptors in the shared pool (counts, not objects: the
        #: *budget* is what flow control manages).
        self._free = size
        #: thread-key -> private free count.
        self._local: Dict[object, int] = {}
        self._availability_waiters: List[Event] = []
        # Counts, read at export.
        self.alloc_local_hits = 0
        self.alloc_global_hits = 0
        self.alloc_steals = 0
        self.alloc_failures = 0
        self.free_local = 0
        self.free_global = 0
        #: Calls of :meth:`free_nowait` (the method has the plain name).
        self.free_nowaits = 0
        # Frequently-used cost constants.
        self._atomic = cpu.atomic_op
        self._atomic_local = cpu.atomic_op * local_hit_cost_factor

    # ------------------------------------------------------------------
    @property
    def free_packets(self) -> int:
        return self._free + sum(self._local.values())

    @property
    def in_use(self) -> int:
        return self.size - self.free_packets

    def bytes_allocated(self) -> int:
        """Total preallocated communication-buffer bytes (constant)."""
        return self.size * self.packet_data_bytes

    def register_obs(self, obs, host: int) -> None:
        """Expose pool occupancy to the observability sampler."""
        obs.register_probe("lci.pool_in_use", host, lambda: self.in_use)
        obs.register_probe("lci.pool_free", host, lambda: self.free_packets)

    # ------------------------------------------------------------------
    def alloc(self, thread: object = None, for_recv: bool = False,
              lead: tuple = ()):
        """Generator: try to take a packet budget; returns bool success.

        Charges a fraction of an atomic on a local-cache hit, a full
        atomic on a shared-pool hit, and a full atomic on failure (the
        failed fetch still crossed the cache line).  Send-side allocs
        (``for_recv=False``) cannot dip into the receive reserve.

        ``lead`` is what the caller has charged since its last wake; a
        shared-pool fetch chains its atomic onto it (the pool is first
        touched after that charge), a cache lookup has to wait it out.
        """
        if thread is not None:
            if lead:
                yield lead
                lead = ()
            local = self._local.get(thread, 0)
            if local > 0:
                self._local[thread] = local - 1
                self.alloc_local_hits += 1
                yield self._atomic_local
                return True
        yield lead + (self._atomic,) if lead else self._atomic
        floor = 0 if for_recv else self.rx_reserve
        if self._free > floor:
            self._free -= 1
            self.alloc_global_hits += 1
            return True
        # Steal path: the shared pool is at its floor but other threads'
        # private caches may hold free packets; raid the fullest cache
        # (an extra atomic — the locality-aware pool's slow path).
        # Send-side steals still honour the receive reserve against the
        # *total* free count.
        if for_recv or self.free_packets > self.rx_reserve:
            victim = None
            for key, count in self._local.items():
                if count > 0 and (victim is None or count > self._local[victim]):
                    victim = key
            if victim is not None:
                self._local[victim] -= 1
                self.alloc_steals += 1
                yield self._atomic
                return True
        self.alloc_failures += 1
        return False

    def _check_free(self) -> None:
        if self.free_packets >= self.size:
            raise SanitizerError(
                "lci.pool_double_free", self.host, self.env.now,
                "packet budget freed twice: free count would exceed the "
                f"pool's fixed capacity ({self.size})",
                {"free_packets": self.free_packets, "pool_size": self.size})

    def free(self, thread: object = None):
        """Generator: return a packet budget to the pool."""
        self._check_free()
        if thread is not None:
            local = self._local.get(thread, 0)
            if local < self.local_cache_packets:
                self._local[thread] = local + 1
                self.free_local += 1
                yield self._atomic_local
                self._wake()
                return
        yield self._atomic
        self._free += 1
        self.free_global += 1
        self._wake()

    def free_nowait(self, thread: object = None) -> None:
        """Zero-cost variant for completion callbacks (cost was prepaid by
        the operation that armed the callback)."""
        self._check_free()
        self.free_nowaits += 1
        if thread is not None:
            local = self._local.get(thread, 0)
            if local < self.local_cache_packets:
                self._local[thread] = local + 1
                self._wake()
                return
        self._free += 1
        self._wake()

    def _wake(self) -> None:
        if self._availability_waiters:
            waiters, self._availability_waiters = self._availability_waiters, []
            for ev in waiters:
                ev.succeed(None)

    def wait_available(self, for_recv: bool = False) -> Event:
        """Event firing when a free packet may be available (helper for
        blocking wrappers; the core API stays non-blocking).  Send-side
        waiters only fire once the pool is above the receive reserve."""
        ev = Event(self.env)
        if for_recv:
            ready = self.free_packets > 0
        else:
            ready = self.free_packets > self.rx_reserve
        if ready:
            ev.succeed(None)
        else:
            self._availability_waiters.append(ev)
        return ev

    def make_packet(
        self, ptype: PacketType, src: int, dst: int, tag: int, size: int,
        payload=None,
    ) -> Packet:
        """Build a packet descriptor drawing on an already-allocated budget."""
        pkt = Packet(ptype, src, dst, tag, size, payload=payload)
        pkt.pool = self
        return pkt

    # -- packet lifecycle -------------------------------------------------
    def touch(self, pkt: Packet) -> None:
        """``pkt``'s buffer is being read or handled."""
        if self.host in pkt.retired_by:
            raise SanitizerError(
                "lci.packet_use_after_free", self.host, self.env.now,
                f"packet {pkt!r} handled after its pool budget was "
                "recycled (stale read of a reused buffer)",
                {"packet": pkt.uid})

    def retire(self, pkt: Packet) -> None:
        """``pkt`` is recycled (its budget is being freed): touching it
        afterwards is a use-after-free."""
        if self.host in pkt.retired_by:
            raise SanitizerError(
                "lci.packet_double_free", self.host, self.env.now,
                f"packet {pkt!r} retired twice (its pool budget was "
                "already recycled)",
                {"packet": pkt.uid})
        pkt.retired_by += (self.host,)
