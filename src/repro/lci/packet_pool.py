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

Representation: the pool is struct-of-arrays.  The *budget* (how many
packets a host may have in flight) is plain integer arithmetic
(``_free`` plus per-thread cache counts), and the packet descriptors
themselves live in a slot-indexed parallel list (``_slot_pkts``) with an
integer free-stack (``_free_idx``) — acquiring a descriptor pops a slot
index and re-stamps the resident object in place, releasing one pushes
the index back.  No allocation, no collection, on the steady-state path.
Descriptor reuse is only armed (:meth:`enable_packet_reuse`) when no
fault injector, tracer, or sanitizer could still be holding the old
incarnation; otherwise :meth:`make_packet` falls back to fresh objects
and behaviour is exactly the historical one.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.netapi import packet as _packet_mod
from repro.netapi.packet import Packet, PacketType
from repro.sim.engine import Environment, Event
from repro.sim.machine import CpuModel
from repro.sim.monitor import StatRegistry

__all__ = ["PacketPool"]


def _noop_lifecycle(pkt) -> None:
    """Shared no-op bound into ``touch``/``retire`` when nothing listens."""


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
        stats: Optional[StatRegistry] = None,
    ):
        """``rx_reserve`` packets are usable only by the receive path
        (the communication server's preposted buffers): send-side
        allocations fail once the shared pool drops to the reserve.
        This guarantees the server can always accept arrivals, breaking
        the cyclic rendezvous deadlock a fully-starved symmetric pool
        would otherwise allow (every budget parked in an outgoing RTS,
        no host able to accept the incoming ones).
        """
        if size < 1:
            raise ValueError("pool size must be >= 1")
        if rx_reserve >= size:
            rx_reserve = max(0, size - 1)
        self.env = env
        self.cpu = cpu
        self.size = size
        self.rx_reserve = rx_reserve
        self.packet_data_bytes = packet_data_bytes
        self.local_cache_packets = local_cache_packets
        self.local_hit_cost_factor = local_hit_cost_factor
        self.stats = stats or StatRegistry("lci.pool")
        #: Free descriptors in the shared pool (counts, not objects: the
        #: *budget* is what flow control manages; the descriptor slots
        #: below are managed independently).
        self._free = size
        #: thread-key -> private free count.
        self._local: Dict[object, int] = {}
        self._availability_waiters: List[Event] = []
        # -- slot-indexed descriptor storage (struct-of-arrays) --
        #: slot id -> resident Packet object (lazily built on first use).
        self._slot_pkts: List[Optional[Packet]] = [None] * size
        #: free slot ids; acquire = pop, release = append.
        self._free_idx: List[int] = list(range(size - 1, -1, -1))
        #: Descriptor reuse armed (see module docstring).
        self._reuse = False
        #: Optional lifecycle checker (repro.sanitize.lci_checks.
        #: LciSanitizer), attached by the owning queue when sanitizers
        #: are armed.  Pure observation: never charges simulated time.
        #: Assigning it rebinds the ``touch``/``retire`` hook slots.
        self._sanitizer = None
        self.touch = _noop_lifecycle
        self.retire = _noop_lifecycle
        #: Pure slot reclamation for descriptors that die without a
        #: ``retire`` (the RTS after its RTR is built): a no-op unless
        #: reuse is armed, and never visible to sanitizers/analyzers.
        self.reclaim = _noop_lifecycle
        # Hoisted counters: one registry lookup per pool, not per op.
        self._c_local_hits = self.stats.counter("alloc_local_hits")
        self._c_global_hits = self.stats.counter("alloc_global_hits")
        self._c_steals = self.stats.counter("alloc_steals")
        self._c_failures = self.stats.counter("alloc_failures")
        self._c_free_local = self.stats.counter("free_local")
        self._c_free_global = self.stats.counter("free_global")
        self._c_free_nowait = self.stats.counter("free_nowait")
        # Frequently-used cost constants.
        self._atomic = cpu.atomic_op
        self._atomic_local = cpu.atomic_op * local_hit_cost_factor
        # Memory accounting: the pool preallocates all its buffers once.
        self.stats.peak("pool_bytes").add(size * packet_data_bytes)

    # ------------------------------------------------------------------
    @property
    def sanitizer(self):
        return self._sanitizer

    @sanitizer.setter
    def sanitizer(self, value) -> None:
        self._sanitizer = value
        self._rebind_lifecycle()

    def enable_packet_reuse(self) -> None:
        """Arm slot-resident descriptor reuse.

        Only call when no fault injector (duplicate deliveries keep dead
        descriptors live), no obs tracer, and no sanitizer (tracks
        per-descriptor lifecycles) is attached — the owning queue checks
        those conditions at wiring time.
        """
        self._reuse = True
        self._rebind_lifecycle()

    def _rebind_lifecycle(self) -> None:
        if self._sanitizer is not None:
            self._reuse = False
            self.touch = self._touch_sanitized
            self.retire = self._retire_sanitized
            self.reclaim = _noop_lifecycle
        elif self._reuse:
            self.touch = _noop_lifecycle
            self.retire = self._retire_reuse
            self.reclaim = self._retire_reuse
        else:
            self.touch = _noop_lifecycle
            self.retire = _noop_lifecycle
            self.reclaim = _noop_lifecycle

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
                self._c_local_hits.add()
                if self._sanitizer is not None:
                    self._sanitizer.on_alloc()
                yield self._atomic_local
                return True
        yield lead + (self._atomic,) if lead else self._atomic
        floor = 0 if for_recv else self.rx_reserve
        if self._free > floor:
            self._free -= 1
            self._c_global_hits.add()
            if self._sanitizer is not None:
                self._sanitizer.on_alloc()
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
                self._c_steals.add()
                if self._sanitizer is not None:
                    self._sanitizer.on_alloc()
                yield self._atomic
                return True
        self._c_failures.add()
        return False

    def free(self, thread: object = None):
        """Generator: return a packet budget to the pool."""
        if self._sanitizer is not None:
            self._sanitizer.on_free(self)
        if thread is not None:
            local = self._local.get(thread, 0)
            if local < self.local_cache_packets:
                self._local[thread] = local + 1
                self._c_free_local.add()
                yield self._atomic_local
                self._wake()
                return
        yield self._atomic
        self._free += 1
        self._c_free_global.add()
        self._wake()

    def free_nowait(self, thread: object = None) -> None:
        """Zero-cost variant for completion callbacks (cost was prepaid by
        the operation that armed the callback)."""
        if self._sanitizer is not None:
            self._sanitizer.on_free(self)
        self._c_free_nowait.add()
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
        """Build a packet descriptor drawing on an already-allocated budget.

        With reuse armed, the descriptor comes out of a pool slot and is
        re-stamped in place (fresh ``uid``, cleared ``meta``); otherwise a
        fresh object is built.  Either way the caller sees a packet in the
        exact state a newly-constructed one would have.
        """
        if self._reuse and self._free_idx:
            slot = self._free_idx.pop()
            pkt = self._slot_pkts[slot]
            if pkt is None:
                pkt = Packet(ptype, src, dst, tag, size, payload=payload)
                pkt.slot = slot
                self._slot_pkts[slot] = pkt
            else:
                pkt.ptype = ptype
                pkt.src = src
                pkt.dst = dst
                pkt.tag = tag
                pkt.size = size
                pkt.payload = payload
                pkt.slot = slot
                if pkt.meta:
                    pkt.meta.clear()
                pkt.uid = next(_packet_mod._packet_ids)
                pkt.request = None
            pkt.pool = self
            return pkt
        pkt = Packet(ptype, src, dst, tag, size, payload=payload)
        pkt.pool = self
        if self._sanitizer is not None:
            self._sanitizer.on_packet_made(pkt)
        return pkt

    # ------------------------------------------------------------------
    # Packet lifecycle hook slots.
    #
    # ``touch(pkt)`` declares that a packet's buffer is being read or
    # handled; ``retire(pkt)`` marks it recycled (its budget is being
    # freed) — touching it afterwards is a use-after-free.  Both are
    # *rebindable slots*: plain no-ops by default, sanitizer checks when
    # one is attached, slot reclamation when descriptor reuse is armed.
    # The historical ``if sanitizer is not None`` branch is gone from
    # every per-packet call site.
    # ------------------------------------------------------------------
    def _retire_reuse(self, pkt: Packet) -> None:
        owner = pkt.pool
        if owner is not None and pkt.slot >= 0:
            # Cross-host retire is the norm (the receiver retires the
            # sender's descriptor): the slot goes back to its *owner*.
            owner._free_idx.append(pkt.slot)
            # slot < 0 while the descriptor sits on the free list makes
            # a double retire a no-op instead of handing the same slot
            # out twice; make_packet re-stamps it on reacquisition.
            pkt.slot = -1
            pkt.payload = None
            pkt.request = None

    def _retire_sanitized(self, pkt: Packet) -> None:
        self._sanitizer.on_packet_retired(pkt)

    def _touch_sanitized(self, pkt: Packet) -> None:
        self._sanitizer.on_packet_use(pkt)
