"""Simulated NIC endpoints and the fabric connecting them.

Timing follows the LogGP family: a packet injected at time ``t`` waits for
the NIC's transmit pipeline (serialization at link bandwidth, with a
minimum inter-message gap enforcing the NIC's message-rate cap), crosses
the wire after latency ``L``, and appears in the destination NIC's receive
queue.  CPU-side overheads (``o_s``/``o_r``) are charged by the *callers*
(the communication layers), because where those cycles are spent — and by
which thread — is precisely what differs between MPI and LCI.

Injection can fail when the transmit queue is full (``try_inject`` returns
``False``).  This is the hardware behaviour that MPI hides (and sometimes
crashes on — Section III-B) and that LCI surfaces to the caller as a
retryable condition.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.sim.engine import Environment, Event, SimulationError
from repro.sim.machine import MachineModel, NicModel
from repro.netapi.packet import Packet, PacketType

__all__ = ["RegisteredBuffer", "Nic", "Fabric"]


_rkey_counter = itertools.count(1)


class RegisteredBuffer:
    """A memory region registered for RDMA access.

    ``lc_put`` targets one of these via its ``rkey``.  The simulated
    contents are whatever payload objects remote peers deposit; ``nbytes``
    is the simulated capacity used for accounting and bounds checks.
    """

    def __init__(self, host: int, nbytes: int, label: str = ""):
        self.host = host
        self.nbytes = int(nbytes)
        self.label = label
        self.rkey = next(_rkey_counter)
        #: offset -> payload object, as deposited by remote puts.
        self.contents: Dict[int, object] = {}
        self.bytes_written = 0
        self.revoked = False

    def write(self, offset: int, payload: object, nbytes: int) -> None:
        if self.revoked:
            raise SimulationError(f"RDMA write to revoked buffer {self.label!r}")
        if offset < 0 or offset + nbytes > self.nbytes:
            raise SimulationError(
                f"RDMA write out of bounds: [{offset}, {offset + nbytes}) "
                f"into {self.nbytes}-byte buffer {self.label!r}"
            )
        self.contents[offset] = payload
        self.bytes_written += nbytes

    def clear(self) -> None:
        self.contents.clear()
        self.bytes_written = 0

    def revoke(self) -> None:
        self.revoked = True


class Nic:
    """One host's network interface.

    ``try_inject`` and ``deliver`` are the only per-packet code: one path
    that reads the fabric's optional instruments (``faults``, ``obs``,
    ``commstats``) as plain attributes on every call, so attaching or
    detaching one needs no rebinding and a run schedules exactly the same
    queue entries either way.
    """

    def __init__(
        self,
        env: Environment,
        fabric: "Fabric",
        host: int,
        model: NicModel,
    ):
        self.env = env
        self.fabric = fabric
        self.host = host
        self.model = model
        self.rx_queue: Deque[Packet] = deque()
        self._arrival_waiters: List[Event] = []
        self._tx_free_at = 0.0
        self._tx_outstanding = 0
        #: Queue positions of the departures that give a transmit
        #: slot back and do nothing else.  They get no queue entry:
        #: whoever reads the slot count first settles the past ones.
        self._tx_departures: Deque[Tuple[float, int]] = deque()
        self._registered: Dict[int, RegisteredBuffer] = {}
        # Counts, read at export (``Fabric.total``).
        self.tx_queue_full = 0
        self.pkts_sent = 0
        self.bytes_sent = 0
        self.pkts_received = 0
        self.bytes_received = 0

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def try_inject(
        self,
        pkt: Packet,
        on_local_complete: Optional[Callable[[], None]] = None,
        notify_target: bool = True,
    ) -> bool:
        """Hand ``pkt`` to the NIC; returns False if the TX queue is full.

        ``on_local_complete`` fires when the send buffer may be reused:
        at wire departure for plain sends, and after the remote ACK for
        RDMA puts.  A departure with nothing to fire only gives its
        transmit slot back, which :attr:`tx_outstanding` accounts for
        without a queue entry.  ``notify_target`` controls whether the destination CPU
        sees the packet in its receive queue (False models a pure RDMA
        write with no completion at the target, as used by MPI-RMA).
        """
        if pkt.src != self.host:
            raise SimulationError(
                f"packet src {pkt.src} injected from host {self.host}"
            )
        fabric = self.fabric
        model = self.model
        faults = fabric.faults
        if faults is not None and faults.tx_blocked(self.host, pkt):
            # An injected NIC stall looks exactly like a full TX queue:
            # the retryable condition the comm layers already handle.
            self.tx_queue_full += 1
            return False
        if self.tx_outstanding >= model.tx_queue_depth:
            self.tx_queue_full += 1
            return False

        env = self.env
        wire_bytes = pkt.wire_bytes
        ser = model.serialization_time(wire_bytes)
        gap = model.injection_gap
        latency = model.latency
        is_rdma = pkt.ptype is PacketType.RDMA
        if is_rdma:
            latency += model.rdma_extra_latency
        if faults is not None:
            ser, latency = faults.link_adjust(pkt, ser, latency)
        now = env._now
        start = self._tx_free_at
        if now > start:
            start = now
        self._tx_free_at = start + (ser if ser > gap else gap)
        departure = start + ser
        arrival = departure + latency

        # The instant a queue entry for the departure fires at.
        departs_at = now + (departure - now)
        self._tx_outstanding += 1
        self.pkts_sent += 1
        self.bytes_sent += wire_bytes
        obs = fabric.obs
        if obs is not None:
            obs.on_inject(pkt)
            obs.on_depart(pkt, departs_at)
        commstats = fabric.commstats
        if commstats is not None:
            # Counted at injection, right after the always-on NIC
            # counters, so the traffic matrices telescope exactly to
            # pkts_sent/bytes_sent (dropped packets included).
            commstats.on_inject(pkt)

        if is_rdma or on_local_complete is None:
            self._tx_departures.append((departs_at, env._seq))
        else:
            def _departed() -> None:
                self._tx_outstanding -= 1
                on_local_complete()

            env.call_later(departure - now, _departed)

        dst_nic = fabric.nic(pkt.dst)
        fate = faults.transit_fate(pkt) if faults is not None else None
        if fate is not None and fate.dropped:
            # Vanished in transit: the sender saw a clean departure, the
            # receiver sees nothing.  For RDMA the hardware completion is
            # lost with the packet — the classic lost-completion fault.
            if obs is not None:
                obs.on_drop(pkt)
            if commstats is not None:
                commstats.on_drop(pkt)
            return True

        def _arrived() -> None:
            if obs is not None:
                obs.on_arrive(pkt, notify_target)
            if is_rdma:
                self._complete_rdma(pkt, dst_nic)
                if on_local_complete is not None:
                    # Hardware completion after the ACK returns.
                    env.call_later(model.latency, on_local_complete)
            if notify_target:
                dst_nic.deliver(pkt)

        if fate is not None:
            arrival += fate.delay
        env.call_later(arrival - now, _arrived)
        if fate is not None and fate.duplicated and notify_target:
            # A second copy of the wire packet reaches the receive queue;
            # whether that is deduplicated or double-processed is up to
            # the communication layer (LCI dedupes, MPI diverges).
            env.call_later(
                arrival + fate.dup_delay - now,
                lambda: dst_nic.deliver(pkt),
            )
        return True

    def _complete_rdma(self, pkt: Packet, dst_nic: "Nic") -> None:
        rkey = pkt.meta.get("rkey")
        if rkey is None:
            raise SimulationError(f"RDMA packet without rkey: {pkt!r}")
        buf = dst_nic._registered.get(rkey)
        if buf is None:
            raise SimulationError(
                f"RDMA write to unknown rkey {rkey} on host {pkt.dst}"
            )
        buf.write(pkt.meta.get("offset", 0), pkt.payload, pkt.size)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def deliver(self, pkt: Packet) -> None:
        """Called by the fabric when a packet reaches this host."""
        if pkt.dst != self.host:
            raise SimulationError(
                f"packet for host {pkt.dst} delivered to host {self.host}"
            )
        self.rx_queue.append(pkt)
        self.pkts_received += 1
        self.bytes_received += pkt.wire_bytes
        obs = self.fabric.obs
        if obs is not None:
            obs.on_rx(pkt)
        if self._arrival_waiters:
            waiters, self._arrival_waiters = self._arrival_waiters, []
            for ev in waiters:
                ev.succeed(None)

    def poll(self) -> Optional[Packet]:
        """Harvest one received packet, if any (no cost charged here)."""
        if self.rx_queue:
            return self.rx_queue.popleft()
        return None

    def wait_arrival(self) -> Event:
        """Event that fires when the receive queue becomes non-empty.

        If packets are already pending the event fires immediately, so a
        progress loop built on this never sleeps through work.
        """
        ev = Event(self.env)
        if self.rx_queue:
            ev.succeed(None)
        else:
            self._arrival_waiters.append(ev)
        return ev

    # ------------------------------------------------------------------
    # RDMA registration
    # ------------------------------------------------------------------
    def register(self, nbytes: int, label: str = "") -> RegisteredBuffer:
        buf = RegisteredBuffer(self.host, nbytes, label=label)
        self._registered[buf.rkey] = buf
        return buf

    def deregister(self, buf: RegisteredBuffer) -> None:
        buf.revoke()
        self._registered.pop(buf.rkey, None)

    @property
    def tx_outstanding(self) -> int:
        """Packets injected and not yet departed."""
        departures = self._tx_departures
        if departures:
            reached = self.env.fired_before
            while departures and departures[0] < reached:
                departures.popleft()
                self._tx_outstanding -= 1
        return self._tx_outstanding


class Fabric:
    """The interconnect: one NIC per host, a shared cost model.

    It also carries the four optional instruments (``faults``, ``obs``,
    ``profiler``, ``commstats``) the components discover at construction.
    The protocol checks are not an instrument: the pool, endpoint and
    window that own the state check it on every run.
    """

    def __init__(
        self,
        env: Environment,
        num_hosts: int,
        machine: MachineModel,
    ):
        if num_hosts < 1:
            raise SimulationError("fabric needs at least one host")
        self.env = env
        self.num_hosts = num_hosts
        self.machine = machine
        # The optional instruments, each ``None`` until its context's
        # ``install()`` assigns it; components read them as plain
        # attributes.  Pure observation except ``faults``: a run with any
        # of the others attached is bit-identical to one without.
        #: :class:`repro.faults.FaultInjector`
        self.faults = None
        #: :class:`repro.obs.ObsContext` (message-lifecycle tracing)
        self.obs = None
        #: :class:`repro.obs.profile.ProfileContext` (host-side regions
        #: and deterministic work counters)
        self.profiler = None
        #: :class:`repro.obs.commstats.CommStatsContext` (traffic matrices)
        self.commstats = None
        self._nics = [Nic(env, self, h, machine.nic) for h in range(num_hosts)]

    def nic(self, host: int) -> Nic:
        if not 0 <= host < self.num_hosts:
            raise SimulationError(f"no such host: {host}")
        return self._nics[host]

    def total(self, counter: str) -> int:
        """Sum a per-NIC counter across all hosts."""
        return sum(getattr(n, counter) for n in self._nics)
