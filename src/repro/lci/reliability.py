"""Sequence-numbered ack/retransmit recovery for the LCI runtime.

The paper's robustness claim (Sections III-B/III-D) is that LCI surfaces
network-resource problems as *retryable conditions* instead of hiding or
crashing on them.  This module extends that stance to lossy transport:
when a fault plan can drop, duplicate, or reorder packets
(``FaultPlan.needs_reliability``), every LCI runtime arms a
:class:`ReliableLink` and the layer recovers transparently —

* every outgoing packet carries a per-destination sequence number in
  ``pkt.meta["rseq"]``;
* the receiver acknowledges **every** data packet (including duplicates
  — the earlier ACK may have been the casualty) with a control-sized
  ``ACK`` packet, and drops packets whose sequence number it has already
  seen, so duplicates never reach the protocol handlers;
* the sender holds each packet until its ACK returns, retransmitting on
  an adaptive timeout (base RTO plus twice the packet's wire time) with
  exponential backoff; local-completion callbacks — the ones that
  recycle buffers through the packet pool — are deferred until the ACK,
  because a retransmission needs the buffer intact.

Without a fault plan none of this exists: ``LciQueue._lc_send`` calls
``Nic.try_inject`` directly and no sequence numbers, ACKs, or timers are
ever created — the happy path is untouched.

The MPI layers deliberately get **no** such protocol: real MPI assumes a
reliable transport, so under the same fault plans they hang on lost
completions or corrupt their matching state — the divergence the chaos
harness measures.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from repro.netapi.packet import Packet, PacketType
from repro.sim.engine import SimulationError

__all__ = ["ReliableLink"]


class _Unacked:
    """One packet awaiting acknowledgement."""

    __slots__ = ("pkt", "on_local_complete", "rto", "retries")

    def __init__(self, pkt, on_local_complete, rto):
        self.pkt = pkt
        self.on_local_complete = on_local_complete
        self.rto = rto
        self.retries = 0


class ReliableLink:
    """Per-host sender/receiver state of the recovery protocol."""

    #: The protocol's counts: ``int`` attributes, zeroed at construction.
    COUNTERS = (
        "rel_sends", "retransmissions", "acks", "dup_pkts_dropped",
        "dup_acks", "retransmit_tx_full", "ack_tx_full",
    )

    def __init__(self, env, nic, config):
        self.env = env
        self.nic = nic
        self.config = config
        self.closed = False
        for name in self.COUNTERS:
            setattr(self, name, 0)
        #: Next sequence number per destination host.
        self._next_seq: Dict[int, int] = {}
        #: (dst, seq) -> in-flight packet state.
        self._unacked: Dict[Tuple[int, int], _Unacked] = {}
        #: Sequence numbers already delivered, per source host.
        self._seen: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def send(
        self,
        pkt: Packet,
        on_local_complete: Optional[Callable[[], None]] = None,
    ) -> bool:
        """Sequence and inject ``pkt``; False when the NIC refused it.

        A refused injection consumes no sequence number, so the caller's
        retry re-enters here cleanly.
        """
        dst = pkt.dst
        seq = self._next_seq.get(dst, 0)
        pkt.meta["rseq"] = seq
        if not self.nic.try_inject(pkt):
            del pkt.meta["rseq"]
            return False
        self._next_seq[dst] = seq + 1
        entry = _Unacked(pkt, on_local_complete, self._initial_rto(pkt))
        self._unacked[(dst, seq)] = entry
        self.rel_sends += 1
        self._arm_timer(dst, seq, entry, entry.rto)
        return True

    def _initial_rto(self, pkt: Packet) -> float:
        """Base RTO plus a round trip of this packet's wire time, so the
        timeout scales with rendezvous payload sizes."""
        wire = self.nic.model.serialization_time(pkt.wire_bytes)
        return self.config.rto + 2.0 * (wire + self.nic.model.latency)

    def _arm_timer(self, dst: int, seq: int, entry: _Unacked, delay: float):
        def _expired() -> None:
            if self.closed or (dst, seq) not in self._unacked:
                return
            if entry.retries >= self.config.rto_max_retries:
                raise SimulationError(
                    f"host {self.nic.host}: packet seq={seq} to {dst} "
                    f"unacknowledged after {entry.retries} retransmissions "
                    f"— link presumed dead"
                )
            entry.retries += 1
            entry.rto *= self.config.rto_backoff
            if self.nic.try_inject(entry.pkt):
                self.retransmissions += 1
                self._arm_timer(dst, seq, entry, entry.rto)
            else:
                # TX full right now: try again shortly without burning
                # another backoff step.
                entry.retries -= 1
                entry.rto /= self.config.rto_backoff
                self.retransmit_tx_full += 1
                self._arm_timer(
                    dst, seq, entry, 4 * self.nic.model.injection_gap
                )

        self.env.schedule_callback(delay, _expired)

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def on_receive(self, pkt: Packet) -> Optional[Packet]:
        """Filter one harvested packet.

        Returns the packet when the server should process it, ``None``
        when the protocol consumed it (an ACK, or a duplicate delivery).
        """
        if pkt.ptype is PacketType.ACK:
            self._handle_ack(pkt)
            return None
        seq = pkt.meta.get("rseq")
        if seq is None:
            return pkt
        # Always acknowledge — a duplicate usually means our previous ACK
        # was lost.  Best effort: if the TX queue refuses, the sender's
        # retransmission will solicit another one.
        ack = Packet(PacketType.ACK, self.nic.host, pkt.src, tag=0, size=0)
        ack.meta["ack"] = seq
        if not self.nic.try_inject(ack):
            self.ack_tx_full += 1
        seen = self._seen.setdefault(pkt.src, set())
        if seq in seen:
            self.dup_pkts_dropped += 1
            return None
        seen.add(seq)
        return pkt

    def _handle_ack(self, ack: Packet) -> None:
        entry = self._unacked.pop((ack.src, ack.meta["ack"]), None)
        if entry is None:
            self.dup_acks += 1
            return
        self.acks += 1
        if entry.on_local_complete is not None:
            entry.on_local_complete()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear down with the server: cancel every pending retransmission.

        Packets still unacknowledged at shutdown are abandoned, but their
        local-completion callbacks still run, so every budget they hold
        goes home to the pool (the run is over, so no retransmission
        needs the buffer).  Zero simulated time.
        """
        self.closed = True
        abandoned, self._unacked = self._unacked, {}
        for entry in abandoned.values():
            if entry.on_local_complete is not None:
                entry.on_local_complete()

    @property
    def in_flight(self) -> int:
        return len(self._unacked)
