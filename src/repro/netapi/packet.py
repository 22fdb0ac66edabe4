"""Wire packets.

A :class:`Packet` is the unit the simulated fabric moves between hosts.
Payloads are carried as opaque Python objects (the graph runtimes put real
serialized update blobs in them, so algorithm correctness is end-to-end),
while ``size`` carries the number of *simulated* bytes used for all timing.

Packet types follow Section III-D of the paper:

* ``EGR``  — eager packet carrying the data inline (short protocol).
* ``RTS``  — ready-to-send: rendezvous control packet from the sender,
  advertising the source buffer.
* ``RTR``  — ready-to-receive: rendezvous control packet from the receiver,
  advertising the destination buffer.
* ``RDMA`` — the bulk transfer performed by ``lc_put`` (RDMA write with
  completion notification at the target).

The MPI layers reuse the same wire packets with their own headers stored in
``meta`` (tags, communicator context, window/offset for RMA), which mirrors
how real MPIs layer matching information over the raw transport.

Packets are ``__slots__`` records built fresh per message and freed by
reference count; ``uid`` is unique per construction, so traces and
tie-breaks never alias.  :meth:`Packet.alloc` / :meth:`Packet.recycle`
(a class-level free-list) have no caller in the runtime — measured, the
allocator is as fast — and remain only because ``benchmarks/perf/probes.py``
calls them.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Dict, List, Optional

__all__ = ["PacketType", "Packet", "CONTROL_PACKET_BYTES", "PACKET_HEADER_BYTES"]

#: Simulated size of a control-only packet (RTS/RTR): one cache line of
#: header plus addressing information.
CONTROL_PACKET_BYTES = 64

#: Header bytes prepended to every data packet on the wire.
PACKET_HEADER_BYTES = 32


class PacketType(enum.Enum):
    EGR = "EGR"
    RTS = "RTS"
    RTR = "RTR"
    RDMA = "RDMA"
    #: Delivery acknowledgement of LCI's ack/retransmit recovery
    #: protocol (only on the wire when a fault plan is installed).
    ACK = "ACK"

    def __repr__(self) -> str:
        return f"PacketType.{self.name}"


_packet_ids = itertools.count()

_CONTROL_TYPES = (PacketType.RTS, PacketType.RTR, PacketType.ACK)


class Packet:
    """A message descriptor moving through the simulated fabric."""

    __slots__ = ("ptype", "src", "dst", "tag", "size", "payload", "meta",
                 "uid", "request", "pool", "retired_by")

    #: Dead descriptors awaiting reuse (see module docstring).
    _free: List["Packet"] = []

    def __init__(
        self,
        ptype: PacketType,
        src: int,
        dst: int,
        tag: int,
        #: Simulated payload bytes (excluding header overhead).
        size: int,
        #: The actual data object (ignored by the fabric, used by receivers).
        payload: Any = None,
        #: Layer-specific header fields (MPI context id, RMA window/offset,
        #: rendezvous buffer handles, ...).
        meta: Optional[Dict[str, Any]] = None,
        #: Unique id, for tracing and deterministic tie-breaking in tests.
        uid: Optional[int] = None,
        #: Set by the LCI layer: the request this packet is tied to.
        request: Optional[Any] = None,
        #: For pool-managed packets: the owning pool, so frees return home.
        pool: Optional[Any] = None,
    ):
        self.ptype = ptype
        self.src = src
        self.dst = dst
        self.tag = tag
        self.size = size
        self.payload = payload
        self.meta = {} if meta is None else meta
        self.uid = next(_packet_ids) if uid is None else uid
        self.request = request
        self.pool = pool
        #: Hosts whose pool has retired (recycled) this packet.  Per
        #: host, because the transport hands one object to both ends.
        self.retired_by = ()

    @classmethod
    def alloc(
        cls,
        ptype: PacketType,
        src: int,
        dst: int,
        tag: int,
        size: int,
        payload: Any = None,
    ) -> "Packet":
        """A packet from the free-list (or fresh), with a fresh ``uid``."""
        free = cls._free
        if free:
            pkt = free.pop()
            pkt.ptype = ptype
            pkt.src = src
            pkt.dst = dst
            pkt.tag = tag
            pkt.size = size
            pkt.payload = payload
            if pkt.meta:
                pkt.meta.clear()
            pkt.uid = next(_packet_ids)
            pkt.request = None
            pkt.pool = None
            pkt.retired_by = ()
            return pkt
        return cls(ptype, src, dst, tag, size, payload=payload)

    def recycle(self) -> None:
        """Hand a provably-dead descriptor back to the free-list.

        Caller contract: no live reference remains anywhere (fabric,
        queues, requests, traces).  Payload and request references are
        dropped eagerly so recycling never extends object lifetimes.
        """
        self.payload = None
        self.request = None
        self.pool = None
        Packet._free.append(self)

    @property
    def wire_bytes(self) -> int:
        """Bytes the fabric serializes for this packet."""
        if self.ptype in _CONTROL_TYPES:
            return CONTROL_PACKET_BYTES
        return self.size + PACKET_HEADER_BYTES

    def __repr__(self) -> str:
        return (
            f"Packet(#{self.uid} {self.ptype.name} {self.src}->{self.dst} "
            f"tag={self.tag} size={self.size})"
        )
