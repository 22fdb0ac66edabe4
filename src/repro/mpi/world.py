"""MpiWorld: the set of endpoints on a fabric, plus collective helpers."""

from __future__ import annotations

import math
from typing import List

from repro.mpi.config import MpiConfig, ThreadMode
from repro.mpi.endpoint import MpiEndpoint, _BARRIER_TAG
from repro.netapi.nic import Fabric
from repro.netapi.packet import Packet, PacketType
from repro.sim.engine import Environment

__all__ = ["MpiWorld"]


class MpiWorld:
    """All ranks' MPI endpoints over one simulated fabric.

    One endpoint per host; rank == host id.  The world also provides a
    dissemination barrier used by collectives and by the BSP engines'
    round structure.
    """

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        config: MpiConfig,
        thread_mode: ThreadMode = ThreadMode.FUNNELED,
    ):
        self.env = env
        self.fabric = fabric
        self.config = config
        self.size = fabric.num_hosts
        self.endpoints: List[MpiEndpoint] = []
        for rank in range(self.size):
            ep = MpiEndpoint(
                env,
                rank,
                fabric.nic(rank),
                fabric.machine.cpu,
                config,
                thread_mode=thread_mode,
            )
            ep._world = self
            self.endpoints.append(ep)
        self._barrier_round = [0] * self.size

    def endpoint(self, rank: int) -> MpiEndpoint:
        return self.endpoints[rank]

    def barrier(self, rank: int):
        """Dissemination barrier; call from every rank's process.

        log2(p) rounds; in round k, rank sends to (rank + 2^k) mod p and
        waits for the matching message from (rank - 2^k) mod p.  Uses a
        reserved internal tag so it never collides with user traffic.
        """
        p = self.size
        if p == 1:
            return
            yield  # pragma: no cover - makes this a generator
        ep = self.endpoint(rank)
        base = self._barrier_round[rank]
        self._barrier_round[rank] += 1
        rounds = int(math.ceil(math.log2(p)))
        for k in range(rounds):
            dist = 1 << k
            dst = (rank + dist) % p
            src = (rank - dist) % p
            pkt = Packet(
                PacketType.EGR, rank, dst, _BARRIER_TAG, 8,
                payload=(base, k),
            )
            yield from ep._inject(pkt)
            yield from ep._barrier_wait_msg(src, (base, k))
