"""Machine cost models: CPUs, NICs, and cluster presets.

The paper evaluates on two clusters (its Table III):

* **Stampede2** — Intel Xeon Phi KNL 7250 (68 cores @ 1.4 GHz) with Intel
  Omni-Path (100 Gb/s, psm2).  Many slow cores; communication software
  overhead dominates at high thread counts.
* **Stampede1** — Intel Sandy Bridge E5-2680 (16 cores @ 2.7 GHz) with
  Mellanox Infiniband FDR (56 Gb/s, ibverbs).  Fewer, faster cores and a
  slower memory subsystem relative to its NIC.

The models here assign *simulated-time* costs to the primitive operations
the communication layers execute: network injection/reception overheads,
wire latency, serialization bandwidth, atomic operations, lock
acquisitions, memory copies, allocator calls, and per-edge/per-node graph
computation.  Absolute values are calibrated to the order of magnitude of
published measurements for these machines (see ``repro.bench.calibration``);
the reproduction's claims concern *relative* behaviour, which emerges from
the mechanisms, not from these constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

__all__ = ["CpuModel", "NicModel", "MachineModel", "stampede2", "stampede1", "PRESETS"]

#: Convenience unit constants (seconds / bytes).
US = 1e-6
NS = 1e-9
KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024


@dataclass(frozen=True)
class CpuModel:
    """Per-core software cost model.

    All times are seconds of simulated time charged to the executing
    simulated thread.
    """

    name: str
    #: Number of physical cores per host (the paper runs 1 thread/core).
    cores: int
    #: Cost of an uncontended atomic RMW (fetch-and-add / CAS).
    atomic_op: float
    #: Single-core memory-copy bandwidth, bytes/second.
    memcpy_bw: float
    #: Cost of one allocator call (malloc/free pair amortized).
    alloc_cost: float
    #: Fixed overhead of any library call into the communication stack.
    call_overhead: float
    #: Graph-kernel cost per edge processed (apply operator along an edge).
    per_edge_cost: float
    #: Graph-kernel cost per active node visited.
    per_node_cost: float
    #: Cost charged per element when serializing/deserializing label data
    #: in gather/scatter (index lookup + pack), on top of memcpy.
    per_item_pack_cost: float
    #: Multiplier on deserialization cost when reading *cache-cold*
    #: receive buffers (RMA's huge preallocated windows, written by NIC
    #: DMA and never warm).  LCI's small recycled pool stays warm — the
    #: paper: "LCI can quickly recycle buffers ... improving locality".
    #: Large on Stampede1, whose memory subsystem the paper blames for
    #: MPI-RMA being slowest there.
    cold_read_factor: float = 1.0

    def memcpy_time(self, nbytes: float) -> float:
        """Time for one core to copy ``nbytes``."""
        return nbytes / self.memcpy_bw


@dataclass(frozen=True)
class NicModel:
    """LogGP-style NIC/fabric cost model."""

    name: str
    #: One-way wire+switch latency (the L of LogGP), seconds.
    latency: float
    #: Link bandwidth in bytes/second (the 1/G of LogGP).
    bandwidth: float
    #: Sender-side CPU overhead to hand a descriptor to the NIC (o_s).
    send_overhead: float
    #: Receiver-side CPU overhead to harvest a completed packet (o_r).
    recv_overhead: float
    #: Maximum messages/second the NIC can inject (message-rate cap).
    injection_rate: float
    #: Number of outstanding injected-but-not-yet-on-the-wire descriptors
    #: the NIC queues before injection attempts fail (HW TX queue depth).
    tx_queue_depth: int
    #: True if the NIC supports RDMA write (lc_put maps to hardware).
    rdma: bool
    #: Extra latency charged to an RDMA put over a plain send (rkey checks
    #: and address translation on the target NIC).
    rdma_extra_latency: float

    def serialization_time(self, nbytes: float) -> float:
        return nbytes / self.bandwidth

    @property
    def injection_gap(self) -> float:
        """Minimum spacing between message injections (the g of LogGP)."""
        return 1.0 / self.injection_rate


@dataclass(frozen=True)
class MachineModel:
    """A cluster node type: CPU model + NIC model."""

    name: str
    cpu: CpuModel
    nic: NicModel
    description: str = ""

    def with_cores(self, cores: int) -> "MachineModel":
        """Same machine with a different core count (for thread sweeps)."""
        return replace(self, cpu=replace(self.cpu, cores=cores))


def stampede2() -> MachineModel:
    """Stampede2: KNL 7250 + Omni-Path.

    KNL cores are slow (in-order-ish, 1.4 GHz): software overheads such as
    match-queue traversal, locks, and allocator calls are expensive relative
    to the very fast fabric, which is exactly the regime where the paper's
    LCI advantages are largest.
    """
    cpu = CpuModel(
        name="knl-7250",
        cores=68,
        atomic_op=55 * NS,
        memcpy_bw=4.5 * GB,
        alloc_cost=220 * NS,
        call_overhead=90 * NS,
        per_edge_cost=26 * NS,
        per_node_cost=70 * NS,
        per_item_pack_cost=14 * NS,
        cold_read_factor=1.25,  # MCDRAM absorbs most of the cold-read cost
    )
    nic = NicModel(
        name="omni-path-100",
        latency=0.95 * US,
        bandwidth=12.3 * GB,
        send_overhead=0.45 * US,
        recv_overhead=0.40 * US,
        injection_rate=75e6,
        tx_queue_depth=4096,
        rdma=True,
        rdma_extra_latency=0.15 * US,
    )
    return MachineModel(
        name="stampede2",
        cpu=cpu,
        nic=nic,
        description="TACC Stampede2: Intel KNL 7250 (68 cores) + Omni-Path",
    )


def stampede1() -> MachineModel:
    """Stampede1: Sandy Bridge E5-2680 + Infiniband FDR.

    Fewer, much faster cores; FDR Infiniband has lower bandwidth and a
    slightly higher latency than Omni-Path.  The paper notes memory-system
    locality is the bottleneck here and that MPI-RMA is *slowest* on this
    machine (worst-case preallocated windows thrash the smaller caches);
    the high ``cold_read_factor`` charges scatters out of DMA-written
    window memory accordingly.
    """
    cpu = CpuModel(
        name="snb-e5-2680",
        cores=16,
        atomic_op=22 * NS,
        memcpy_bw=7.0 * GB,
        alloc_cost=90 * NS,
        call_overhead=35 * NS,
        per_edge_cost=9 * NS,
        per_node_cost=28 * NS,
        per_item_pack_cost=5 * NS,
        cold_read_factor=3.0,  # small caches, slow memory (Section IV-B3)
    )
    nic = NicModel(
        name="ib-fdr-56",
        latency=1.1 * US,
        bandwidth=6.8 * GB,
        send_overhead=0.30 * US,
        recv_overhead=0.28 * US,
        injection_rate=35e6,
        tx_queue_depth=2048,
        rdma=True,
        rdma_extra_latency=0.20 * US,
    )
    return MachineModel(
        name="stampede1",
        cpu=cpu,
        nic=nic,
        description="TACC Stampede1: Sandy Bridge E5-2680 (16 cores) + IB FDR",
    )


PRESETS: Dict[str, "MachineModel"] = {}


def _register_presets() -> None:
    for factory in (stampede2, stampede1):
        m = factory()
        PRESETS[m.name] = m


_register_presets()
