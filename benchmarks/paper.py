"""The source paper's figures and tables, as one table of specs.

Each :class:`Figure` regenerates one file under ``benchmarks/results/``
(Figs 1 and 3-6, Tables I, II and IV, the Section III ablations):

* ``cells`` — a grid of :class:`Scenario` keyed by its coordinates, or a
  zero-argument callable for the figures that are not engine runs;
* ``payload`` — turns what the cells returned into the committed JSON;
* ``claims`` — the paper's qualitative claims, as ``(name, predicate)``
  pairs over that payload.

Claims read the stored payload, never live metrics, so the same
predicates gate a fresh run (``benchmarks/test_paper.py``, minutes) and
the committed files (``tests/test_paper_claims.py``, milliseconds).
Times are *simulated* (the cluster's clock).  Run every figure with::

    PYTHONPATH=src python -m pytest benchmarks/ --ignore=benchmarks/perf -s
"""

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

from repro.apps import make_app
from repro.bench.micro import MICRO_INTERFACES, message_rate, pingpong_latency
from repro.bench.report import format_seconds, format_table
from repro.bench.scenarios import Scenario, run_scenario
from repro.comm.probe_layer import ProbeCommLayer
from repro.comm.serialization import pack_updates
from repro.engine import BspEngine, EngineConfig
from repro.graph.generators import kron, make_graph, rmat, webcrawl
from repro.graph.properties import graph_properties
from repro.lci.backends import BACKENDS
from repro.lci.config import LciConfig
from repro.lci.server import LciRuntime
from repro.mpi.exceptions import MPIResourceExhausted
from repro.mpi.presets import intel_mpi, openmpi
from repro.netapi.nic import Fabric
from repro.obs.atomic import atomic_write_text, canonical_json
from repro.sim.engine import Environment
from repro.sim.machine import PRESETS, stampede2
from repro.sim.monitor import geometric_mean

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

Claim = Tuple[str, Callable[[object], bool]]


@dataclass(frozen=True)
class Figure:
    """One results file: its cells, its payload and the claims on it."""

    name: str
    title: str
    cells: Union[Dict[object, Scenario], Callable[[], object]]
    payload: Callable[[object], object]
    claims: Tuple[Claim, ...]


def failed_claims(fig: Figure, payload) -> List[str]:
    """Names of the claims of ``fig`` that do not hold on ``payload``."""
    return [name for name, holds in fig.claims if not holds(payload)]


def render(payload) -> str:
    """The payload as text: row lists as tables, ``<cell>/<column>``
    seconds pivoted on their last segment, keyed records one per row."""
    if isinstance(payload, list):
        return format_table(payload)
    if all(isinstance(v, list) for v in payload.values()):
        return "\n\n".join(f"{k}:\n{format_table(v)}" for k, v in payload.items())
    if all(isinstance(v, dict) for v in payload.values()):
        return format_table([{"cell": k, **v} for k, v in payload.items()])
    rows: Dict[str, dict] = {}
    for key, seconds in payload.items():
        cell, _, column = key.rpartition("/")
        rows.setdefault(cell, {"cell": cell})[column] = format_seconds(seconds)
    return format_table(list(rows.values()))


def run_figure(fig: Figure) -> None:
    """Run the cells in spec order, write ``results/<name>.json``, print
    the table and a PASS/FAIL line per claim, then fail naming every
    claim that does not hold."""
    if callable(fig.cells):
        raw = fig.cells()
    else:
        raw = {key: run_scenario(sc) for key, sc in fig.cells.items()}
    payload = fig.payload(raw)
    atomic_write_text(os.path.join(RESULTS_DIR, f"{fig.name}.json"),
                      canonical_json(payload))
    print(f"\n{fig.title}\n{'=' * len(fig.title)}\n{render(payload)}\n")
    failed = failed_claims(fig, payload)
    for name, _ in fig.claims:
        print(f"{'FAIL' if name in failed else 'PASS'}  {name}")
    if failed:
        raise AssertionError(
            f"{fig.name}: {len(failed)} claim(s) failed: " + "; ".join(failed)
        )


# --- shared helpers -------------------------------------------------------

APPS = ("bfs", "cc", "pagerank", "sssp")
LAYERS = ("lci", "mpi-probe", "mpi-rma")
#: Restores the paper's per-host work at reduced graph scale (its kron30
#: carries ~10^4x more edges per host), so end-to-end ratios include a
#: realistic compute fraction (Fig. 6).
WORK_SCALE = 40.0


def _ms(seconds: float) -> float:
    return round(seconds * 1e3, 3)


def _seconds(raw) -> dict:
    """``{"<coord>/.../<layer>": total_seconds}`` for a Scenario grid."""
    return {"/".join(map(str, key)): m.total_seconds for key, m in raw.items()}


def _vs(p: dict, layer: str, other: str) -> list:
    """``(layer, other)`` time pairs over every cell of a `_seconds` payload."""
    cut = len(layer)
    return [(t, p[k[:-cut] + other]) for k, t in p.items()
            if k.endswith("/" + layer)]


def _col(rows, key: str, value: str) -> dict:
    return {r[key]: r[value] for r in rows}


def _gm(rows, num: str, den: str) -> float:
    return geometric_mean(r[num] / r[den] for r in rows)


# --- Fig. 1: latency and message rate, three interfaces ------------------
# Paper: LCI "significantly reduces the overhead of the communication by up
# to a factor of 3.5x in comparison to probe"; latency orders queue <
# no-probe < probe, and MPI's message rates taper with thread count while
# LCI's keep rising.

SIZES = [8, 64, 512, 4096, 16384, 65536]
THREADS = [1, 2, 4, 8, 16, 32, 64]


def run_fig1():
    latency_rows = []
    for size in SIZES:
        row = {"msg_bytes": size}
        for iface in MICRO_INTERFACES:
            row[iface + "_us"] = round(
                pingpong_latency(iface, size, iters=30) * 1e6, 3
            )
        row["probe/queue"] = round(row["probe_us"] / row["queue_us"], 2)
        latency_rows.append(row)

    rate_rows = []
    for t in THREADS:
        row = {"threads": t}
        for iface in MICRO_INTERFACES:
            row[iface + "_Mmsg/s"] = round(
                message_rate(iface, t, window=16) / 1e6, 3
            )
        rate_rows.append(row)
    return latency_rows, rate_rows


def _rates(p, iface):
    return [r[iface + "_Mmsg/s"] for r in p["rate"]]


FIG1 = Figure(
    "fig1_microbench",
    "Fig 1: one-way latency (us) by message size; message rate (M msg/s) "
    "by threads per host",
    run_fig1,
    lambda raw: {"latency": raw[0], "rate": raw[1]},
    (
        ("latency: queue < no-probe < 1.05 x probe at every size",
         lambda p: all(r["queue_us"] < r["no-probe_us"] < r["probe_us"] * 1.05
                       for r in p["latency"])),
        ("latency: probe/queue > 1.5 at 8 B (paper: up to 3.5x)",
         lambda p: p["latency"][0]["probe/queue"] > 1.5),
        ("rate: queue > no-probe at every thread count",
         lambda p: all(r["queue_Mmsg/s"] > r["no-probe_Mmsg/s"] for r in p["rate"])),
        ("rate: queue > probe at every thread count",
         lambda p: all(r["queue_Mmsg/s"] > r["probe_Mmsg/s"] for r in p["rate"])),
        ("rate: probe tapers off at 64 threads",
         lambda p: _rates(p, "probe")[-1] < max(_rates(p, "probe"))),
        ("rate: queue peaks at 64 threads",
         lambda p: _rates(p, "queue")[-1] == max(_rates(p, "queue"))),
    ),
)


# --- Table I: inputs and their key properties -----------------------------
# Paper (full scale): |E|/|V| is 44 / 10 / 16 for clueweb12 / kron30 /
# rmat28; kron's max in- and out-degree are equal (3.2M); rmat's max
# D_out dwarfs its max D_in (4M vs 0.3M); clueweb's max D_in is orders of
# magnitude above its max D_out (75M vs 7.4K).  The same three families
# are regenerated at reduced scale and their structural signatures checked.

def build_inputs():
    graphs = {
        "clueweb12 (webcrawl)": webcrawl(14, seed=3),
        "kron30 (kron)": kron(14, seed=2),
        "rmat28 (rmat)": rmat(14, seed=1),
    }
    return {name: graph_properties(g) for name, g in graphs.items()}


def _input(p, graph: str, column: str):
    """``column`` of the row whose name starts with ``graph``."""
    return next(r[column] for r in p if r["graph"].startswith(graph))


TABLE1 = Figure(
    "table1_inputs",
    "Table I: inputs and key properties (scale 14)",
    build_inputs,
    lambda raw: [p.as_row() | {"graph": name} for name, p in raw.items()],
    (
        ("E/V orders clueweb > rmat > kron (paper: 44 > 16 > 10)",
         lambda p: _input(p, "clueweb", "|E|/|V|") > _input(p, "rmat", "|E|/|V|")
         > _input(p, "kron", "|E|/|V|")),
        ("kron is symmetric: max D_in == max D_out",
         lambda p: _input(p, "kron", "max D_in") == _input(p, "kron", "max D_out")),
        ("rmat: max D_out > 3 x max D_in",
         lambda p: _input(p, "rmat", "max D_out") > 3 * _input(p, "rmat", "max D_in")),
        ("clueweb: max D_in > 20 x max D_out",
         lambda p: _input(p, "clueweb", "max D_in")
         > 20 * _input(p, "clueweb", "max D_out")),
        ("every input is heavy-tailed: max degree > 10 x mean",
         lambda p: all(max(r["max D_in"], r["max D_out"]) > 10 * r["|E|/|V|"]
                       for r in p)),
    ),
)


# --- Table II: Abelian at 128 hosts, rmat, on both clusters ---------------
# Paper (seconds, rmat28): LCI <= MPI-Probe on both clusters for every
# app, the gap widest for pagerank (most rounds; 17.60 vs 44.26 s), "a
# similar trend" on Stampede1, where MPI-RMA loses its Stampede2
# advantage (locality of communication is the bottleneck there).

def _probe_gap(p, app):
    return p[f"stampede2/{app}/mpi-probe"] / p[f"stampede2/{app}/lci"]


def _rma_adv(p, machine):
    return p[f"{machine}/pagerank/mpi-probe"] / p[f"{machine}/pagerank/mpi-rma"]


TABLE2 = Figure(
    "table2_clusters",
    "Table II: Abelian total execution time, rmat12 @ 128 hosts",
    {(m, a, l): Scenario(app=a, graph="rmat", scale=12, hosts=128, layer=l,
                         machine=m, pagerank_rounds=10)
     for m in ("stampede2", "stampede1") for a in APPS for l in LAYERS},
    _seconds,
    (
        ("LCI < MPI-Probe on every cell",
         lambda p: all(lci < probe for lci, probe in _vs(p, "lci", "mpi-probe"))),
        ("pagerank has the widest MPI-Probe gap on Stampede2",
         lambda p: _probe_gap(p, "pagerank")
         >= max(_probe_gap(p, "bfs"), _probe_gap(p, "sssp"))),
        ("MPI-RMA beats MPI-Probe on Stampede2 (pagerank)",
         lambda p: _rma_adv(p, "stampede2") > 1.0),
        ("MPI-RMA's advantage shrinks on Stampede1 (pagerank)",
         lambda p: _rma_adv(p, "stampede1") < _rma_adv(p, "stampede2")),
    ),
)


# --- Fig. 3: Abelian execution time vs host count, three layers -----------
# Paper: "With MPI two-sided, Abelian does not scale well ...  LCI on the
# other hand, is able to achieve comparable or better performance than
# MPI-RMA ...  At 128 hosts, LCI achieves a geometric mean speedup of
# 1.34x over MPI-Probe and 1.08x over MPI-RMA."  The improvement is
# largest for pagerank, which runs the most rounds.

FIG3_GRAPHS = ("rmat", "kron", "webcrawl")
FIG3_HOSTS = (4, 16, 64)


def _fig3_speedup(p, layer):
    """Geomean speedup of LCI over ``layer`` at the top host count."""
    return geometric_mean(p[f"{g}/{a}/64/{layer}"] / p[f"{g}/{a}/64/lci"]
                          for g in FIG3_GRAPHS for a in APPS)


def _pagerank_gap(p, graph, hosts):
    return p[f"{graph}/pagerank/{hosts}/mpi-probe"] / p[f"{graph}/pagerank/{hosts}/lci"]


FIG3 = Figure(
    "fig3_abelian_sweep",
    "Fig 3: Abelian execution time by host count and layer",
    {(g, a, h, l): Scenario(app=a, graph=g, scale=12, hosts=h, layer=l,
                            pagerank_rounds=10, work_scale=WORK_SCALE)
     for g in FIG3_GRAPHS for a in APPS for h in FIG3_HOSTS for l in LAYERS},
    _seconds,
    (
        ("LCI <= 1.02 x MPI-Probe on every cell",
         lambda p: all(lci <= o * 1.02 for lci, o in _vs(p, "lci", "mpi-probe"))),
        ("LCI <= 1.02 x MPI-RMA on every cell",
         lambda p: all(lci <= o * 1.02 for lci, o in _vs(p, "lci", "mpi-rma"))),
        ("pagerank's MPI-Probe gap grows from 4 to 64 hosts on every graph",
         lambda p: all(_pagerank_gap(p, g, 64) > _pagerank_gap(p, g, 4)
                       for g in FIG3_GRAPHS)),
        ("geomean LCI speedup over MPI-Probe @ 64 hosts > 1.2 (paper: 1.34x @ 128)",
         lambda p: _fig3_speedup(p, "mpi-probe") > 1.2),
        ("geomean LCI speedup over MPI-RMA @ 64 hosts > 1.0 (paper: 1.08x @ 128)",
         lambda p: _fig3_speedup(p, "mpi-rma") > 1.0),
        ("LCI's speedup is larger over MPI-Probe than over MPI-RMA",
         lambda p: _fig3_speedup(p, "mpi-probe") > _fig3_speedup(p, "mpi-rma")),
    ),
)


# --- Fig. 4: Gemini with LCI vs MPI-Probe ---------------------------------
# Paper: "Across all applications at 128 hosts, the geometric mean speedup
# of LCI over MPI-Probe in communication is 2x, yielding an execution time
# speedup of 1.64x."

FIG4 = Figure(
    "fig4_gemini",
    "Fig 4: Gemini execution time @ 64 hosts (edge-cut)",
    {(g, a, l): Scenario(app=a, graph=g, scale=12, hosts=64, layer=l,
                         system="gemini", pagerank_rounds=10,
                         work_scale=WORK_SCALE)
     for g in FIG3_GRAPHS for a in APPS for l in ("lci", "mpi-probe")},
    lambda raw: [{
        "graph": g, "app": a,
        "lci_ms": _ms(raw[g, a, "lci"].total_seconds),
        "probe_ms": _ms(raw[g, a, "mpi-probe"].total_seconds),
        "lci_comm_ms": _ms(raw[g, a, "lci"].comm_seconds),
        "probe_comm_ms": _ms(raw[g, a, "mpi-probe"].comm_seconds),
    } for g in FIG3_GRAPHS for a in APPS],
    (
        ("Gemini: LCI < MPI-Probe on every graph and app",
         lambda p: all(r["lci_ms"] < r["probe_ms"] for r in p)),
        ("Gemini: geomean comm speedup > 1.5 (paper: 2x)",
         lambda p: _gm(p, "probe_comm_ms", "lci_comm_ms") > 1.5),
        ("Gemini: geomean end-to-end speedup > 1.2 (paper: 1.64x)",
         lambda p: _gm(p, "probe_ms", "lci_ms") > 1.2),
        ("Gemini: comm speedup >= end-to-end speedup",
         lambda p: _gm(p, "probe_comm_ms", "lci_comm_ms")
         >= _gm(p, "probe_ms", "lci_ms")),
    ),
)


# --- Fig. 5: communication-buffer memory footprint, LCI vs MPI-RMA --------
# Paper: LCI's footprint "is much smaller for all applications on all
# hosts than MPI-RMA", whose max and min "are close to each other" and
# "up to an order of magnitude higher" (it preallocates worst-case
# windows).  Footprints count the runtime's own buffers: LCI's fixed pool
# plus transients, MPI-RMA's windows plus epoch-held staging.  At reduced
# scale the ratio compresses to ~1.3-2x (EXPERIMENTS.md); the structural
# invariants are what is checked.

#: Scale-reduced pool geometry: "a small constant times the number of
#: hosts" in packets, with packet bytes shrunk with the graph so the pool
#: does not dwarf the scaled-down windows.
POOL_KW = dict(
    lci_pool_packets_per_host=2,
    lci_packet_bytes=1024,
    lci_pool_packets_min=16,
)


def _fig5_row(app, lci, rma):
    return {
        "app": app,
        "lci_min_KiB": round(lci.min_footprint / 1024, 1),
        "lci_max_KiB": round(lci.max_footprint / 1024, 1),
        "rma_min_KiB": round(rma.min_footprint / 1024, 1),
        "rma_max_KiB": round(rma.max_footprint / 1024, 1),
        "rma/lci(max)": round(rma.max_footprint / lci.max_footprint, 2),
        "lci_ms": _ms(lci.total_seconds),
        "rma_ms": _ms(rma.total_seconds),
    }


FIG5 = Figure(
    "fig5_memory",
    "Fig 5: comm-buffer memory footprint, kron17 @ 16 hosts "
    "(max / min across hosts)",
    {(a, l): Scenario(app=a, graph="kron", scale=17, hosts=16, layer=l,
                      pagerank_rounds=10, **(POOL_KW if l == "lci" else {}))
     for a in APPS for l in ("lci", "mpi-rma")},
    lambda raw: [_fig5_row(a, raw[a, "lci"], raw[a, "mpi-rma"]) for a in APPS],
    (
        ("LCI's max footprint < MPI-RMA's on every app",
         lambda p: all(r["lci_max_KiB"] < r["rma_max_KiB"] for r in p)),
        ("LCI's min footprint < MPI-RMA's on every app",
         lambda p: all(r["lci_min_KiB"] < r["rma_min_KiB"] for r in p)),
        ("MPI-RMA is flat across hosts: max/min < 1.1 x LCI's on every app",
         lambda p: all(r["rma_max_KiB"] / r["rma_min_KiB"]
                       < r["lci_max_KiB"] / r["lci_min_KiB"] * 1.1 for r in p)),
        ("the memory win costs no performance: LCI <= 1.05 x MPI-RMA time",
         lambda p: all(r["lci_ms"] <= r["rma_ms"] * 1.05 for r in p)),
        ("MPI-RMA's windows (bfs, min host) > 4 x LCI's whole pool",
         lambda p: _col(p, "app", "rma_min_KiB")["bfs"]
         > 4 * POOL_KW["lci_pool_packets_min"] * POOL_KW["lci_packet_bytes"] / 1024),
    ),
)


# --- Fig. 6: compute vs non-overlapped communication, kron @ 64 hosts -----
# Paper: computation time is the per-round maximum across hosts, summed;
# "the rest of the execution time is the non-overlapped communication
# time ...  the changes in performance come from the communication
# component.  In most applications, LCI performs best, or comparable to
# MPI-RMA."

def _by_app(rows) -> list:
    """``{layer: row}`` per app."""
    return [{r["layer"]: r for r in rows if r["app"] == a} for a in APPS]


def _comm(layers: dict, layer: str) -> float:
    return layers[layer]["non_overlap_comm_ms"]


FIG6 = Figure(
    "fig6_breakdown",
    f"Fig 6: compute vs non-overlapped communication, kron12 @ 64 hosts "
    f"(work_scale={WORK_SCALE})",
    {(a, l): Scenario(app=a, graph="kron", scale=12, hosts=64, layer=l,
                      pagerank_rounds=10, work_scale=WORK_SCALE)
     for a in APPS for l in LAYERS},
    lambda raw: [{"app": a, "layer": l, "compute_ms": _ms(m.compute_seconds),
                  "non_overlap_comm_ms": _ms(m.comm_seconds),
                  "total_ms": _ms(m.total_seconds)} for (a, l), m in raw.items()],
    (
        ("compute is within 15% across layers for every app",
         lambda p: all(max(r["compute_ms"] for r in g.values())
                       < 1.15 * min(r["compute_ms"] for r in g.values())
                       for g in _by_app(p))),
        ("LCI has the smallest comm component (2% tie) for every app",
         lambda p: all(_comm(g, "lci") <= min(_comm(g, l) for l in g) * 1.02
                       for g in _by_app(p))),
        ("MPI-Probe's comm component > 1.3 x LCI's for every app",
         lambda p: all(_comm(g, "mpi-probe") > 1.3 * _comm(g, "lci")
                       for g in _by_app(p))),
    ),
)


# --- Table IV: other MPI implementations vs LCI ---------------------------
# Paper: "LCI remains the winner compared to other MPI implementations
# ...  IntelMPI-RMA performs best in the majority of cases.  LCI is again
# closest in performance to RMA implementations, and is better if we
# include time for window creation in the result."

MPIS = ("intelmpi", "mvapich2", "openmpi")
TABLE4_CONFIGS = [("lci", "lci", "intelmpi")] + [
    (f"{impl}-{layer[4:]}", layer, impl)
    for impl in MPIS for layer in ("mpi-probe", "mpi-rma")
]


def _table4_row(app, raw):
    row = {"app": app}
    for (a, c), m in raw.items():
        if a == app:
            row[c + "_ms"] = _ms(m.total_seconds)
            if c.endswith("rma"):
                row[c + "+win_ms"] = _ms(m.total_seconds + m.setup_seconds)
    return row


def _mpi(row, kind="") -> list:
    """Times of the MPI configurations (of one ``kind``) in a Table IV row."""
    return [v for k, v in row.items()
            if k.endswith(kind + "_ms") and k != "lci_ms" and "+win" not in k]


TABLE4 = Figure(
    "table4_mpi_impls",
    "Table IV: MPI implementations vs LCI, kron12 @ 64 hosts "
    "(window creation excluded, and shown as +win)",
    {(a, c): Scenario(app=a, graph="kron", scale=12, hosts=64, layer=layer,
                      mpi_impl=impl, pagerank_rounds=10)
     for a in ("pagerank", "cc") for c, layer, impl in TABLE4_CONFIGS},
    lambda raw: [_table4_row(a, raw) for a in ("pagerank", "cc")],
    (
        ("LCI beats every MPI configuration",
         lambda p: all(r["lci_ms"] < min(_mpi(r)) for r in p)),
        ("the best RMA beats the best Probe implementation",
         lambda p: all(min(_mpi(r, "rma")) < min(_mpi(r, "probe")) for r in p)),
        ("IntelMPI-RMA is the best MPI configuration",
         lambda p: all(r["intelmpi-rma_ms"] == min(_mpi(r, "rma")) for r in p)),
        ("window creation widens LCI's margin over IntelMPI-RMA",
         lambda p: all(r["intelmpi-rma+win_ms"] > min(_mpi(r, "rma")) for r in p)),
    ),
)


# --- Portability: LCI over psm2 / ibverbs / libfabric ---------------------
# Paper (IV-B3): "LCI and its performance is portable to other NICs ...
# We have implemented LCI on top of ibverbs, psm2, and Libfabric".
# Backend choice should perturb performance only mildly, and LCI should
# beat MPI-Probe on every backend (portability of the win, not only of
# the code).

MACHINES = ("stampede2", "stampede1")


def run_backend(backend: str, machine: str):
    graph = make_graph("kron", 12, seed=1)
    app = make_app("pagerank", max_rounds=10, tol=1e-12)
    cfg = EngineConfig(
        num_hosts=32, machine=PRESETS[machine], layer="lci",
        layer_kwargs={"lci_config": LciConfig(backend=backend)},
    )
    return BspEngine(graph, app, cfg).run()


def run_portability():
    out = {}
    for machine in MACHINES:
        for backend in sorted(BACKENDS):
            out[(machine, backend)] = run_backend(backend, machine)
        out[(machine, "mpi-probe")] = run_scenario(Scenario(
            app="pagerank", graph="kron", scale=12, hosts=32,
            layer="mpi-probe", machine=machine, pagerank_rounds=10,
        ))
    return out


def _backend_ms(row) -> list:
    return [row[b + "_ms"] for b in sorted(BACKENDS)]


PORTABILITY = Figure(
    "portability_backends",
    "Portability: LCI backends, pagerank kron12 @ 32 hosts",
    run_portability,
    lambda raw: [{"machine": machine} | {
        f"{b}_ms": _ms(raw[machine, b].total_seconds)
        for b in (*sorted(BACKENDS), "mpi-probe")
    } for machine in MACHINES],
    (
        ("backend choice moves LCI by < 25% on both machines",
         lambda p: all(max(_backend_ms(r)) < 1.25 * min(_backend_ms(r)) for r in p)),
        ("LCI beats MPI-Probe on every backend and machine",
         lambda p: all(t < r["mpi-probe_ms"] for r in p for t in _backend_ms(r))),
    ),
)


# --- Ablation: the buffered network layer under MPI-Probe (III-B) ---------
# Without back pressure, MPI's eager protocol exhausts its buffers under
# Abelian's traffic and "may cause MPI to either seg-fault or hang".  A
# burst of small messages to a slow consumer, with realistic per-peer
# eager credits: buffered ON aggregates past the eager limit and rides
# rendezvous; OFF with IntelMPI semantics aborts (the paper's seg-fault);
# OFF with OpenMPI semantics completes only through head-of-line stalls.

N_MSGS = 120
CREDITS = 16


def run_burst(buffered: bool, crash: bool):
    """Returns ("ok", eager-buffer stalls) or ("crash", None)."""
    env = Environment()
    machine = stampede2()
    fabric = Fabric(env, 2, machine)
    base = intel_mpi() if crash else openmpi()
    cfg = base.with_(eager_credits_per_peer=CREDITS, crash_on_exhaustion=crash)
    layers = ProbeCommLayer.create_world(
        env, fabric, machine, mpi_config=cfg, buffered=buffered,
    )

    def sender(env):
        layer = layers[0]
        for i in range(N_MSGS):
            blob = pack_updates(
                np.arange(8), np.full(8, i, dtype=np.int64), 64, 8,
                phase=(i, "x"),
            )
            yield from layer.send(1, blob)
        yield from layer.flush()

    def consumer(env):
        layer = layers[1]
        # Slow consumer: stays away while the burst lands.
        yield env.timeout(2e-3)
        for i in range(N_MSGS):
            got = yield from layer.collect((i, "x"), [0])
            layer.consume(got[0][1])
        for l in layers:
            l.shutdown()

    env.process(sender(env))
    env.process(consumer(env))
    try:
        env.run(max_events=20_000_000)
    except MPIResourceExhausted:
        return ("crash", None)
    return ("ok", layers[0].ep.eager_stalls)


ABLATION_BUFFERED = Figure(
    "ablation_buffered",
    f"Ablation: buffered network layer ({N_MSGS} small msgs, "
    f"{CREDITS} eager credits/peer)",
    lambda: {
        "buffered": run_burst(buffered=True, crash=True),
        "unbuffered-abort": run_burst(buffered=False, crash=True),
        "unbuffered-stall": run_burst(buffered=False, crash=False),
    },
    lambda raw: {k: {"status": s, "detail": str(d)} for k, (s, d) in raw.items()},
    (
        ("the buffered layer turns the fatal burst into a completed run",
         lambda p: p["buffered"]["status"] == "ok"),
        ("unbuffered with IntelMPI semantics aborts (the paper's seg-fault)",
         lambda p: p["unbuffered-abort"]["status"] == "crash"),
        ("unbuffered with stall semantics completes",
         lambda p: p["unbuffered-stall"]["status"] == "ok"),
        ("...but only by stalling on exhausted eager buffers",
         lambda p: int(p["unbuffered-stall"]["detail"]) > 0),
        ("the buffered layer never touches the eager limit",
         lambda p: p["buffered"]["detail"] == "0"),
    ),
)


# --- Ablation: LCI's first-packet policy vs ordered matching (III-D) ------
# "Unlike MPI, ordering semantics are not required and not enforced.
# Instead, the RECV-DEQ returns any pending/completed request based on the
# order of the first packet arrival."  The same many-senders workload,
# consumed in first-packet order and then in a fixed source order
# (``enforce_ordering``: an MPI-like queue traversal per dequeue).

SENDERS = 15
MSGS_EACH = 20


def run_consumer(ordered: bool) -> float:
    """Hosts 1..SENDERS each send MSGS_EACH messages to host 0, staggered
    so arrivals interleave; host 0 consumes them all.  Returns the time
    at which the last message was consumed."""
    env = Environment()
    fabric = Fabric(env, SENDERS + 1, stampede2())
    cfg = LciConfig(
        enforce_ordering=ordered,
        pool_packets_min=4 * SENDERS * MSGS_EACH,
    )
    world = LciRuntime.create_world(env, fabric, config=cfg)
    done = {}

    def sender(env, rank):
        rt = world[rank]
        # Interleave arrivals: stagger by a fraction of a message gap.
        yield env.timeout(rank * 0.07e-6)
        for i in range(MSGS_EACH):
            yield from rt.send_blocking(0, tag=0, size=64, payload=i)

    def consumer(env):
        rt = world[0]
        got = 0
        if ordered:
            # MPI-style: drain sender 1 first, then 2, ... (a fixed
            # matching order, like posted receives per source).
            for src in range(1, SENDERS + 1):
                for _ in range(MSGS_EACH):
                    req = None
                    while req is None:
                        req = yield from rt.recv_deq(source=src)
                        if req is None:
                            yield rt.queue.wait_nonempty()
                    got += 1
        else:
            while got < SENDERS * MSGS_EACH:
                req = yield from rt.recv_deq()
                if req is None:
                    yield rt.queue.wait_nonempty()
                    continue
                got += 1
        done["t"] = env.now
        for rt_ in world:
            rt_.stop_server()

    for r in range(1, SENDERS + 1):
        env.process(sender(env, r))
    env.process(consumer(env))
    env.run(max_events=20_000_000)
    return done["t"]


ABLATION_ORDERING = Figure(
    "ablation_ordering",
    f"Ablation: first-packet policy vs enforced ordering "
    f"({SENDERS} senders x {MSGS_EACH} msgs)",
    lambda: {"first_packet_s": run_consumer(ordered=False),
             "ordered_s": run_consumer(ordered=True)},
    lambda raw: raw,
    (
        ("enforcing order costs > 10% (queue traversal + head-of-line blocking)",
         lambda p: p["ordered_s"] > p["first_packet_s"] * 1.1),
    ),
)


# --- Ablations: LCI pool size, comm thread, eager/rendezvous switch -------
# Pool size (III-D: "The size of the packet pool determines the maximum
# injection rate ... typically a small constant times the number of
# hosts"): a starved pool forces send retries and slows the run, growing
# it buys speed until the network is the limit, and memory rises with it.
# Dedicated communication thread (Fig. 2, Abelian/CVC) vs compute threads
# calling MPI with THREAD_MULTIPLE (Gemini/edge-cut): the funneled design
# pays one queue hop but avoids the library lock on every call.  The
# eager/rendezvous switch: tiny packets force every blob through three
# control trips; the default fits most graph-update blobs in one packet.

def _pagerank32(**kw) -> Scenario:
    return Scenario(app="pagerank", graph="kron", scale=12, hosts=32,
                    pagerank_rounds=10, **{"layer": "lci", **kw})


def _pool(p, column) -> dict:
    return _col(p, "pool_packets", column)


ABLATION_POOL_SIZE = Figure(
    "ablation_pool_size",
    "Ablation: LCI pool size (pagerank, kron12 @ 32 hosts)",
    {pool: _pagerank32(lci_pool_packets_per_host=0, lci_pool_packets_min=pool)
     for pool in (4, 32, 512)},
    lambda raw: [{"pool_packets": k, "time_ms": _ms(m.total_seconds),
                  "mem_max_KiB": round(m.max_footprint / 1024, 1)}
                 for k, m in raw.items()],
    (
        ("a starved pool (4 packets) costs > 2% over 32",
         lambda p: _pool(p, "time_ms")[4] > _pool(p, "time_ms")[32] * 1.02),
        ("speed saturates by 32 packets (within 2% of 512)",
         lambda p: _pool(p, "time_ms")[32] <= _pool(p, "time_ms")[512] * 1.02),
        ("pool memory rises with its size: 4 < 32 < 512 packets",
         lambda p: _pool(p, "mem_max_KiB")[4] < _pool(p, "mem_max_KiB")[32]
         < _pool(p, "mem_max_KiB")[512]),
    ),
)

ABLATION_COMM_THREAD = Figure(
    "ablation_comm_thread",
    "Ablation: dedicated comm thread (FUNNELED) vs inline sends "
    "(THREAD_MULTIPLE), pagerank kron12 @ 32 hosts",
    {"dedicated": _pagerank32(layer="mpi-probe", system="abelian"),
     "inline": _pagerank32(layer="mpi-probe", system="gemini")},
    lambda raw: [{"design": k, "policy": m.policy, "time_ms": _ms(m.total_seconds),
                  "comm_ms": _ms(m.comm_seconds)} for k, m in raw.items()],
    (
        ("a dedicated comm thread beats inline THREAD_MULTIPLE sends",
         lambda p: _col(p, "design", "time_ms")["dedicated"]
         < _col(p, "design", "time_ms")["inline"]),
    ),
)

ABLATION_EAGER_LIMIT = Figure(
    "ablation_eager_limit",
    "Ablation: eager/rendezvous switch point (pagerank, kron12 @ 32 hosts)",
    {pkt: _pagerank32(lci_packet_bytes=pkt) for pkt in (256, 4096, 65536)},
    lambda raw: [{"packet_bytes": k, "time_ms": _ms(m.total_seconds)}
                 for k, m in raw.items()],
    (
        ("forcing rendezvous (256 B packets) is no faster than 4 KiB",
         lambda p: _col(p, "packet_bytes", "time_ms")[256]
         > _col(p, "packet_bytes", "time_ms")[4096] * 0.99),
    ),
)


FIGURES: Tuple[Figure, ...] = (
    FIG1, TABLE1, TABLE2, FIG3, FIG4, FIG5, FIG6, TABLE4, PORTABILITY,
    ABLATION_BUFFERED, ABLATION_ORDERING, ABLATION_POOL_SIZE,
    ABLATION_COMM_THREAD, ABLATION_EAGER_LIMIT,
)

#: Every claim of the paper this repo checks, as ``(figure, (name, holds))``.
PAPER_CLAIMS: List[Tuple[Figure, Claim]] = [
    (fig, claim) for fig in FIGURES for claim in fig.claims
]
