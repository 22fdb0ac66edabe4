"""Tests for repro.sanitize: the determinism lint, the per-event
protocol checks and the end-of-run conservation audit.

Each runtime rule is demonstrated on a deliberately broken fixture (a
planted leak, a planted double-free, a planted RMA race...) on plain
worlds: every check runs on every run, so nothing is armed first.  That
a check never perturbs a run is pinned end-to-end on BFS and PageRank
against numbers recorded with the checks off, and by
``tests/test_bench_harness.py``, which reproduces committed
``BENCH_core.json`` rows.  The audit's rules are planted on bare
worlds, and once through a whole engine run.
"""

import json

import pytest

from repro.bench.scenarios import Scenario, build_engine
from repro.lci import LciRuntime, PacketPool
from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    MpiWindow,
    MpiWorld,
    ThreadMode,
    endpoint,
    intel_mpi,
)
from repro.mpi.matching import signatures_overlap
from repro.netapi.nic import Fabric
from repro.netapi.packet import PacketType
from repro.sanitize import (
    SANITIZER_EXIT_CODE,
    SanitizerError,
    conservation_audit,
)
from repro.sanitize.lint import (
    is_order_sensitive,
    lint_repo,
    lint_source,
    report_dict,
)
from repro.sim.engine import Environment
from repro.sim.machine import stampede2
from repro.sim.rng import RngFactory


# ---------------------------------------------------------------------------
# Helpers: bare worlds and pools (every check is always on)
# ---------------------------------------------------------------------------
def _fabric(num_hosts):
    env = Environment()
    return env, Fabric(env, num_hosts, stampede2())


def make_mpi_world(num_hosts=2, config=None):
    env, fabric = _fabric(num_hosts)
    world = MpiWorld(env, fabric, config or intel_mpi(), ThreadMode.MULTIPLE)
    return env, world


def make_lci_world(num_hosts=2):
    env, fabric = _fabric(num_hosts)
    world = LciRuntime.create_world(env, fabric)
    return env, world


def audit(env, runtimes=(), endpoints=()):
    """The end-of-run audit over a bare world's components."""
    with pytest.raises(SanitizerError) as ei:
        conservation_audit(runtimes, endpoints, env.now)
    assert ei.value.time == env.now
    return ei.value


def make_pool(size=3, rx_reserve=0, host=0, env=None):
    env = env or Environment()
    pool = PacketPool(
        env, stampede2().cpu, size=size, packet_data_bytes=1024,
        rx_reserve=rx_reserve, host=host,
    )
    return env, pool


# ---------------------------------------------------------------------------
# Static determinism lint (Part A)
# ---------------------------------------------------------------------------
def rules_of(findings):
    return {f.rule for f in findings}


def test_lint_flags_wall_clock():
    src = "import time\n\ndef f():\n    return time.time()\n"
    assert "D101" in rules_of(lint_source(src, "src/repro/bench/x.py"))


def test_lint_flags_wall_clock_via_alias_and_datetime():
    src = "import time as t\nfrom datetime import datetime\n" \
          "a = t.perf_counter()\nb = datetime.now()\n"
    findings = [f for f in lint_source(src, "src/repro/x.py") if f.rule == "D101"]
    assert len(findings) == 2


def test_lint_flags_global_random():
    src = "import random\nimport numpy as np\n" \
          "a = random.random()\nb = np.random.rand(3)\n"
    findings = [f for f in lint_source(src, "src/repro/x.py") if f.rule == "D102"]
    # The `import random` itself plus both global-state draws.
    assert len(findings) == 3
    assert [f.line for f in findings] == [1, 3, 4]


def test_lint_flags_unseeded_default_rng_but_not_seeded():
    bad = "import numpy as np\nr = np.random.default_rng()\n"
    good = "import numpy as np\nr = np.random.default_rng(42)\n"
    assert "D102" in rules_of(lint_source(bad, "src/repro/x.py"))
    assert "D102" not in rules_of(lint_source(good, "src/repro/x.py"))


def test_lint_flags_set_iteration_only_in_sensitive_dirs():
    src = "s = {1, 2, 3}\nfor x in s:\n    print(x)\n"
    assert "D103" in rules_of(lint_source(src, "src/repro/mpi/x.py"))
    assert "D103" not in rules_of(lint_source(src, "src/repro/bench/x.py"))


def test_lint_set_iteration_sorted_is_clean():
    src = "s = {1, 2, 3}\nfor x in sorted(s):\n    print(x)\n"
    assert lint_source(src, "src/repro/sim/x.py") == []


def test_lint_flags_environ_only_in_sensitive_dirs():
    src = "import os\nif os.environ.get('FAST'):\n    x = 1\n"
    assert "D104" in rules_of(lint_source(src, "src/repro/lci/x.py"))
    assert "D104" not in rules_of(lint_source(src, "src/repro/cli2.py"))


def test_lint_flags_fp_accumulation_over_unordered():
    src = "vals = {1.0, 2.0}\ntotal = sum(vals)\n"
    findings = lint_source(src, "src/repro/comm/x.py")
    assert "D105" in rules_of(findings)
    # D105 claims the node: the same set must not double-report as D103.
    assert "D103" not in rules_of(findings)


def test_lint_suppression_comment():
    src = "import time\nnow = time.time()  # lint-ok: D101 wall clock wanted\n"
    assert lint_source(src, "src/repro/sim/x.py") == []
    src_all = "import time\nnow = time.time()  # lint-ok: all\n"
    assert lint_source(src_all, "src/repro/sim/x.py") == []


def test_lint_suppression_is_per_rule():
    src = "import time\nnow = time.time()  # lint-ok: D103 wrong rule\n"
    assert "D101" in rules_of(lint_source(src, "src/repro/sim/x.py"))


def test_is_order_sensitive_paths():
    assert is_order_sensitive("src/repro/sim/engine.py")
    assert is_order_sensitive("src/repro/faults/injector.py")
    assert not is_order_sensitive("src/repro/bench/report.py")
    assert not is_order_sensitive("src/repro/cli.py")


def test_lint_repo_is_clean():
    """Acceptance criterion: the lint runs clean on the repo itself."""
    result = lint_repo()
    assert result.files_checked > 50
    assert result.findings == []


def test_lint_json_report_shape(tmp_path):
    src = "import time\na = time.time()\nb = time.time()\n"
    findings = lint_source(src, "src/repro/sim/x.py")
    from repro.sanitize.lint import LintResult
    report = report_dict(LintResult(findings, files_checked=1, suppressed=0))
    assert report["counts_by_rule"] == {"D101": 2}
    assert len(report["findings"]) == 2
    assert report["findings"][0]["rule"] == "D101"
    assert report["files_checked"] == 1
    assert "D101" in report["rules"]
    # Round-trips as JSON.
    json.loads(json.dumps(report))


def test_lint_sarif_shape(tmp_path):
    from repro.sanitize.lint import RULES, LintResult
    from repro.sanitize.report import save_sarif

    findings = lint_source("import time\na = time.time()\n",
                           "src/repro/sim/x.py")
    path = tmp_path / "lint.sarif"
    save_sarif(report_dict(LintResult(findings, files_checked=1,
                                      suppressed=0)), str(path))
    sarif = json.loads(path.read_text())
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} == set(RULES)
    (result,) = run["results"]
    assert result["ruleId"] == "D101"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region == {"startLine": 2, "startColumn": 5}


def test_lint_flags_set_fed_dict_iteration():
    src = (
        "s = {3, 1, 2}\n"
        "d = {k: 0 for k in s}\n"
        "for k in d.keys():\n"
        "    print(k)\n"
        "for v in d.values():\n"
        "    print(v)\n"
    )
    findings = lint_source(src, "src/repro/comm/x.py")
    # the comp itself iterates the set (D103, the root cause); both
    # downstream .keys()/.values() loops get D106
    assert [f.rule for f in findings] == ["D103", "D106", "D106"]
    # order-insensitive dirs stay silent
    assert lint_source(src, "src/repro/bench/x.py") == []


def test_lint_flags_dict_fromkeys_of_set():
    src = (
        "s = {1, 2}\n"
        "d = dict.fromkeys(s)\n"
        "for k in d.keys():\n"
        "    print(k)\n"
    )
    assert "D106" in rules_of(lint_source(src, "src/repro/mpi/x.py"))


def test_lint_set_fed_dict_clean_counterparts():
    # built from sorted(...) — ordered, no finding
    ordered = (
        "s = {3, 1, 2}\n"
        "d = {k: 0 for k in sorted(s)}\n"
        "for k in d.keys():\n"
        "    print(k)\n"
    )
    assert lint_source(ordered, "src/repro/sim/x.py") == []
    # fed from a list — insertion order is already deterministic
    listy = (
        "xs = [3, 1, 2]\n"
        "d = {k: 0 for k in xs}\n"
        "for v in d.values():\n"
        "    print(v)\n"
    )
    assert lint_source(listy, "src/repro/sim/x.py") == []
    # reassignment to an ordered dict clears the taint
    reassigned = (
        "s = {1, 2}\n"
        "d = dict.fromkeys(s)\n"
        "d = dict.fromkeys(sorted(s))\n"
        "for k in d.keys():\n"
        "    print(k)\n"
    )
    assert lint_source(reassigned, "src/repro/sim/x.py") == []


def test_lint_suppression_counts_in_result():
    from repro.sanitize.lint import _lint_source_counted

    src = (
        "import time\n"
        "a = time.time()  # lint-ok: D101 wanted\n"
        "b = time.time()\n"
    )
    result = _lint_source_counted(src, "src/repro/sim/x.py")
    assert result.suppressed == 1
    assert [f.rule for f in result.findings] == ["D101"]


def test_lint_suppression_comma_separated_rules():
    src = (
        "import time\n"
        "s = {1.0, 2.0}\n"
        "t = sum(s) + time.time()  # lint-ok: D101, D105 both intended\n"
    )
    assert lint_source(src, "src/repro/sim/x.py") == []
    # only one of the two listed: the other still fires
    partial = (
        "import time\n"
        "s = {1.0, 2.0}\n"
        "t = sum(s) + time.time()  # lint-ok: D105 fp ok\n"
    )
    assert rules_of(lint_source(partial, "src/repro/sim/x.py")) == {"D101"}


def test_lint_suppressed_count_survives_into_report(tmp_path):
    from repro.sanitize.lint import lint_paths

    f = tmp_path / "repro" / "sim" / "x.py"
    f.parent.mkdir(parents=True)
    f.write_text(
        "import time\n"
        "a = time.time()  # lint-ok: all\n"
        "b = time.time()  # lint-ok: D101 wanted\n"
        "c = time.time()\n"
    )
    result = lint_paths([f])
    assert result.suppressed == 2
    report = report_dict(result)
    assert report["suppressions"]["count"] == 2
    assert report["suppressed"] == 2  # legacy alias
    assert report["counts_by_rule"] == {"D101": 1}


# ---------------------------------------------------------------------------
# LCI lifecycle checks (planted bugs)
# ---------------------------------------------------------------------------
def test_pool_double_free_planted():
    env, pool = make_pool(size=3)
    # The pool starts full: any free now is a double free.
    with pytest.raises(SanitizerError) as ei:
        pool.free_nowait()
    assert ei.value.rule == "lci.pool_double_free"
    assert ei.value.host == 0
    assert ei.value.details == {"free_packets": 3, "pool_size": 3}


def test_pool_leak_planted():
    env, world = make_lci_world(2)
    pool = world[0].pool

    def proc(env):
        yield from pool.alloc()
        yield from pool.alloc()
        # ...and never free: a leak at the end of the run.

    env.process(proc(env))
    env.run()
    err = audit(env, runtimes=world)
    assert err.rule == "lci.packet_leak"
    assert err.host == 0
    assert err.details == {"leaked": 2, "pool_size": pool.size}


def test_pool_over_free_audited_as_double_free():
    """A budget freed twice raises at the second free, on the runtime's
    host: ``in_use`` never goes negative for the audit to find."""
    env, world = make_lci_world(2)
    pool = world[1].pool

    def proc(env):
        yield from pool.alloc()
        pool.free_nowait()
        pool.free_nowait()

    env.process(proc(env))
    with pytest.raises(SanitizerError) as ei:
        env.run()
    assert ei.value.rule == "lci.pool_double_free"
    assert ei.value.host == 1
    assert ei.value.details == {"free_packets": pool.size,
                                "pool_size": pool.size}
    assert pool.in_use == 0


def _retire_and_free(pool):
    """Generator: one packet allocated, handled, retired and freed."""
    yield from pool.alloc()
    pkt = pool.make_packet(PacketType.EGR, 0, 1, 5, 64)
    pool.touch(pkt)                     # live: fine
    pool.retire(pkt)
    yield from pool.free()
    return pkt


def test_packet_double_free_planted():
    env, pool = make_pool(size=3)

    def proc(env):
        pkt = yield from _retire_and_free(pool)
        pool.retire(pkt)                # double free

    env.process(proc(env))
    with pytest.raises(SanitizerError) as ei:
        env.run()
    assert ei.value.rule == "lci.packet_double_free"
    assert ei.value.host == 0


def test_packet_use_after_free_planted():
    env, pool = make_pool(size=3)

    def proc(env):
        pkt = yield from _retire_and_free(pool)
        pool.touch(pkt)                 # use after free

    env.process(proc(env))
    with pytest.raises(SanitizerError) as ei:
        env.run()
    assert ei.value.rule == "lci.packet_use_after_free"
    assert ei.value.details["packet"] > 0


def test_packet_lifecycle_is_per_host():
    """The transport hands the same Packet object to both ends; the
    sender retiring its budget must not poison the receiver's view."""
    env, sender = make_pool(host=0)
    _, receiver = make_pool(host=1, env=env)
    pkt = sender.make_packet(PacketType.EGR, 0, 1, 5, 64)
    sender.retire(pkt)
    receiver.touch(pkt)             # receiver still live: no violation
    receiver.retire(pkt)
    assert pkt.retired_by == (0, 1)
    with pytest.raises(SanitizerError) as ei:
        sender.touch(pkt)           # sender is retired: violation
    assert ei.value.rule == "lci.packet_use_after_free"
    assert ei.value.host == 0
    with pytest.raises(SanitizerError) as ei:
        receiver.retire(pkt)        # and each host retires it once
    assert ei.value.rule == "lci.packet_double_free"
    assert ei.value.host == 1


def test_lci_healthy_roundtrip_is_clean():
    env, world = make_lci_world(2)
    result = {}

    def sender(env):
        yield from world[0].send_blocking(1, tag=9, size=256, payload=b"y" * 256)

    def receiver(env):
        req = yield from world[1].recv_blocking()
        result["payload"] = req.payload

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    conservation_audit(world, (), env.now)      # raises nothing
    assert result["payload"] == b"y" * 256


def _send_never_received():
    """An LCI world whose host 1 got one message nobody dequeued."""
    env, world = make_lci_world(2)

    def sender(env):
        yield from world[0].send_blocking(1, tag=9, size=128, payload=b"z")

    env.process(sender(env))
    env.run()
    return env, world


def test_lci_unreceived_message_reported_at_shutdown():
    """Send without a matching dequeue: the arrival sits in the
    completion queue on a pool budget that never comes home."""
    env, world = _send_never_received()
    err = audit(env, runtimes=world)
    assert err.rule == "lci.packet_leak"
    assert err.host == 1
    assert err.details == {"leaked": 1, "pool_size": world[1].pool.size}


def test_lci_unreaped_completion_reported_at_shutdown():
    """The arrival's budget is returned but its queue entry never
    dequeued: the completion queue still holds it at the end."""
    env, world = _send_never_received()
    world[1].pool.free_nowait()
    err = audit(env, runtimes=world)
    assert err.rule == "lci.cq_unreaped"
    assert err.host == 1
    assert err.details == {"unreaped": 1}


# ---------------------------------------------------------------------------
# MPI two-sided checks (planted bugs)
# ---------------------------------------------------------------------------
def test_signatures_overlap():
    A_S, A_T = ANY_SOURCE, ANY_TAG
    assert signatures_overlap(A_S, 5, 0, 5)
    assert signatures_overlap(0, 5, A_S, 5)
    assert signatures_overlap(0, A_T, 0, 5)
    assert signatures_overlap(0, 5, 0, 5)
    assert not signatures_overlap(0, 5, 1, 5)      # disjoint sources
    assert not signatures_overlap(A_S, 4, A_S, 5)  # disjoint tags
    assert not signatures_overlap(0, A_T, 1, A_T)  # disjoint sources


def _rendezvous_send_never_received():
    """Rank 0's rendezvous send whose receiver never posts: the RTS
    parks in rank 1's unexpected queue and the request never completes."""
    env, world = make_mpi_world(2)
    big = world.config.eager_limit * 4

    def sender(env):
        yield from world.endpoint(0).isend(1, tag=3, size=big, payload=b"?")

    def receiver(env):
        ep = world.endpoint(1)
        yield env.timeout(0.01)         # let the RTS arrive
        yield from ep.progress()        # drain NIC -> unexpected queue

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    return env, world


def test_unmatched_send_at_finalize():
    env, world = _rendezvous_send_never_received()
    # Hosts in order: rank 0's open send is reported before rank 1's
    # parked RTS.
    err = audit(env, endpoints=[world.endpoint(0), world.endpoint(1)])
    assert err.rule == "mpi.unmatched_send_at_finalize"
    assert err.host == 0
    assert err.details == {"count": 1}


def test_unexpected_at_finalize():
    env, world = _rendezvous_send_never_received()
    err = audit(env, endpoints=[world.endpoint(1)])
    assert err.rule == "mpi.unexpected_at_finalize"
    assert err.host == 1
    assert err.details == {"count": 1}


def test_pending_recv_at_finalize():
    env, world = make_mpi_world(2)

    def receiver(env):
        ep = world.endpoint(1)
        yield from ep.irecv(source=0, tag=7)   # never matched

    env.process(receiver(env))
    env.run()
    err = audit(env, endpoints=[world.endpoint(0), world.endpoint(1)])
    assert err.rule == "mpi.pending_recv_at_finalize"
    assert err.host == 1
    assert err.details == {"count": 1}


def test_completed_sends_pass_the_audit():
    """Eager and rendezvous sends both count as completed once done."""
    env, world = make_mpi_world(2)
    big = world.config.eager_limit * 4

    def sender(env):
        ep = world.endpoint(0)
        for size in (64, big):
            req = yield from ep.isend(1, tag=1, size=size, payload=b"s")
            yield from ep.wait(req)

    def receiver(env):
        ep = world.endpoint(1)
        for _ in range(2):
            yield from ep.recv(source=0, tag=1)

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    ep0 = world.endpoint(0)
    assert ep0.isends == ep0.sends_completed == 2
    conservation_audit((), [world.endpoint(0), world.endpoint(1)], env.now)


def test_wildcard_order_hazard_on_overlapping_posts():
    env, world = make_mpi_world(2)

    def receiver(env):
        ep = world.endpoint(1)
        yield from ep.irecv(source=ANY_SOURCE, tag=7)
        yield from ep.irecv(source=0, tag=7)   # overlaps via ANY_SOURCE

    env.process(receiver(env))
    with pytest.raises(SanitizerError) as ei:
        env.run()
    assert ei.value.rule == "mpi.wildcard_order_hazard"
    assert ei.value.host == 1
    assert ei.value.details["pending_source"] == ANY_SOURCE


def test_identical_signatures_are_not_a_hazard():
    """FIFO per-(source, tag) keeps identical posts deterministic."""
    env, world = make_mpi_world(2)

    def receiver(env):
        ep = world.endpoint(1)
        yield from ep.irecv(source=ANY_SOURCE, tag=7)
        yield from ep.irecv(source=ANY_SOURCE, tag=7)

    env.process(receiver(env))
    env.run()                           # raises nothing


def _flood_rank_0(senders, per_sender, credits):
    """Ranks 1..``senders`` each send ``per_sender`` eager messages to
    rank 0, which posts no receive and drains its NIC once."""
    env, world = make_mpi_world(
        senders + 1, intel_mpi().with_(eager_credits_per_peer=credits))

    def sender(env, rank):
        ep = world.endpoint(rank)
        for tag in range(per_sender):
            req = yield from ep.isend(0, tag=tag, size=64, payload=b"a")
            yield from ep.wait(req)

    def receiver(env):
        yield env.timeout(0.05)
        yield from world.endpoint(0).progress()

    for rank in range(1, senders + 1):
        env.process(sender(env, rank))
    env.process(receiver(env))
    return env, world


def test_unexpected_watermark_fires_once(monkeypatch):
    """The first breach raises; later arrivals never get to report."""
    monkeypatch.setattr(endpoint, "UNEXPECTED_WATERMARK", 2)
    env, _ = _flood_rank_0(senders=2, per_sender=2, credits=2)
    with pytest.raises(SanitizerError) as ei:
        env.run()                   # four arrivals, zero posted receives
    assert ei.value.rule == "mpi.unexpected_watermark"
    assert ei.value.host == 0
    assert ei.value.details == {"queue_len": 3, "watermark": 2}


def test_unexpected_watermark_allows_provisioned_credits(monkeypatch):
    """A configuration with more eager credits per peer than the
    watermark may park that many messages from one peer (Fig. 1's
    message-rate benchmark sizes its credits to its whole window)."""
    monkeypatch.setattr(endpoint, "UNEXPECTED_WATERMARK", 2)
    env, world = _flood_rank_0(senders=1, per_sender=8, credits=8)
    env.run()                       # raises nothing
    assert len(world.endpoint(0).unexpected) == 8


# ---------------------------------------------------------------------------
# MPI RMA / PSCW epoch checks (planted races)
# ---------------------------------------------------------------------------
def run_pscw(origin_puts, epochs=1):
    """PSCW epochs from rank 0 to rank 1, each issuing ``origin_puts``."""
    env, world = make_mpi_world(2)
    win = MpiWindow(world, size_fn=lambda o, t: 4096, label="san-win")

    def origin(env):
        yield from win.create(0)
        for _ in range(epochs):
            yield from win.start(0, [1])
            for (nbytes, offset) in origin_puts:
                yield from win.put(0, 1, nbytes, payload=b"p", offset=offset)
            yield from win.complete(0)

    def target(env):
        yield from win.create(1)
        for _ in range(epochs):
            yield from win.post(1, [0])
            yield from win.wait(1)

    env.process(origin(env))
    env.process(target(env))
    env.run()


def test_rma_overlapping_put_race_detected():
    with pytest.raises(SanitizerError) as ei:
        run_pscw([(512, 0), (512, 256)])   # [0,512) x [256,768)
    assert ei.value.rule == "mpi.rma_overlapping_put"
    assert ei.value.host == 0
    assert ei.value.details == {
        "target": 1, "offset": 256, "nbytes": 512,
        "earlier_offset": 0, "earlier_end": 512,
    }


def test_rma_disjoint_puts_are_clean():
    run_pscw([(512, 0), (512, 512), (512, 1024)])   # raises nothing


def test_rma_race_cannot_span_epochs():
    """complete() synchronizes: the same offset in a new epoch is fine."""
    run_pscw([(512, 0)], epochs=2)                   # raises nothing


def test_rma_overlapping_put_raise_mode():
    with pytest.raises(SanitizerError) as ei:
        run_pscw([(512, 0), (512, 0)])
    assert ei.value.rule == "mpi.rma_overlapping_put"
    assert ei.value.details["earlier_offset"] == 0


# ---------------------------------------------------------------------------
# RNG stream registry (satellite: duplicate registration rejected)
# ---------------------------------------------------------------------------
def test_rng_register_rejects_duplicates():
    rng = RngFactory(7)
    a = rng.register("faults.drop.0", owner="fault spec #0")
    assert a.random() is not None
    with pytest.raises(ValueError, match="fault spec #0"):
        rng.register("faults.drop.0", owner="fault spec #1")
    # Deliberate sharing through stream() stays legal.
    assert rng.stream("faults.drop.0") is not None


def test_rng_stream_still_shares():
    rng = RngFactory(7)
    s1 = rng.stream("shared")
    s2 = rng.stream("shared")
    assert s1 is s2


# ---------------------------------------------------------------------------
# Bit-identity acceptance: checks on == checks off, to the last bit
# ---------------------------------------------------------------------------
# (total, compute, comm seconds, rounds) of each run made with no
# protocol check armed, before the checks became unconditional.
CHECKS_OFF_BASELINE = {
    ("bfs", "lci"): (1.3366735943647166e-05, 7.968955223880601e-07,
                     1.2569840421259106e-05, 3),
    ("pagerank", "mpi-rma"): (3.2088281122869085e-05, 2.390686567164177e-06,
                              2.969759455570491e-05, 3),
}


@pytest.mark.parametrize("app,layer", [
    ("bfs", "lci"),
    ("pagerank", "mpi-rma"),
])
def test_sanitized_runs_are_bit_identical(app, layer):
    sc = Scenario(app=app, graph="rmat", scale=8, hosts=2, layer=layer,
                  pagerank_rounds=3)
    res = build_engine(sc).run()
    total, compute, comm, rounds = CHECKS_OFF_BASELINE[(app, layer)]
    assert res.total_seconds == total
    assert res.compute_seconds == compute
    assert res.comm_seconds == comm
    assert res.rounds == rounds


# ---------------------------------------------------------------------------
# The end-of-run audit runs on every engine run
# ---------------------------------------------------------------------------
def _leaky_engine(sc, **kwargs):
    """The scenario's engine, with host 1 keeping its first freed
    receive budget (a planted LCI consumer leak)."""
    engine = build_engine(sc, **kwargs)
    pool = engine.layers[1].rt.pool
    real_free = pool.free
    kept = []

    def free(thread=None):
        if kept:
            yield from real_free(thread)
        kept.append(thread)

    pool.free = free
    return engine


def test_unsanitized_engine_run_raises_on_planted_leak():
    sc = Scenario(app="bfs", graph="rmat", scale=8, hosts=2, layer="lci")
    engine = _leaky_engine(sc)
    with pytest.raises(SanitizerError) as ei:
        engine.run()
    assert ei.value.rule == "lci.packet_leak"
    assert ei.value.host == 1
    assert ei.value.time == engine.env.now
    assert ei.value.details == {
        "leaked": 1, "pool_size": engine.layers[1].rt.pool.size,
    }


def test_engine_run_raises_on_uncounted_free():
    """Host 0's completion-callback free skips its counter: the run's
    audit finds the counters no longer telescope to ``in_use``."""
    sc = Scenario(app="bfs", graph="rmat", scale=8, hosts=2, layer="lci")
    engine = build_engine(sc)
    pool = engine.layers[0].rt.pool
    real_free_nowait = pool.free_nowait

    def free_nowait(thread=None):
        real_free_nowait(thread)
        pool.free_nowaits -= 1          # planted: an uncounted free

    pool.free_nowait = free_nowait
    with pytest.raises(SanitizerError) as ei:
        engine.run()
    assert ei.value.rule == "lci.pool_count_drift"
    assert ei.value.host == 0
    assert ei.value.details["drift"] > 0
    assert ei.value.details["in_use"] == 0


def test_cli_run_exits_3_on_planted_leak_without_sanitize(monkeypatch,
                                                          capsys):
    import repro.cli as cli

    monkeypatch.setattr(cli, "build_engine", _leaky_engine)
    argv = ["run", "--app", "bfs", "--scale", "7", "--hosts", "2",
            "--layer", "lci"]
    assert cli.main(argv) == SANITIZER_EXIT_CODE
    assert "[lci.packet_leak] host 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------
def test_cli_lint_exit_codes(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.py"
    bad.write_text("import time\nx = time.time()\n")
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert main(["lint", str(bad)]) == 1
    assert "D101" in capsys.readouterr().out
    assert main(["lint", str(good)]) == 0
    report = tmp_path / "report.json"
    assert main(["lint", str(bad), "--json", str(report)]) == 1
    capsys.readouterr()
    data = json.loads(report.read_text())
    assert data["counts_by_rule"] == {"D101": 1}
    assert len(data["findings"]) == 1


class _RaisingEngine:
    """Stands in for a built engine whose run trips a protocol check."""

    def run(self):
        raise SanitizerError("mpi.rma_overlapping_put", 0, 0.0,
                             "planted race", {})


@pytest.mark.parametrize("verb", ["run", "chaos", "serve"])
def test_cli_exits_3_on_sanitizer_error(verb, monkeypatch, capsys):
    import repro.cli as cli
    import repro.faults.harness as harness
    import repro.serve.engine as serve_engine

    def build(*args, **kwargs):
        return _RaisingEngine()

    for module in (cli, harness, serve_engine):
        monkeypatch.setattr(module, "build_engine", build)
    argv = [verb, "--scale", "6", "--hosts", "2"]
    if verb == "serve":
        argv += ["--tape-queries", "1"]
    assert cli.main(argv) == SANITIZER_EXIT_CODE
    err = capsys.readouterr().err
    assert "[mpi.rma_overlapping_put] host 0" in err
    assert "planted race" in err
