"""Tests for repro.sanitize: the determinism lint and protocol sanitizers.

Each runtime rule is demonstrated on a deliberately broken fixture (a
planted leak, a planted double-free, a planted RMA race...) and the
bit-identity acceptance property — sanitized runs produce exactly the
numbers unsanitized runs do — is asserted end-to-end on BFS and
PageRank.
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
    intel_mpi,
)
from repro.mpi.exceptions import MPIUsageError
from repro.netapi.nic import Fabric
from repro.netapi.packet import PacketType
from repro.sanitize import (
    SANITIZER_EXIT_CODE,
    LciSanitizer,
    SanitizerContext,
    SanitizerError,
    signatures_overlap,
)
from repro.sanitize import mpi_checks
from repro.sanitize.lint import (
    is_order_sensitive,
    lint_repo,
    lint_source,
    report_dict,
)
from repro.sanitize.runtime import resolve_mode
from repro.sim.engine import Environment
from repro.sim.machine import stampede2
from repro.sim.rng import RngFactory


# ---------------------------------------------------------------------------
# Helpers: worlds with sanitizers armed (discovered via fabric.sanitizer,
# exactly the path the engine uses)
# ---------------------------------------------------------------------------
def make_mpi_world(num_hosts=2, mode="warn"):
    env = Environment()
    fabric = Fabric(env, num_hosts, stampede2())
    ctx = SanitizerContext(mode, env=env)
    fabric.sanitizer = ctx
    world = MpiWorld(env, fabric, intel_mpi(), ThreadMode.MULTIPLE)
    return env, world, ctx


def make_lci_world(num_hosts=2, mode="warn"):
    env = Environment()
    fabric = Fabric(env, num_hosts, stampede2())
    ctx = SanitizerContext(mode, env=env)
    fabric.sanitizer = ctx
    world = LciRuntime.create_world(env, fabric)
    return env, world, ctx


def make_sanitized_pool(size=3, rx_reserve=0, mode="warn"):
    env = Environment()
    ctx = SanitizerContext(mode, env=env)
    pool = PacketPool(
        env, stampede2().cpu, size=size, packet_data_bytes=1024,
        rx_reserve=rx_reserve,
    )
    pool.sanitizer = LciSanitizer(ctx, host=0)
    return env, pool, ctx


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
# Mode resolution and context mechanics
# ---------------------------------------------------------------------------
def test_resolve_mode_env_gating(monkeypatch):
    for off in ("", "0", "off", "false", "no"):
        monkeypatch.setenv("REPRO_SANITIZE", off)
        assert resolve_mode() is None
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert resolve_mode() == "warn"
    monkeypatch.setenv("REPRO_SANITIZE", "raise")
    assert resolve_mode() == "raise"
    monkeypatch.setenv("REPRO_SANITIZE", "strict")
    assert resolve_mode() == "raise"
    # Explicit settings beat the environment.
    assert resolve_mode("off") is None
    monkeypatch.delenv("REPRO_SANITIZE")
    assert resolve_mode("warn") == "warn"
    with pytest.raises(ValueError):
        resolve_mode("bogus")


def test_context_warn_accumulates_raise_raises():
    warn = SanitizerContext("warn")
    warn.violation("x.rule", 0, "first")
    warn.violation("x.rule", 1, "second")
    assert len(warn) == 2
    assert warn.summary() == {"x.rule": 2}
    assert [v.host for v in warn.by_rule("x.rule")] == [0, 1]
    strict = SanitizerContext("raise")
    with pytest.raises(SanitizerError) as ei:
        strict.violation("x.rule", 3, "boom", detail=7)
    assert ei.value.rule == "x.rule"
    assert ei.value.violation.details == {"detail": 7}


# ---------------------------------------------------------------------------
# LCI lifecycle sanitizers (planted bugs)
# ---------------------------------------------------------------------------
def test_pool_double_free_planted():
    env, pool, ctx = make_sanitized_pool(size=3)
    # The pool starts full: any free now is a double free.
    pool.free_nowait()
    assert ctx.summary() == {"lci.pool_double_free": 1}
    v = ctx.by_rule("lci.pool_double_free")[0]
    assert v.details["pool_size"] == 3


def test_pool_leak_planted():
    env, pool, ctx = make_sanitized_pool(size=3)

    def proc(env):
        yield from pool.alloc()
        yield from pool.alloc()
        # ...and never free: a leak at shutdown.

    env.process(proc(env))
    env.run()
    pool.sanitizer.check_shutdown(pool)
    leaks = ctx.by_rule("lci.packet_leak")
    assert len(leaks) == 1
    assert leaks[0].details["leaked"] == 2


def test_packet_double_free_and_use_after_free_planted():
    env, pool, ctx = make_sanitized_pool(size=3)

    def proc(env):
        yield from pool.alloc()
        pkt = pool.make_packet(PacketType.EGR, 0, 1, 5, 64)
        pool.touch(pkt)                 # live: fine
        pool.retire(pkt)
        yield from pool.free()
        pool.retire(pkt)                # double free
        pool.touch(pkt)                 # use after free

    env.process(proc(env))
    env.run()
    assert ctx.summary() == {
        "lci.packet_double_free": 1,
        "lci.packet_use_after_free": 1,
    }


def test_packet_lifecycle_is_per_host():
    """The transport hands the same Packet object to both ends; the
    sender retiring its budget must not poison the receiver's view."""
    env = Environment()
    ctx = SanitizerContext("warn", env=env)
    sender = LciSanitizer(ctx, host=0)
    receiver = LciSanitizer(ctx, host=1)

    class FakePkt:
        meta = {}
        uid = 1

    pkt = FakePkt()
    sender.on_packet_made(pkt)
    receiver.on_packet_made(pkt)
    sender.on_packet_retired(pkt)
    receiver.on_packet_use(pkt)     # receiver still live: no violation
    receiver.on_packet_retired(pkt)
    assert len(ctx) == 0
    sender.on_packet_use(pkt)       # sender is retired: violation
    assert ctx.summary() == {"lci.packet_use_after_free": 1}


def test_lci_healthy_roundtrip_is_clean():
    env, world, ctx = make_lci_world(2)
    result = {}

    def sender(env):
        yield from world[0].send_blocking(1, tag=9, size=256, payload=b"y" * 256)

    def receiver(env):
        req = yield from world[1].recv_blocking()
        result["payload"] = req.payload

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    for rt in world:
        rt.stop_server()
    assert result["payload"] == b"y" * 256
    assert len(ctx) == 0


def test_lci_unreceived_message_reported_at_shutdown():
    """Send without a matching dequeue: the arrival sits in the
    completion queue on a pool budget — both reported at shutdown."""
    env, world, ctx = make_lci_world(2)

    def sender(env):
        yield from world[0].send_blocking(1, tag=9, size=128, payload=b"z")

    env.process(sender(env))
    env.run()
    world[1].stop_server()
    summary = ctx.summary()
    assert summary.get("lci.packet_leak") == 1
    assert summary.get("lci.cq_unreaped") == 1
    assert ctx.by_rule("lci.packet_leak")[0].host == 1


# ---------------------------------------------------------------------------
# MPI two-sided sanitizers (planted bugs)
# ---------------------------------------------------------------------------
def test_signatures_overlap():
    A_S, A_T = ANY_SOURCE, ANY_TAG
    assert signatures_overlap(A_S, 5, 0, 5, A_S, A_T)
    assert signatures_overlap(0, A_T, 0, 5, A_S, A_T)
    assert not signatures_overlap(0, 5, 1, 5, A_S, A_T)   # disjoint sources
    assert not signatures_overlap(A_S, 4, A_S, 5, A_S, A_T)  # disjoint tags


def test_unmatched_send_and_unexpected_at_finalize():
    env, world, ctx = make_mpi_world(2)
    big = world.config.eager_limit * 4

    def sender(env):
        ep = world.endpoint(0)
        # Rendezvous send whose receiver never posts: the RTS parks in
        # rank 1's unexpected queue and this request never completes.
        yield from ep.isend(1, tag=3, size=big, payload=b"?")

    def receiver(env):
        ep = world.endpoint(1)
        yield env.timeout(0.01)         # let the RTS arrive
        yield from ep.progress()        # drain NIC -> unexpected queue

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    world.endpoint(0).finalize_check()
    world.endpoint(1).finalize_check()
    summary = ctx.summary()
    assert summary.get("mpi.unmatched_send_at_finalize") == 1
    assert summary.get("mpi.unexpected_at_finalize") == 1
    v = ctx.by_rule("mpi.unmatched_send_at_finalize")[0]
    assert v.host == 0 and v.details["first_peer"] == 1


def test_pending_recv_at_finalize():
    env, world, ctx = make_mpi_world(2)

    def receiver(env):
        ep = world.endpoint(1)
        yield from ep.irecv(source=0, tag=7)   # never matched

    env.process(receiver(env))
    env.run()
    world.endpoint(1).finalize_check()
    assert ctx.summary() == {"mpi.pending_recv_at_finalize": 1}


def test_wildcard_order_hazard_on_overlapping_posts():
    env, world, ctx = make_mpi_world(2)

    def receiver(env):
        ep = world.endpoint(1)
        yield from ep.irecv(source=ANY_SOURCE, tag=7)
        yield from ep.irecv(source=0, tag=7)   # overlaps via ANY_SOURCE

    env.process(receiver(env))
    env.run()
    hazards = ctx.by_rule("mpi.wildcard_order_hazard")
    assert len(hazards) == 1
    assert hazards[0].details["pending_source"] == ANY_SOURCE


def test_identical_signatures_are_not_a_hazard():
    """FIFO per-(source, tag) keeps identical posts deterministic."""
    env, world, ctx = make_mpi_world(2)

    def receiver(env):
        ep = world.endpoint(1)
        yield from ep.irecv(source=ANY_SOURCE, tag=7)
        yield from ep.irecv(source=ANY_SOURCE, tag=7)

    env.process(receiver(env))
    env.run()
    assert ctx.by_rule("mpi.wildcard_order_hazard") == []


def test_unexpected_watermark_fires_once(monkeypatch):
    monkeypatch.setattr(mpi_checks, "UNEXPECTED_WATERMARK", 2)
    env, world, ctx = make_mpi_world(2)

    def sender(env):
        ep = world.endpoint(0)
        for tag in range(4):
            req = yield from ep.isend(1, tag=tag, size=64, payload=b"a")
            yield from ep.wait(req)

    def receiver(env):
        ep = world.endpoint(1)
        yield env.timeout(0.05)
        yield from ep.progress()    # four arrivals, zero posted receives

    env.process(sender(env))
    env.process(receiver(env))
    env.run()
    marks = ctx.by_rule("mpi.unexpected_watermark")
    assert len(marks) == 1          # reported once, not on every breach
    assert marks[0].details["queue_len"] == 3


# ---------------------------------------------------------------------------
# MPI RMA / PSCW epoch sanitizers (planted races)
# ---------------------------------------------------------------------------
def run_pscw(mode, origin_puts):
    """One PSCW epoch from rank 0 to rank 1 issuing ``origin_puts``."""
    env, world, ctx = make_mpi_world(2, mode=mode)
    win = MpiWindow(world, size_fn=lambda o, t: 4096, label="san-win")

    def origin(env):
        yield from win.create(0)
        yield from win.start(0, [1])
        for (nbytes, offset) in origin_puts:
            yield from win.put(0, 1, nbytes, payload=b"p", offset=offset)
        yield from win.complete(0)

    def target(env):
        yield from win.create(1)
        yield from win.post(1, [0])
        yield from win.wait(1)

    env.process(origin(env))
    env.process(target(env))
    env.run()
    return ctx


def test_rma_overlapping_put_race_detected():
    ctx = run_pscw("warn", [(512, 0), (512, 256)])   # [0,512) x [256,768)
    races = ctx.by_rule("mpi.rma_overlapping_put")
    assert len(races) == 1
    assert races[0].details["earlier_offset"] == 0
    assert races[0].details["offset"] == 256


def test_rma_disjoint_puts_are_clean():
    ctx = run_pscw("warn", [(512, 0), (512, 512), (512, 1024)])
    assert len(ctx) == 0


def test_rma_race_cannot_span_epochs():
    """complete() synchronizes: the same offset in a new epoch is fine."""
    env, world, ctx = make_mpi_world(2)
    win = MpiWindow(world, size_fn=lambda o, t: 4096, label="san-win")

    def origin(env):
        yield from win.create(0)
        for _ in range(2):
            yield from win.start(0, [1])
            yield from win.put(0, 1, 512, payload=b"p", offset=0)
            yield from win.complete(0)

    def target(env):
        yield from win.create(1)
        for _ in range(2):
            yield from win.post(1, [0])
            yield from win.wait(1)

    env.process(origin(env))
    env.process(target(env))
    env.run()
    assert len(ctx) == 0


def test_rma_put_outside_epoch_recorded_and_raises_usage_error():
    env, world, ctx = make_mpi_world(2)
    win = MpiWindow(world, size_fn=lambda o, t: 4096, label="san-win")
    caught = []

    def origin(env):
        yield from win.create(0)
        try:
            yield from win.put(0, 1, 64, payload=b"p")
        except MPIUsageError as e:
            caught.append(str(e))

    def target(env):
        yield from win.create(1)

    env.process(origin(env))
    env.process(target(env))
    env.run()
    assert caught and "outside access epoch" in caught[0]
    assert ctx.summary() == {"mpi.rma_put_outside_epoch": 1}


def test_rma_overlapping_put_raise_mode():
    with pytest.raises(SanitizerError) as ei:
        run_pscw("raise", [(512, 0), (512, 0)])
    assert ei.value.rule == "mpi.rma_overlapping_put"


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
# Bit-identity acceptance: sanitize on == sanitize off, to the last bit
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("app,layer", [
    ("bfs", "lci"),
    ("pagerank", "mpi-rma"),
])
def test_sanitized_runs_are_bit_identical(app, layer):
    def run(sanitize):
        sc = Scenario(app=app, graph="rmat", scale=8, hosts=2, layer=layer,
                      pagerank_rounds=3, sanitize=sanitize)
        return build_engine(sc).run()

    # "off" (not None) so a REPRO_SANITIZE=1 test environment cannot
    # arm the baseline too and trivialise the comparison.
    base = run("off")
    sane = run("warn")
    assert sane.sanitizer_mode == "warn"
    assert sane.sanitizer_violations == []
    assert base.sanitizer_mode == ""
    assert sane.total_seconds == base.total_seconds
    assert sane.compute_seconds == base.compute_seconds
    assert sane.comm_seconds == base.comm_seconds
    assert sane.rounds == base.rounds


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


def test_cli_run_exits_3_on_warn_mode_violations(monkeypatch, capsys):
    import repro.cli as cli

    class FakeMetrics:
        total_seconds = 1.0
        compute_seconds = 0.5
        comm_seconds = 0.5
        rounds = 2
        sanitizer_mode = "warn"
        sanitizer_violations = [{
            "rule": "lci.packet_leak", "host": 0, "time": 0.0,
            "message": "planted", "details": {"leaked": 1},
        }]

        def row(self):
            return {"app": "bfs", "layer": "lci"}

        def stamp_wall(self, wall_seconds):
            return self

    class FakeEngine:
        def run(self):
            return FakeMetrics()

    monkeypatch.setattr(cli, "build_engine",
                        lambda sc, obs=None, commstats=None: FakeEngine())
    assert cli.main(["run", "--sanitize"]) == SANITIZER_EXIT_CODE
    assert "lci.packet_leak" in capsys.readouterr().err


def test_cli_run_exits_3_on_sanitizer_error(monkeypatch, capsys):
    import repro.cli as cli
    from repro.sanitize.runtime import Violation

    class FakeEngine:
        def run(self):
            raise SanitizerError(Violation(
                "mpi.rma_overlapping_put", 0, 0.0, "planted race"))

    monkeypatch.setattr(cli, "build_engine",
                        lambda sc, obs=None, commstats=None: FakeEngine())
    assert cli.main(["run", "--sanitize", "raise"]) == SANITIZER_EXIT_CODE
    assert "planted race" in capsys.readouterr().err
