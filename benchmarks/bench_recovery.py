"""Durability benchmarks: what the write-ahead log costs and buys.

PR 8 gives object tables a life across reboots — every create/refresh/
destroy is appended to a per-stripe log on a virtual disk, snapshots
truncate the logs, and ``ObjectServer.reboot()`` replays the disk into
a new incarnation.  These arms measure that layer.

Workloads (stable keys in ``BENCH_throughput.json``)
----------------------------------------------------
``recovery_time_vs_size``
    Kill a durable table at several sizes and measure attach + replay
    wall time; the figure of merit is recovered entries per second and
    how it scales with table size (snapshot + log-tail mixture).
``recovery_wal_overhead``
    The steady-state tax: dedup echo transactions against an identical
    server with and without a durable store (every reply logs a commit
    record before egress).  The smoke bar: durable throughput stays
    >= 85% of plain (<= 15% overhead).
``recovery_kill_reboot``
    The acceptance scenario on the DES virtual-clock wire with seeded
    frame loss *and* seeded disk faults: a durable directory server
    loses power mid-snapshot, is respawned on the same disk, and the
    client fleet's retried non-idempotent writes land effectively once
    — zero double-executions, deterministic by double run.
"""

import time

from repro.crypto.randomsrc import RandomSource
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic

PAPER_RTT_MS = 2.8


class EchoServer(ObjectServer):
    service_name = "recovery bench echo"

    @command(USER_BASE)
    def _echo(self, ctx):
        return ctx.ok(data=ctx.request.data)


def _durability_api():
    """The disk/WAL API, or None on source trees that predate it."""
    try:
        from repro.disk.virtualdisk import VirtualDisk
        from repro.disk.wal import DurableStore
    except ImportError:
        return None
    return VirtualDisk, DurableStore


# ----------------------------------------------------------------------
# recovery time vs table size
# ----------------------------------------------------------------------


def _recovery_point(size, seed):
    from repro.core.ports import Port
    from repro.core.registry import ObjectTable
    from repro.core.schemes import scheme_by_name
    from repro.disk.virtualdisk import VirtualDisk
    from repro.disk.wal import DefaultCodec, DurableStore

    port = Port(0x0BADC0FFEE00)
    scheme = scheme_by_name("xor-oneway")
    disk = VirtualDisk(max(1024, size * 2))
    store = DurableStore(disk, codec=DefaultCodec())
    table = ObjectTable(scheme, port, rng=RandomSource(seed=seed),
                        wal=store, shards=store.shards)
    caps = [table.create("object-%06d" % i) for i in range(size)]
    # Half the state lives in snapshots, half in log tails — the
    # realistic mixture a crash interrupts.
    if size >= 2:
        store.snapshot(table)
        for cap in caps[: size // 8]:
            table.refresh(cap)

    start = time.perf_counter()
    cold = DurableStore(disk, codec=DefaultCodec())
    rebuilt = ObjectTable(scheme, port, rng=RandomSource(seed=seed + 1),
                          wal=cold, shards=cold.shards)
    report = cold.recover(rebuilt, rng=RandomSource(seed=seed + 2))
    elapsed = time.perf_counter() - start
    assert report.entries_restored == size
    return {
        "entries": size,
        "records_replayed": report.records_replayed,
        "seconds": round(elapsed, 6),
        "entries_per_sec": round(size / elapsed, 1) if elapsed else None,
        "used_blocks": cold.stats()["used_blocks"],
    }


def recovery_time_vs_size(sizes=(256, 1024, 4096), seed=41):
    """Attach + replay wall time across table sizes."""
    if _durability_api() is None:
        return None
    return {"seed": seed,
            "points": [_recovery_point(size, seed) for size in sizes]}


# ----------------------------------------------------------------------
# steady-state WAL overhead on the echo workload
# ----------------------------------------------------------------------


def _echo_world(store):
    """One echo server world; returns (timed-epoch fn, server)."""
    from repro.ipc.rpc import trans

    net = SimNetwork()
    server = EchoServer(Nic(net), rng=RandomSource(seed=1), dedup=True,
                        store=store).start()
    client = Nic(net)
    rng = RandomSource(seed=2)
    request = Message(command=USER_BASE, data=b"payload")

    def epoch(n):
        start = time.perf_counter()
        for _ in range(n):
            trans(client, server.put_port, request, rng)
        return time.perf_counter() - start

    return epoch, server


def _echo_pair(n, warmup, repeats, store):
    """Interleaved plain/durable epochs: a transient load spike on the
    host hits both arms instead of biasing whichever ran second."""
    plain_epoch, _ = _echo_world(None)
    durable_epoch, durable_server = _echo_world(store)
    plain_epoch(warmup)
    durable_epoch(warmup)
    plain_best = durable_best = None
    for _ in range(repeats):
        elapsed = plain_epoch(n)
        plain_best = elapsed if plain_best is None else min(plain_best, elapsed)
        elapsed = durable_epoch(n)
        durable_best = (elapsed if durable_best is None
                        else min(durable_best, elapsed))
        # Periodic checkpoint (untimed): truncates the commit log so the
        # disk footprint stays bounded, as a real server would.
        durable_server.checkpoint()

    def shaped(best, disk_writes):
        return {
            "seconds": round(best, 6),
            "trans_per_sec": round(n / best, 1),
            "us_per_trans": round(best / n * 1e6, 3),
            "disk_writes": disk_writes,
        }

    return shaped(plain_best, 0), shaped(durable_best, store.disk.writes)


def _mutate_run(n, repeats, store_factory):
    """DIR_ENTER/REMOVE churn — every request writes durable state."""
    from repro.servers.directory import DirectoryClient, DirectoryServer

    net = SimNetwork()
    store = store_factory() if store_factory is not None else None
    server = DirectoryServer(Nic(net), rng=RandomSource(seed=1), dedup=True,
                             store=store).start()
    root = server.create_root()
    client = DirectoryClient(Nic(net), server.put_port,
                             rng=RandomSource(seed=2),
                             expect_signature=server.signature_image)
    sub = client.create_directory(root, "churn")
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        # Interleaved so the directory stays small: an update record
        # logs the whole payload, and this arm measures the per-op log
        # cost, not the payload encoding of an ever-growing directory.
        for i in range(n):
            client.enter(root, "n%d" % i, sub)
            client.remove(root, "n%d" % i)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
        if store is not None:
            server.checkpoint()
    ops = 2 * n
    return {
        "seconds": round(best, 6),
        "trans_per_sec": round(ops / best, 1),
        "us_per_trans": round(best / ops * 1e6, 3),
        "disk_writes": store.disk.writes if store is not None else 0,
    }


def recovery_wal_overhead(n=3000, warmup=300, repeats=5):
    """Dedup echo with a durable store vs without: the WAL tax.

    Echo is idempotent, so the durable server skips commit logging for
    it (safe to re-execute after a reboot) — the bar guards exactly
    that fast path.  The ``mutate`` sub-result shows the honest price
    of durability where it matters: every ENTER/REMOVE logs the new
    directory payload plus a commit record before the reply leaves.
    """
    api = _durability_api()
    if api is None:
        return None
    VirtualDisk, DurableStore = api
    from repro.disk.wal import DefaultCodec
    from repro.servers.directory import DirectoryCodec

    plain, durable = _echo_pair(
        n, warmup, repeats,
        DurableStore(VirtualDisk(16384), codec=DefaultCodec()),
    )
    ratio = durable["trans_per_sec"] / plain["trans_per_sec"]

    m = max(200, n // 4)
    mut_plain = _mutate_run(m, max(2, repeats - 2), None)
    mut_durable = _mutate_run(
        m, max(2, repeats - 2),
        lambda: DurableStore(VirtualDisk(16384), codec=DirectoryCodec()),
    )
    mut_ratio = mut_durable["trans_per_sec"] / mut_plain["trans_per_sec"]
    return {
        "transactions": n,
        "plain": plain,
        "durable": durable,
        "durable_vs_plain": round(ratio, 4),
        "overhead_pct": round((1.0 - ratio) * 100.0, 2),
        "disk_writes_per_trans": round(
            durable["disk_writes"] / (warmup + repeats * n), 3),
        "mutate": {
            "plain": mut_plain,
            "durable": mut_durable,
            "durable_vs_plain": round(mut_ratio, 4),
            "overhead_pct": round((1.0 - mut_ratio) * 100.0, 2),
        },
    }


# ----------------------------------------------------------------------
# kill and reboot under DES + seeded faults
# ----------------------------------------------------------------------


def _kill_reboot_run(n_pre, n_post, seed):
    from repro.disk.diskfaults import DiskFaultPlan
    from repro.disk.virtualdisk import VirtualDisk
    from repro.disk.wal import DurableStore
    from repro.errors import PowerFailure
    from repro.ipc.rpc import RetryPolicy
    from repro.net.faults import FaultPlan
    from repro.net.sched import LatencyModel, VirtualClock
    from repro.servers.directory import (
        DirectoryClient, DirectoryCodec, DirectoryServer,
    )

    plan = FaultPlan(seed=seed, drop=0.05)
    net = SimNetwork(clock=VirtualClock(),
                     latency=LatencyModel(rtt_ms=PAPER_RTT_MS),
                     faults=plan)
    disk = VirtualDisk(8192)
    server = DirectoryServer(
        Nic(net), rng=RandomSource(seed=1), dedup=True,
        store=DurableStore(disk, codec=DirectoryCodec()),
    ).start()
    root = server.create_root()
    client = DirectoryClient(
        Nic(net), server.put_port, rng=RandomSource(seed=2),
        expect_signature=server.signature_image,
        timeout=5.0, retry=RetryPolicy(attempts=10, rto=0.01, seed=seed),
    )
    for i in range(n_pre):
        client.create_directory(root, "pre-%04d" % i)

    # Power fails mid-snapshot: some stripes checkpointed, some not,
    # a half-written snapshot chain left on the disk.
    disk.faults = DiskFaultPlan(power_fail_after=7)
    power_failed = False
    try:
        server.checkpoint()
    except PowerFailure:
        power_failed = True
    server.stop()
    disk.faults.revive()
    disk.faults = None

    # Respawn on the same disk with the same service identity.
    respawn = DirectoryServer(
        Nic(net), get_port=server.get_port, rng=RandomSource(seed=100 + seed),
        dedup=True, store=DurableStore(disk, codec=DirectoryCodec()),
    )
    report = respawn.reboot()
    respawn.start()
    client.expect_signature = respawn.signature_image

    # Old capabilities from clean stripes keep working; the retried,
    # non-idempotent writes must land exactly once each.
    for i in range(n_post):
        client.create_directory(root, "post-%04d" % i)
    listing = client.list(root)
    double_executions = len(listing) - len(set(listing))
    return {
        "seed": seed,
        "pre_crash_creates": n_pre,
        "post_crash_creates": n_post,
        "power_failed_mid_snapshot": power_failed,
        "entries_recovered": report.entries_restored,
        "suspect_stripes": list(report.suspect_stripes),
        "commits_recovered": len(report.commits),
        "blocks_reclaimed": report.blocks_reclaimed,
        "final_entries": len(listing),
        "double_executions": double_executions,
        "virtual_seconds": round(net.clock.now, 9),
        "faults": plan.stats(),
    }


def recovery_kill_reboot(n_pre=60, n_post=60, seed=43):
    """Kill-and-reboot on the DES wire; deterministic by double run."""
    if _durability_api() is None:
        return None
    try:
        result = _kill_reboot_run(n_pre, n_post, seed)
    except ImportError:
        return None
    again = _kill_reboot_run(n_pre, n_post, seed)
    result["deterministic"] = again == result
    result["recovered"] = (
        result["power_failed_mid_snapshot"]
        and result["entries_recovered"] == n_pre + 1
        and result["final_entries"] == n_pre + n_post
        and result["double_executions"] == 0
    )
    return result


#: Registry merged into run_bench.py's workload table.
WORKLOADS = {
    "recovery_time_vs_size": recovery_time_vs_size,
    "recovery_wal_overhead": recovery_wal_overhead,
    "recovery_kill_reboot": recovery_kill_reboot,
}

#: CI-sized overrides, same shape as bench_throughput.SMOKE_OVERRIDES.
SMOKE_OVERRIDES = {
    "recovery_time_vs_size": {"sizes": (128, 512)},
    "recovery_wal_overhead": {"n": 800, "warmup": 100, "repeats": 3},
    "recovery_kill_reboot": {"n_pre": 25, "n_post": 25},
}


def main(argv=None):
    """Stand-alone entry point (``make bench-recovery-smoke``).

    Runs all three arms and *asserts* the durability acceptance bars:
    WAL overhead on the echo workload stays <= 15%, the kill-and-reboot
    scenario recovers every entry with zero double-executions, and the
    scenario is deterministic by double run.  Never writes
    ``BENCH_throughput.json`` (that is ``run_bench.py``'s job).
    """
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized iteration counts")
    args = parser.parse_args(argv)
    results = {}
    for name, workload in WORKLOADS.items():
        kwargs = SMOKE_OVERRIDES.get(name, {}) if args.smoke else {}
        result = workload(**kwargs)
        if result is None:
            print("  %-28s skipped (API absent)" % name)
            continue
        results[name] = result
    if not results:
        print("durability API absent on this tree; nothing to check")
        return 0

    failures = []
    sizes = results.get("recovery_time_vs_size")
    if sizes:
        for point in sizes["points"]:
            print("  recover %6d entries        %10.1f entries/sec"
                  % (point["entries"], point["entries_per_sec"]))

    overhead = results.get("recovery_wal_overhead")
    if overhead:
        print("  %-28s %.1f%% overhead (%.0f -> %.0f trans/sec, "
              "%.2f writes/trans)"
              % ("recovery_wal_overhead", overhead["overhead_pct"],
                 overhead["plain"]["trans_per_sec"],
                 overhead["durable"]["trans_per_sec"],
                 overhead["disk_writes_per_trans"]))
        mutate = overhead.get("mutate")
        if mutate:
            print("  %-28s %.1f%% overhead on mutations (%.0f -> %.0f "
                  "trans/sec)"
                  % ("", mutate["overhead_pct"],
                     mutate["plain"]["trans_per_sec"],
                     mutate["durable"]["trans_per_sec"]))
        if overhead["durable_vs_plain"] < 0.85:
            failures.append(
                "WAL overhead is %.1f%% (> 15%% bar)"
                % overhead["overhead_pct"])

    reboot = results.get("recovery_kill_reboot")
    if reboot:
        print("  %-28s %d recovered, %d final, %d double-exec  (%s, %s)"
              % ("recovery_kill_reboot", reboot["entries_recovered"],
                 reboot["final_entries"], reboot["double_executions"],
                 "recovered" if reboot["recovered"] else "FAILED",
                 "deterministic" if reboot["deterministic"]
                 else "NON-DETERMINISTIC"))
        if not reboot["recovered"]:
            failures.append("kill-and-reboot failed: %r" % (reboot,))
        if not reboot["deterministic"]:
            failures.append("kill-and-reboot double run diverged")

    for failure in failures:
        print("FAIL: %s" % failure)
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
