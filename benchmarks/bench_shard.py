"""Sharded-data-plane benchmarks: contended lookups and overload floods.

Two workloads, both aimed at the server data plane rather than the wire:

``contended_lookup_8t``
    Eight threads hammer one server's :class:`ObjectTable` with repeat
    capability validations — the §2–§3 hot path every request funnels
    through.  On the monolithic tree every lookup serializes on one
    table lock and re-runs the one-way function; on the sharded tree
    each thread's objects live in their own lock stripes and repeat
    validations hit the per-entry verified memo (§2.4 applied server
    side).  The workload uses only APIs present in every revision
    (``ObjectTable``, ``create``, ``lookup``), so
    ``run_bench.py --baseline-src`` runs the identical code against an
    older checkout for an honest before/after.

``flood_drop_vs_backpressure``
    The first overload experiment against the PR 2 queue stats: a
    client floods a server's ingress port far beyond its queue bound
    and the event loop's ``depth``/``dropped_overflow`` counters make
    the loss visible, then the same flood runs against an unbounded
    queue (backpressure-by-memory).  Both arms measure pipelined
    throughput before and after the flood — a healthy server sheds the
    overload and returns to its pre-flood rate.

Run stand-alone (``make bench-shard-smoke``) this module *asserts* the
overload contract: the bounded arm must report nonzero
``dropped_overflow`` with the queue capped at ``max_depth``, the
unbounded arm must accept everything, and post-flood throughput must
recover.
"""

import threading
import time

from repro.core.ports import Port
from repro.core.registry import ObjectTable
from repro.core.schemes import scheme_by_name
from repro.crypto.randomsrc import RandomSource
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic


class EchoServer(ObjectServer):
    service_name = "shard bench echo"

    @command(USER_BASE)
    def _echo(self, ctx):
        return ctx.ok(data=ctx.request.data)


# ----------------------------------------------------------------------
# contended capability validation
# ----------------------------------------------------------------------


def contended_lookup(threads=8, objects=64, per_thread=25000, repeats=3):
    """N threads validating capabilities against one object table.

    Each thread owns a disjoint slice of the objects (the natural shape
    of a server whose concurrent requests name different objects), so
    on the sharded tree the threads touch disjoint lock stripes; on the
    monolithic tree they all serialize on the single table lock.
    """
    table = ObjectTable(
        scheme_by_name("xor-oneway"), Port(1), rng=RandomSource(seed=11)
    )
    caps = [table.create(i) for i in range(objects)]
    for cap in caps:
        table.lookup(cap)  # warm: prove every capability once

    def run_once():
        barrier = threading.Barrier(threads + 1)

        def worker(tid):
            mine = caps[tid::threads]
            span = len(mine)
            lookup = table.lookup
            barrier.wait()
            for j in range(per_thread):
                lookup(mine[j % span])

        workers = [
            threading.Thread(target=worker, args=(t,)) for t in range(threads)
        ]
        for t in workers:
            t.start()
        barrier.wait()
        start = time.perf_counter()
        for t in workers:
            t.join()
        return time.perf_counter() - start

    elapsed = min(run_once() for _ in range(repeats))
    total = threads * per_thread

    # Single-thread reference over the same capability cycle, for
    # attribution (how much is striping vs the per-op fast path).
    single_n = min(total, 4 * per_thread)
    lookup = table.lookup
    start = time.perf_counter()
    for j in range(single_n):
        lookup(caps[j % objects])
    single_elapsed = time.perf_counter() - start

    return {
        "threads": threads,
        "objects": objects,
        "shards": getattr(table, "shard_count", 1),
        "lookups": total,
        "seconds": round(elapsed, 6),
        "lookups_per_sec": round(total / elapsed, 1),
        "us_per_lookup": round(elapsed / total * 1e6, 3),
        "single_thread_lookups_per_sec": round(single_n / single_elapsed, 1),
    }


# ----------------------------------------------------------------------
# synthetic flood vs the PR 2 queue stats
# ----------------------------------------------------------------------


def _pipelined_rate(client, put_port, requests, rng, batches, trans_many,
                    repeats=3):
    """Best-of-``repeats`` pipelined throughput (the minimum-time
    estimator the other benchmarks use: noise only ever adds time)."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(batches):
            trans_many(client, put_port, requests, rng)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return len(requests) * batches / best


def _flood_arm(max_queue_depth, flood, inflight, batches, warmup):
    """One flood run; returns None on trees without the event loop."""
    try:
        from repro.ipc.rpc import trans_many
    except ImportError:
        return None
    try:
        net = SimNetwork(
            synchronous=False, auto_drain=False, max_queue_depth=max_queue_depth
        )
    except TypeError:
        return None
    server = EchoServer(Nic(net), rng=RandomSource(seed=1)).start()
    client = Nic(net)
    rng = RandomSource(seed=9)
    requests = [Message(command=USER_BASE, data=b"payload")] * inflight
    for _ in range(warmup):
        trans_many(client, server.put_port, requests, rng)
    pre = _pipelined_rate(
        client, server.put_port, requests, rng, batches, trans_many
    )
    net.reset_stats()
    # The flood: port-addressed requests blasted at the server's ingress
    # queue with no pump in between — an attacker (or a stampede) that
    # sends far faster than the server drains.
    flood_message = Message(command=USER_BASE, data=b"x" * 32)
    wire = server.put_port
    accepted = 0
    for _ in range(flood):
        if client.put(flood_message.copy(dest=wire)):
            accepted += 1
    stats = net.loop.stats()
    peak_depth = stats["max_depth_seen"]
    dropped = stats["dropped_overflow"]
    net.pump()  # the server sheds/serves the backlog
    post = _pipelined_rate(
        client, server.put_port, requests, rng, batches, trans_many
    )
    return {
        "max_queue_depth": max_queue_depth,
        "offered": flood,
        "accepted": accepted,
        "dropped_overflow": dropped,
        "peak_depth": peak_depth,
        "pre_flood_trans_per_sec": round(pre, 1),
        "post_flood_trans_per_sec": round(post, 1),
        "post_flood_ratio": round(post / pre, 3) if pre else 0.0,
    }


def flood_drop_vs_backpressure(flood=20000, max_depth=256, inflight=16,
                               batches=40, warmup=8):
    """Overload a server's ingress queue under both queue policies.

    * ``drop``: ``max_queue_depth`` bounds the queue; the tail of the
      flood is dropped and *counted* (``dropped_overflow``), memory
      stays bounded at ``max_depth``.
    * ``backpressure``: the unbounded queue absorbs the entire flood —
      nothing is lost, but ``peak_depth`` shows the memory the server
      traded for it.

    Both arms report pre- and post-flood pipelined throughput; the
    ratio is the recovery measure (a server that survives overload
    should return to its pre-flood rate once the queue drains).
    """
    drop = _flood_arm(max_depth, flood, inflight, batches, warmup)
    if drop is None:
        return None  # pre-event-loop source tree (a --baseline-src subrun)
    backpressure = _flood_arm(0, flood, inflight, batches, warmup)
    return {
        "offered": flood,
        "max_depth": max_depth,
        "dropped_overflow": drop["dropped_overflow"],
        "post_flood_ratio": drop["post_flood_ratio"],
        "drop": drop,
        "backpressure": backpressure,
    }


#: Registry merged into run_bench.py's workload table.
WORKLOADS = {
    "contended_lookup_8t": contended_lookup,
    "flood_drop_vs_backpressure": flood_drop_vs_backpressure,
}

#: CI-sized overrides, same shape as bench_throughput.SMOKE_OVERRIDES.
SMOKE_OVERRIDES = {
    "contended_lookup_8t": {"per_thread": 2500, "repeats": 2},
    "flood_drop_vs_backpressure": {"flood": 2500, "batches": 10, "warmup": 4},
}


def main(argv=None):
    """Stand-alone entry point (``make bench-shard-smoke``).

    Runs both workloads, prints the headline numbers, and *asserts* the
    overload contract: the bounded arm drops and counts, the unbounded
    arm absorbs, and both recover their pre-flood throughput.  Never
    writes ``BENCH_throughput.json`` (that is ``run_bench.py``'s job).
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
    contended = results.get("contended_lookup_8t")
    if contended:
        print("  %-28s %12.0f lookups/sec  (%d threads, %d shards)"
              % ("contended_lookup_8t", contended["lookups_per_sec"],
                 contended["threads"], contended["shards"]))
    failures = []
    flood = results.get("flood_drop_vs_backpressure")
    if flood:
        drop, backpressure = flood["drop"], flood["backpressure"]
        print("  %-28s dropped %d/%d at depth %d, recovery %.2fx"
              % ("flood: drop policy", drop["dropped_overflow"],
                 drop["offered"], drop["max_queue_depth"],
                 drop["post_flood_ratio"]))
        print("  %-28s absorbed %d, peak depth %d, recovery %.2fx"
              % ("flood: backpressure", backpressure["accepted"],
                 backpressure["peak_depth"],
                 backpressure["post_flood_ratio"]))
        if drop["dropped_overflow"] <= 0:
            failures.append("bounded queue dropped nothing under flood")
        if drop["peak_depth"] > drop["max_queue_depth"]:
            failures.append(
                "queue depth %d exceeded its %d bound"
                % (drop["peak_depth"], drop["max_queue_depth"])
            )
        if backpressure["dropped_overflow"] != 0:
            failures.append("unbounded queue dropped frames")
        # The recovery bar is loose in smoke mode (tiny batches are
        # noisy on a loaded CI box); the full run holds a tighter one.
        floor = 0.5 if args.smoke else 0.8
        for arm_name, arm in (("drop", drop), ("backpressure", backpressure)):
            if arm["post_flood_ratio"] < floor:
                failures.append(
                    "%s arm recovered only %.2fx of pre-flood throughput"
                    % (arm_name, arm["post_flood_ratio"])
                )
    for failure in failures:
        print("FAIL: %s" % failure)
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
