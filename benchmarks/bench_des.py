"""Virtual-clock discrete-event benchmarks: latency amortization, measured.

The wall-clock workloads in :mod:`bench_throughput` measure the CPU cost
of the stack at zero wire latency, where pipelining is bounded by the
host (~1.5x full stack — see docs/PERFORMANCE.md).  These workloads run
the identical protocol code on the DES network
(``SimNetwork(clock=VirtualClock(), latency=LatencyModel(rtt_ms=2.8))``)
and measure *virtual* time: what the transactions would cost on a
paper-era 2.8 ms-RTT wire.  There the economics §4 describes finally
appear — a serial client pays one RTT per transaction while 16-in-flight
pipelining pays one RTT per *batch* — and they appear deterministically:
the clock only advances on event delivery, so the same seed produces the
same numbers on any host, at any load.

Workloads (stable keys in ``BENCH_throughput.json``)
----------------------------------------------------
``des_echo_round_trip``
    Blocking ``trans`` round trips against the full :class:`EchoServer`
    stack under a 2.8 ms virtual RTT — the serial baseline, exactly one
    RTT of virtual time per transaction.
``des_pipelined_16_inflight``
    The same traffic with 16 transactions in flight via ``trans_many``;
    ``vs_des_serial_x`` (derived in ``run_bench.py``) is the latency-
    amortization multiple, >= 8x by the acceptance bar (measured: 16x —
    one RTT buys the whole batch).

Both report ``virtual_seconds``/``virtual_ms_per_trans`` rather than
wall time; ``deterministic`` records that a second identically-seeded
run reproduced the numbers bit for bit.
"""

from repro.crypto.randomsrc import RandomSource
from repro.ipc.rpc import trans, trans_many
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic

#: The paper-era round trip: §4's measured locate+RPC figures are in the
#: low milliseconds on 1986 hardware and a 10 Mbit/s segment.
PAPER_RTT_MS = 2.8


class EchoServer(ObjectServer):
    service_name = "des bench echo"

    @command(USER_BASE)
    def _echo(self, ctx):
        return ctx.ok(data=ctx.request.data)


def _des_network(rtt_ms, jitter_ms, seed):
    """A DES network, or None on source trees that predate the mode."""
    try:
        from repro.net.sched import LatencyModel, VirtualClock
    except ImportError:
        return None
    try:
        return SimNetwork(
            clock=VirtualClock(),
            latency=LatencyModel(rtt_ms=rtt_ms, jitter_ms=jitter_ms, seed=seed),
        )
    except TypeError:
        return None


def _run_serial(n, rtt_ms, jitter_ms, seed, payload):
    """One seeded serial run; returns virtual seconds, or None pre-DES."""
    net = _des_network(rtt_ms, jitter_ms, seed)
    if net is None:
        return None
    server = EchoServer(Nic(net), rng=RandomSource(seed=1)).start()
    client = Nic(net)
    rng = RandomSource(seed=2)
    request = Message(command=USER_BASE, data=payload)
    start = net.clock.now
    for _ in range(n):
        trans(client, server.put_port, request, rng)
    return net.clock.now - start


def _run_pipelined(inflight, batches, rtt_ms, jitter_ms, seed, payload):
    net = _des_network(rtt_ms, jitter_ms, seed)
    if net is None:
        return None
    server = EchoServer(Nic(net), rng=RandomSource(seed=1)).start()
    client = Nic(net)
    rng = RandomSource(seed=2)
    requests = [Message(command=USER_BASE, data=payload)] * inflight
    start = net.clock.now
    for _ in range(batches):
        trans_many(client, server.put_port, requests, rng)
    return net.clock.now - start


def des_echo_round_trip(n=400, rtt_ms=PAPER_RTT_MS, jitter_ms=0.0, seed=42,
                        payload=b"payload"):
    """Serial blocking transactions under a virtual 2.8 ms RTT."""
    virtual = _run_serial(n, rtt_ms, jitter_ms, seed, payload)
    if virtual is None:
        return None  # pre-DES source tree (a --baseline-src subrun)
    again = _run_serial(n, rtt_ms, jitter_ms, seed, payload)
    return {
        "transactions": n,
        "rtt_ms": rtt_ms,
        "jitter_ms": jitter_ms,
        "seed": seed,
        "virtual_seconds": round(virtual, 9),
        "virtual_ms_per_trans": round(virtual / n * 1e3, 6),
        "trans_per_virtual_sec": round(n / virtual, 1),
        "deterministic": again == virtual,
    }


def des_pipelined_inflight(inflight=16, batches=50, rtt_ms=PAPER_RTT_MS,
                           jitter_ms=0.0, seed=42, payload=b"payload"):
    """16-in-flight ``trans_many`` batches under the same virtual RTT."""
    virtual = _run_pipelined(inflight, batches, rtt_ms, jitter_ms, seed, payload)
    if virtual is None:
        return None
    again = _run_pipelined(inflight, batches, rtt_ms, jitter_ms, seed, payload)
    total = inflight * batches
    return {
        "inflight": inflight,
        "transactions": total,
        "rtt_ms": rtt_ms,
        "jitter_ms": jitter_ms,
        "seed": seed,
        "virtual_seconds": round(virtual, 9),
        "virtual_ms_per_trans": round(virtual / total * 1e3, 6),
        "trans_per_virtual_sec": round(total / virtual, 1),
        "deterministic": again == virtual,
    }


#: Registry merged into run_bench.py's workload table.
WORKLOADS = {
    "des_echo_round_trip": des_echo_round_trip,
    "des_pipelined_16_inflight": des_pipelined_inflight,
}

#: CI-sized overrides, same shape as bench_throughput.SMOKE_OVERRIDES.
#: DES numbers are virtual (host speed does not move them), so the smoke
#: sizes exist only to bound CI wall time, not to fight noise.
SMOKE_OVERRIDES = {
    "des_echo_round_trip": {"n": 64},
    "des_pipelined_16_inflight": {"batches": 8},
}


def main(argv=None):
    """Stand-alone entry point (``make bench-des-smoke``).

    Runs both workloads at a fixed seed, prints the virtual-time numbers
    and the amortization multiple, and *asserts* the DES acceptance bar:
    deterministic replay, and pipelined >= 8x serial at the paper RTT.
    Never writes ``BENCH_throughput.json`` (that is ``run_bench.py``'s
    job).
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
            print("  %-26s skipped (API absent)" % name)
            continue
        results[name] = result
        print("  %-26s %10.3f virtual ms/trans  (%s)"
              % (name, result["virtual_ms_per_trans"],
                 "deterministic" if result["deterministic"] else
                 "NON-DETERMINISTIC"))
    serial = results.get("des_echo_round_trip")
    pipelined = results.get("des_pipelined_16_inflight")
    if not (serial and pipelined):
        print("DES mode absent on this tree; nothing to check")
        return 0
    ratio = (serial["virtual_ms_per_trans"]
             / pipelined["virtual_ms_per_trans"])
    print("  %-26s %9.2fx" % ("vs_des_serial_x", ratio))
    failures = []
    if not serial["deterministic"] or not pipelined["deterministic"]:
        failures.append("identically-seeded reruns diverged")
    if ratio < 8.0:
        failures.append("amortization multiple %.2fx below the 8x bar" % ratio)
    for failure in failures:
        print("FAIL: %s" % failure)
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
