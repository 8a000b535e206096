"""Real-wire throughput: transactions/sec across OS processes over UDP.

The in-process workloads in :mod:`bench_throughput` measure the CPU cost
of the stack; these measure the *latency-bearing* path the paper's F-box
argument is actually about — genuine datagrams between two processes on
loopback, with syscalls, pump-thread handoffs, and kernel socket buffers
in the loop.  This is where pipelining pays multiplicatively: while a
serial client spends each round trip waiting, ``trans_many`` keeps 16
transactions in flight, the client's egress buffering coalesces the
burst, and the server's recv-side batching turns it into one batch of
handler calls plus one reply flush.

Workloads (stable keys in ``BENCH_throughput.json``)
----------------------------------------------------
``udp_echo_round_trip``
    Blocking ``trans`` round trips against an :class:`EchoServer` running
    in its own OS process — the serial baseline.
``udp_pipelined_16_inflight``
    The same wire traffic with 16 transactions in flight via
    ``trans_many`` and a ``buffer_egress`` client; ``vs_udp_serial_x``
    (derived in ``run_bench.py``) is the headline pipelining multiple.

The server process is started fresh per workload and handshakes its
address and ports over a pipe; everything uses APIs present since the
event-loop PR, so ``--baseline-src`` comparisons run it unchanged.
"""

import multiprocessing
import time

from repro.core.ports import Port
from repro.crypto.randomsrc import RandomSource
from repro.ipc.rpc import trans, trans_many
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.message import Message
from repro.net.sockets import SocketNode

#: Generous per-transaction timeout: the benchmark must not flake on a
#: loaded CI box; a genuinely lost datagram fails loudly instead.
_TIMEOUT = 10.0


class EchoServer(ObjectServer):
    service_name = "udp bench echo"

    @command(USER_BASE)
    def _echo(self, ctx):
        return ctx.ok(data=ctx.request.data)


def _echo_server_proc(conn):
    """Server process body: one EchoServer on one SocketNode.

    Sends ``(address, put_port_value)`` over ``conn`` once listening,
    then blocks until the parent signals shutdown (or dies, which closes
    the pipe).  Egress buffering is on so a batch of requests drained by
    recv-side batching answers with one coalesced reply flush.
    """
    node = SocketNode(buffer_egress=True)
    server = EchoServer(node, rng=RandomSource(seed=1))
    server.start()
    conn.send((node.address, server.put_port.value))
    try:
        conn.recv()  # blocks for the shutdown token / closed pipe
    except EOFError:
        pass
    node.close()


def _spawn_echo_server():
    """Start the echo server in its own process; returns (proc, conn,
    server address, put port)."""
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(target=_echo_server_proc, args=(child_conn,), daemon=True)
    proc.start()
    child_conn.close()
    address, put_value = parent_conn.recv()
    return proc, parent_conn, address, Port(put_value)


def _stop_server(proc, conn):
    try:
        conn.send("stop")
    except (BrokenPipeError, OSError):
        pass
    proc.join(timeout=5.0)
    if proc.is_alive():
        proc.terminate()
        proc.join(timeout=5.0)
    conn.close()


def _best_of(repeats, measured):
    """Fastest of ``repeats`` runs — the low-noise estimator (variance
    from the scheduler and the other process only ever adds time)."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        measured()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


# ----------------------------------------------------------------------
# workloads — each returns a dict of stable keys, or None when the
# source tree under test (a --baseline-src subrun) lacks the APIs
# ----------------------------------------------------------------------


def udp_echo_round_trip(n=800, payload=b"payload", warmup=80, repeats=5):
    """Serial blocking transactions against the other process."""
    proc, conn, address, put_port = _spawn_echo_server()
    try:
        with SocketNode() as client:
            rng = RandomSource(seed=2)
            request = Message(command=USER_BASE, data=payload)
            for _ in range(warmup):
                trans(client, put_port, request, rng,
                      dst_machine=address, timeout=_TIMEOUT)

            def measured():
                for _ in range(n):
                    trans(client, put_port, request, rng,
                          dst_machine=address, timeout=_TIMEOUT)

            elapsed = _best_of(repeats, measured)
    finally:
        _stop_server(proc, conn)
    return {
        "transactions": n,
        "seconds": round(elapsed, 6),
        "trans_per_sec": round(n / elapsed, 1),
        "us_per_trans": round(elapsed / n * 1e6, 3),
    }


def udp_pipelined_inflight(inflight=16, batches=50, payload=b"payload",
                           warmup=6, repeats=5):
    """16-in-flight pipelined transactions over the same wire."""
    proc, conn, address, put_port = _spawn_echo_server()
    try:
        try:
            client = SocketNode(buffer_egress=True)
        except TypeError:
            return None  # pre-engine source tree (a --baseline-src subrun)
        with client:
            rng = RandomSource(seed=3)
            requests = [Message(command=USER_BASE, data=payload)] * inflight
            for _ in range(warmup):
                trans_many(client, put_port, requests, rng,
                           dst_machine=address, timeout=_TIMEOUT)

            def measured():
                for _ in range(batches):
                    trans_many(client, put_port, requests, rng,
                               dst_machine=address, timeout=_TIMEOUT)

            elapsed = _best_of(repeats, measured)
    finally:
        _stop_server(proc, conn)
    total = inflight * batches
    return {
        "inflight": inflight,
        "transactions": total,
        "seconds": round(elapsed, 6),
        "trans_per_sec": round(total / elapsed, 1),
        "us_per_trans": round(elapsed / total * 1e6, 3),
    }


#: Registry merged into run_bench.py's workload table.
WORKLOADS = {
    "udp_echo_round_trip": udp_echo_round_trip,
    "udp_pipelined_16_inflight": udp_pipelined_inflight,
}

#: CI-sized overrides, same shape as bench_throughput.SMOKE_OVERRIDES.
SMOKE_OVERRIDES = {
    "udp_echo_round_trip": {"n": 60, "warmup": 10, "repeats": 1},
    "udp_pipelined_16_inflight": {"batches": 6, "warmup": 2, "repeats": 1},
}


def main(argv=None):
    """Stand-alone entry point (``make bench-udp-smoke``).

    Runs both workloads — tiny sizes with ``--smoke`` — and prints the
    pipelining multiple; never writes ``BENCH_throughput.json`` (that is
    ``run_bench.py``'s job).
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
        print("  %-26s %10.0f trans/sec  (%.1f us/trans)"
              % (name, result["trans_per_sec"], result["us_per_trans"]))
    serial = results.get("udp_echo_round_trip")
    pipelined = results.get("udp_pipelined_16_inflight")
    if serial and pipelined and serial["trans_per_sec"]:
        print("  %-26s %9.2fx"
              % ("vs_udp_serial_x",
                 pipelined["trans_per_sec"] / serial["trans_per_sec"]))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
