"""Wire-path throughput: frames/sec through the full transaction stack.

This module is both the library of throughput workloads used by
``benchmarks/run_bench.py`` (which writes ``BENCH_throughput.json``) and a
pytest-benchmark suite over the same workloads.

The workloads deliberately use only APIs that exist in every revision of
this repository (``trans``, ``Nic``, ``SimNetwork``, ``ObjectServer``),
so ``run_bench.py --baseline-src`` can execute the identical code against
an older checkout and report honest speedups.

Workloads
---------
``echo_round_trip``
    One client, one echo server, blocking ``trans`` round trips — the §2.1
    primitive every higher-level operation is built from.
``multi_client``
    N clients × M replicated servers on one shared put-port; exercises the
    round-robin arbiter plus the full dispatch path.
``routing_scan``
    50 attached machines, each listening on its own port; one sender
    cycles port-addressed frames across all of them.  This isolates the
    router: pre-index it scanned every NIC per frame, post-index it is one
    dict lookup.
``pipelined_16_inflight``
    The §2.1 primitive with 16 transactions in flight through the
    event-loop delivery engine (``SimNetwork(synchronous=False)`` +
    ``trans_many``), measured twice: against the full ObjectServer stack
    (apples-to-apples with ``echo_round_trip``) and against a batch
    service built directly on the station API (the engine's own floor).
    Returns None on source trees that predate the engine, so
    ``--baseline-src`` comparisons skip it cleanly.
``stage_timings``
    Per-stage microcosts (one-way F cold/warm, F-box egress, pack,
    unpack) so regressions can be attributed, not just detected.
"""

import time

from repro.core.ports import Port, PrivatePort
from repro.crypto.randomsrc import RandomSource
from repro.ipc.rpc import trans
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.fbox import FBox
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic


class EchoServer(ObjectServer):
    service_name = "bench echo"

    @command(USER_BASE)
    def _echo(self, ctx):
        return ctx.ok(data=ctx.request.data)


def _best_of(repeats, measured):
    """Run a measured segment ``repeats`` times, return the fastest.

    The minimum is the standard low-noise estimator for a deterministic
    workload: every source of variance (GC, scheduler, frequency
    scaling) only ever adds time.
    """
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        measured()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


# ----------------------------------------------------------------------
# workloads — each returns a dict of stable keys
# ----------------------------------------------------------------------


def echo_round_trip(n=4000, payload=b"payload", warmup=400, repeats=5):
    """Blocking echo transactions, one client against one server."""
    net = SimNetwork()
    server = EchoServer(Nic(net), rng=RandomSource(seed=1)).start()
    client = Nic(net)
    rng = RandomSource(seed=2)
    request = Message(command=USER_BASE, data=payload)
    for _ in range(warmup):
        trans(client, server.put_port, request, rng)

    def measured():
        for _ in range(n):
            trans(client, server.put_port, request, rng)

    net.reset_stats()
    elapsed = _best_of(repeats, measured)
    return {
        "transactions": n,
        "frames": net.frames_sent // repeats,
        "seconds": round(elapsed, 6),
        "trans_per_sec": round(n / elapsed, 1),
        "frames_per_sec": round(net.frames_sent / repeats / elapsed, 1),
        "us_per_trans": round(elapsed / n * 1e6, 3),
    }


def multi_client(n_clients=8, n_servers=4, requests=200, warmup=40):
    """N clients × M replicated servers sharing one put-port."""
    net = SimNetwork()
    shared_rng = RandomSource(seed=3)
    first = EchoServer(Nic(net), rng=RandomSource(seed=4)).start()
    for _ in range(n_servers - 1):
        EchoServer(
            Nic(net),
            rng=shared_rng,
            get_port=first.get_port,
            signature=first.signature,
        ).start()
    clients = [Nic(net) for _ in range(n_clients)]
    rng = RandomSource(seed=5)
    request = Message(command=USER_BASE, data=b"x" * 64)
    for client in clients:
        for _ in range(warmup // n_clients + 1):
            trans(client, first.put_port, request, rng)
    total = n_clients * requests

    def measured():
        for _ in range(requests):
            for client in clients:
                trans(client, first.put_port, request, rng)

    net.reset_stats()
    repeats = 3
    elapsed = _best_of(repeats, measured)
    net.frames_sent //= repeats
    return {
        "clients": n_clients,
        "servers": n_servers,
        "transactions": total,
        "frames": net.frames_sent,
        "seconds": round(elapsed, 6),
        "trans_per_sec": round(total / elapsed, 1),
        "frames_per_sec": round(net.frames_sent / elapsed, 1),
        "us_per_trans": round(elapsed / total * 1e6, 3),
    }


def routing_scan(n_machines=50, frames=20000, warmup=500):
    """Port-addressed delivery with many attached machines.

    Every machine has a GET outstanding on its own port, so the pre-index
    router examined all of them for every frame; the sender cycles through
    the ports so no single queue grows unboundedly hot.
    """
    net = SimNetwork()
    sender = Nic(net)
    wire_ports = []
    for i in range(n_machines):
        receiver = Nic(net)
        wire_ports.append(receiver.listen(Port(1000 + i)))
    request = Message(command=USER_BASE)
    n_ports = len(wire_ports)
    for i in range(warmup):
        sender.put(request.copy(dest=wire_ports[i % n_ports]))
    # Pre-build the messages so the measurement isolates routing +
    # delivery rather than message construction.
    cycle = [request.copy(dest=port) for port in wire_ports]

    def measured():
        for i in range(frames):
            sender.put(cycle[i % n_ports])

    net.reset_stats()
    repeats = 3
    elapsed = _best_of(repeats, measured)
    return {
        "machines": n_machines,
        "frames": frames,
        "delivered": net.frames_delivered // repeats,
        "seconds": round(elapsed, 6),
        "frames_per_sec": round(frames / elapsed, 1),
        "us_per_frame": round(elapsed / frames * 1e6, 3),
    }


def pipelined_inflight(inflight=16, batches=250, payload=b"payload",
                       warmup=20, repeats=5):
    """Pipelined transactions through the event-loop delivery engine.

    Two measurements over identical wire traffic:

    * ``trans_per_sec`` — ``trans_many`` against a replicated-shape
      :class:`EchoServer` (the full ObjectServer dispatch stack), the
      number to compare with ``echo_round_trip``;
    * ``primitive_trans_per_sec`` — the same batch against an echo
      service written directly on the batch station API
      (``serve_batch`` + ``put_owned_unicast_bulk``), which is what the
      engine itself costs without the service framework.
    """
    try:
        from repro.ipc.rpc import trans_many
        net = SimNetwork(synchronous=False, auto_drain=False)
    except (ImportError, TypeError):
        return None  # pre-engine source tree (a --baseline-src subrun)

    server = EchoServer(Nic(net), rng=RandomSource(seed=1)).start()
    client = Nic(net)
    rng = RandomSource(seed=7)
    requests = [Message(command=USER_BASE, data=payload)] * inflight
    for _ in range(warmup):
        trans_many(client, server.put_port, requests, rng)
    total = inflight * batches

    def measured():
        for _ in range(batches):
            trans_many(client, server.put_port, requests, rng)

    net.reset_stats()
    elapsed = _best_of(repeats, measured)
    frames = net.frames_sent // repeats

    # The primitive-level service: same protocol, no dispatch framework.
    raw_net = SimNetwork(synchronous=False, auto_drain=False)
    service = Nic(raw_net)

    def batch_echo(frames_run):
        out = []
        append = out.append
        for frame in frames_run:
            message = frame.message
            append((message.reply_to(data=message.data), frame.src))
        service.put_owned_unicast_bulk(out)

    wire = service.serve_batch(PrivatePort(1111), batch_echo)
    raw_client = Nic(raw_net)
    for _ in range(warmup):
        trans_many(raw_client, wire, requests, rng)

    def measured_raw():
        for _ in range(batches):
            trans_many(raw_client, wire, requests, rng)

    raw_elapsed = _best_of(repeats, measured_raw)
    return {
        "inflight": inflight,
        "transactions": total,
        "frames": frames,
        "seconds": round(elapsed, 6),
        "trans_per_sec": round(total / elapsed, 1),
        "us_per_trans": round(elapsed / total * 1e6, 3),
        "primitive_trans_per_sec": round(total / raw_elapsed, 1),
        "primitive_us_per_trans": round(raw_elapsed / total * 1e6, 3),
    }


def stage_timings(iters=20000):
    """Microcosts of the individual wire-path stages, in µs per call."""
    fbox = FBox()
    rng = RandomSource(seed=6)
    message = Message(
        dest=Port(7),
        reply=Port(8),
        signature=Port(9),
        command=USER_BASE,
        data=b"d" * 128,
    )
    raw = fbox.transform_egress(message).pack()

    def clock(fn, reps):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        return (time.perf_counter() - start) / reps * 1e6

    warm_port = Port(424242)
    fbox.one_way(warm_port)
    cold_values = [Port.random(rng) for _ in range(iters)]
    cold_iter = iter(cold_values)

    return {
        "one_way_warm_us": round(clock(lambda: fbox.one_way(warm_port), iters), 4),
        "one_way_cold_us": round(
            clock(lambda: fbox.one_way(next(cold_iter)), iters), 4
        ),
        "transform_egress_us": round(
            clock(lambda: fbox.transform_egress(message), iters), 4
        ),
        "pack_us": round(clock(message.pack, iters), 4),
        "unpack_us": round(clock(lambda: Message.unpack(raw), iters), 4),
    }


#: Stable workload registry consumed by run_bench.py.  A workload may
#: return None (API not present on this source tree) and is then omitted
#: from the results.
WORKLOADS = {
    "echo_round_trip": echo_round_trip,
    "multi_client_8x4": multi_client,
    "routing_50_machines": routing_scan,
    "pipelined_16_inflight": pipelined_inflight,
    "stage_timings": stage_timings,
}

#: Reduced-size keyword overrides for `run_bench.py --smoke`: the same
#: workloads at a fraction of the iterations, so CI can prove the whole
#: harness runs in a few seconds without fighting benchmark noise.
SMOKE_OVERRIDES = {
    "echo_round_trip": {"n": 400, "warmup": 50, "repeats": 2},
    "multi_client_8x4": {"requests": 25, "warmup": 8},
    "routing_50_machines": {"frames": 2000, "warmup": 100},
    "pipelined_16_inflight": {"batches": 25, "warmup": 4, "repeats": 2},
    "stage_timings": {"iters": 2000},
}


# ----------------------------------------------------------------------
# pytest-benchmark wrappers
# ----------------------------------------------------------------------


class TestThroughput:
    def test_echo_round_trip(self, benchmark):
        net = SimNetwork()
        server = EchoServer(Nic(net), rng=RandomSource(seed=1)).start()
        client = Nic(net)
        rng = RandomSource(seed=2)
        request = Message(command=USER_BASE, data=b"payload")
        reply = benchmark(trans, client, server.put_port, request, rng)
        assert reply.data == b"payload"

    def test_routing_50_machines(self, benchmark):
        net = SimNetwork()
        sender = Nic(net)
        wire_ports = [Nic(net).listen(Port(1000 + i)) for i in range(50)]
        frames = [Message(dest=port) for port in wire_ports]
        counter = iter(range(10**9))

        def send_one():
            return sender.put(frames[next(counter) % 50])

        assert benchmark(send_one)

    def test_pack_unpack(self, benchmark):
        message = Message(dest=Port(7), command=USER_BASE, data=b"d" * 128)
        raw = message.pack()

        def codec_round_trip():
            return Message.unpack(message.pack()).pack() == raw

        assert benchmark(codec_round_trip)
