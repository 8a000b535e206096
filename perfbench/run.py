"""Run one workload of the benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read_fbox --seed 1 --seconds 10 --trace 0

``--trace 0`` builds the world ``SETUP_REPS`` times (reporting the
median set-up time), runs the closed loop for ``--seconds`` and prints
the end-to-end metrics.  ``--trace 1`` runs the loop untraced for half
the time, then installs the per-layer wrappers (see ``tracing.py``),
builds a fresh world and runs the other half traced; it prints the
per-layer metrics, including the tracing overhead between the halves.

Every run checks every reply, sends a handful of tampered capabilities
that must all be rejected, and (``mutate_durable``) reboots the server
and compares every directory with the client's model.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the run's metadata (commit, host, load, seed, input digest).
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

_now = time.perf_counter_ns

#: Latency percentiles are computed per window of this length.
WINDOW_NS = 1_000_000_000

#: World builds per untraced run; ``setup_s`` is their median.
SETUP_REPS = 5

#: Coherence bound: layer self times plus unattributed time must match
#: the traced mean time per op within this share.
COHERENCE = 0.10

#: Time per op outside every wrapped entry point (the benchmark's own
#: loop and any unwrapped program code it calls directly) may be at most
#: this share of the traced mean.  Traced runs left 3-6%; a hot path that
#: loses its wrapper pushes its time here.
UNATTRIBUTED_MAX = 0.08

#: Layers each workload never enters; their metrics must read zero.
BYPASSED = {
    "read_fbox": ("disk.", "softprot.", "net.sched.", "net.message."),
    "read_sealed": ("disk.", "net.sched.", "net.message."),
    "mutate_durable": ("softprot.",),
}


def git_commit(root):
    """The checked-out commit read from ``.git`` (None outside a clone)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root):
    """SHA-256 over every file under ``src/``: names the code measured
    even where there is no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def percentile(ordered, q):
    """Nearest-rank percentile of an ascending list."""
    index = max(0, min(len(ordered) - 1, int(round(q * len(ordered))) - 1))
    return ordered[index]


def timed_loop(world, seconds, tracer=None):
    """Closed loop for ``seconds``: issue, time to reply, check.

    Returns a dict with the op count, failures, wall time, one latency
    sample (ns) per op (a pipelined batch's latency is that of each op
    in it) and the sample index where each one-second window starts.
    """
    issue = world.issue
    check = world.check
    latencies = []
    record = latencies.extend if world.inflight > 1 else None
    windows = [0]
    ops = failed = 0
    begin = tracer.begin if tracer is not None else None
    end = tracer.end if tracer is not None else None
    start = _now()
    deadline = start + int(seconds * 1e9)
    next_window = start + WINDOW_NS
    while True:
        if begin is not None:
            begin("bench")
        t0 = _now()
        issued = issue()
        t1 = _now()
        n, bad = check(issued)
        if end is not None:
            end()
        ops += n
        failed += bad
        if record is None:
            latencies.append(t1 - t0)
        else:
            record([t1 - t0] * n)
        if t1 >= next_window:
            windows.append(len(latencies))
            next_window += WINDOW_NS
        if t1 >= deadline:
            break
    wall = _now() - start
    return {"ops": ops, "failed": failed, "wall_ns": wall,
            "latencies": latencies, "windows": windows}


def window_percentiles(loop, q):
    """``q``-percentile of each full one-second window of the run (the
    whole run when it is shorter than two windows)."""
    lat = loop["latencies"]
    cuts = loop["windows"]
    spans = list(zip(cuts, cuts[1:])) if len(cuts) > 2 else [(0, len(lat))]
    return [percentile(sorted(lat[a:b]), q) for a, b in spans if b > a]


def build_warm(workloads, name, inputs, server_cls):
    start = _now()
    world = workloads.build(name, inputs, server_cls=server_cls)
    try:
        world.warm()
    except BaseException:
        world.close()
        raise
    return world, (_now() - start) / 1e9


def end_to_end(loop, setups):
    """The end-to-end metrics.  Latency percentiles are taken per
    one-second window: this host's speed drifts by 20-30% over seconds,
    which makes the p50 of a whole run jump between the modes, and one
    stalled second moves a whole run's p99.  So the p50 is the mean of
    the windows' p50s and the p99 the median of the windows' p99s."""
    completed = loop["ops"] - loop["failed"]
    return {
        "ops_per_s": {"value": completed / (loop["wall_ns"] / 1e9),
                      "unit": "1/s"},
        "latency_p50_us": {
            "value": statistics.mean(window_percentiles(loop, 0.50)) / 1e3,
            "unit": "us"},
        "latency_p99_us": {
            "value": statistics.median(window_percentiles(loop, 0.99)) / 1e3,
            "unit": "us"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(name, world, loop, tracer, before, after, untraced,
              lru_reference=0.0):
    """The per-layer metrics of one traced phase, and the coherence and
    bypass verdicts."""
    ops = loop["ops"] - loop["failed"] or 1
    self_ns = tracer.self_ns
    entries = tracer.entries
    counters = tracer.counters
    reported = {"bench"}

    def us(*keys):
        reported.update(keys)
        return sum(self_ns.get(k, 0) for k in keys) / ops / 1e3

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    checkpoints = delta("checkpoints")
    recover_ns = getattr(world, "recover_ns", None)
    m = {
        "ipc.client.self_us": us("ipc.client"),
        "ipc.rpc.self_us": us("ipc.rpc"),
        "net.nic.listen_us": us("net.nic.listen"),
        "net.nic.unlisten_us": us("net.nic.unlisten"),
        "net.nic.self_us": us("net.nic"),
        "net.network.self_us": us("net.network"),
        "net.network.frames_per_op": delta("frames_sent") / ops,
        "net.fbox.self_us": us("net.fbox"),
        "crypto.oneway.self_us": us("crypto.oneway"),
        "crypto.oneway.calls_per_op": entries.get("crypto.oneway", 0) / ops,
        "ipc.server.self_us": us("ipc.server"),
        "ipc.server.frames_per_batch": _ratio(
            counters.get("ipc.server.frames", 0),
            counters.get("ipc.server.batches", 0)),
        "ipc.server.dedup_us": us("ipc.server.dedup"),
        "ipc.server.error_replies": counters.get(
            "ipc.server.error_replies", 0),
        "core.registry.lookup_us": us("core.registry.lookup"),
        "core.registry.verify_per_lookup": _ratio(
            counters.get("core.schemes.verify", 0),
            counters.get("core.registry.lookups", 0)),
        "core.registry.persist_us": us("core.registry.persist"),
        "core.schemes.self_us": us("core.schemes"),
        "softprot.matrix.self_us": us("softprot.matrix"),
        "softprot.matrix.cipher_ops_per_op": delta("cipher_ops") / ops,
        "crypto.feistel.self_us": us("crypto.feistel"),
        "softprot.cache.self_us": us("softprot.cache"),
        "softprot.cache.client_hit_ratio": _ratio(
            delta("client_hits"),
            delta("client_hits") + delta("client_misses")),
        "softprot.cache.server_hit_ratio": _ratio(
            delta("server_hits"),
            delta("server_hits") + delta("server_misses")),
        "softprot.cache.occupancy": after.get("occupancy", 0.0),
        "softprot.cache.lru_reference_hit_ratio": lru_reference,
        "ipc.locate.self_us": us("ipc.locate"),
        "ipc.locate.hit_ratio": _ratio(
            delta("locate_hits"),
            delta("locate_hits") + delta("locate_misses")),
        "disk.wal.self_us": us("disk.wal"),
        "disk.wal.records_per_op": delta("wal_records") / ops,
        "disk.virtualdisk.self_us": us("disk.virtualdisk"),
        "disk.virtualdisk.writes_per_op": delta("disk_writes") / ops,
        "disk.wal.checkpoint_ms": _ratio(delta("checkpoint_ns"),
                                         checkpoints) / 1e6,
        "disk.wal.recover_ms": recover_ns / 1e6 if recover_ns else 0.0,
        "net.sched.self_us": us("net.sched"),
        "net.sched.max_depth": after.get("max_depth", 0),
        "net.sched.drops": delta("sched_drops"),
        "net.message.pack_us": us("net.message.pack"),
        "net.message.bytes_per_op": counters.get("net.message.bytes", 0) / ops,
        "bench.unattributed_us": self_ns.get("bench", 0) / ops / 1e3,
        "trace.overhead_pct": 100.0 * (
            (loop["wall_ns"] / ops)
            / (untraced["wall_ns"] / (untraced["ops"] - untraced["failed"]
                                      or 1))
            - 1.0),
    }
    layers = [v for k, v in m.items()
              if k.endswith("_us") and not k.startswith("bench.")]
    attributed = sum(layers) + m["bench.unattributed_us"]
    mean_us = loop["wall_ns"] / ops / 1e3
    coherence = {
        "traced_mean_us": mean_us,
        "attributed_us": attributed,
        "error": (attributed - mean_us) / mean_us,
        "unattributed_share": m["bench.unattributed_us"] / mean_us,
        # Span keys the tracer recorded that no metric reports.
        "unreported": sorted(set(self_ns) - reported),
    }
    coherence["ok"] = (abs(coherence["error"]) <= COHERENCE
                       and coherence["unattributed_share"] <= UNATTRIBUTED_MAX
                       and not coherence["unreported"])
    nonzero = sorted(
        k for k, v in m.items()
        if v and any(k.startswith(p) for p in BYPASSED[name]))
    return m, coherence, nonzero


def metadata(args, inputs):
    return {
        "commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "input_sha256": inputs.digest,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("read_fbox", "read_sealed",
                                 "mutate_durable"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--files", type=int, default=None,
                        help="files in the read workloads (default 4096; "
                             "smaller only for the benchmark's own tests)")
    args = parser.parse_args(argv)
    try:
        import tracing
        import workloads
    except ImportError as exc:
        print("perfbench: cannot import the program under test: %s" % exc,
              file=sys.stderr)
        return 2
    result = run(args, workloads, tracing)
    print(json.dumps(result))
    return 0


def run(args, workloads, tracing, server_cls=None):
    """One benchmark run; returns the result object (the last line)."""
    files = args.files or workloads.FILES
    inputs = workloads.Inputs(args.workload, args.seed, files=files)
    meta = metadata(args, inputs)
    attempted = failed = 0
    summary = {}
    if not args.trace:
        setups = []
        world = None
        for _ in range(SETUP_REPS):
            if world is not None:
                world.close()
            world, seconds = build_warm(
                workloads, args.workload, inputs, server_cls)
            setups.append(seconds)
        try:
            loop = timed_loop(world, args.seconds)
            post_attempted, post_failed = world.post_checks()
        finally:
            world.close()
        attempted = loop["ops"] + post_attempted
        failed = loop["failed"] + post_failed
        metrics = end_to_end(loop, setups)
        meta["latency_samples"] = len(loop["latencies"])
        meta["latency_windows"] = len(loop["windows"]) - 1
        meta["setup_s_all"] = setups
        correct = failed == 0
    else:
        half = args.seconds / 2
        world, _ = build_warm(workloads, args.workload, inputs, server_cls)
        try:
            untraced = timed_loop(world, half)
            post = world.post_checks()
        finally:
            world.close()
        attempted += untraced["ops"] + post[0]
        failed += untraced["failed"] + post[1]
        tracer = tracing.Tracer()
        tracing.install(tracer)
        world, _ = build_warm(workloads, args.workload, inputs, server_cls)
        try:
            warm_end = world.position
            before = world.counters()
            tracer.start()
            loop = timed_loop(world, half, tracer)
            tracer.stop()
            after = world.counters()
            post = world.post_checks()
        finally:
            world.close()
        attempted += loop["ops"] + post[0]
        failed += loop["failed"] + post[1]
        lru_reference = 0.0
        if args.workload == "read_sealed":
            # The client's exact access sequence since the world was
            # built, counted from the end of the warm-up.
            lru_reference = workloads.lru_hit_ratio(
                world.accesses(0, world.position), after["cache_capacity"],
                warm_end)
        metrics_raw, coherence, nonzero = per_layer(
            args.workload, world, loop, tracer, before, after, untraced,
            lru_reference)
        metrics_raw["failed_frac"] = failed / attempted if attempted else 0.0
        units = unit_map()
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in metrics_raw.items()}
        summary["coherence"] = coherence
        summary["bypass_nonzero"] = nonzero
        correct = failed == 0 and coherence["ok"] and not nonzero
    meta["loadavg_end"] = list(os.getloadavg())
    meta["failed_frac"] = failed / attempted if attempted else 0.0
    meta.update(summary)
    print("# meta " + json.dumps(meta, sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def unit_map():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
