"""The benchmark's own tests: every workload at its smallest size,
traced and untraced; a wrong-bytes server must be caught; seeded inputs.

Runs under plain pytest from the repository root.  Whole runs go through
``run.py`` in a child process, because a traced run installs wrappers on
the program's classes for the life of its process.
"""

import argparse
import json
import os
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.ipc.server import command  # noqa: E402
from repro.servers.flatfile import FILE_READ, FlatFileServer, R_READ  # noqa: E402
from repro.core.rights import Rights  # noqa: E402

WORKLOADS = ("read_fbox", "read_sealed", "mutate_durable")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _run_child(workload, trace, seed=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.4",
         "--trace", str(trace), "--files", "64"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("# meta ")
    return json.loads(lines[-2][len("# meta "):]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smallest_size_untraced(workload):
    meta, result = _run_child(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= workloads.FORGED + 1
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("commit", "nproc", "platform", "python", "loadavg_start",
                "loadavg_end", "seed", "input_sha256", "latency_samples"):
        assert key in meta


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smallest_size_traced_is_coherent(workload):
    meta, result = _run_child(workload, trace=1)
    assert result["failed"] == 0
    assert meta["coherence"]["ok"], meta["coherence"]
    assert meta["bypass_nonzero"] == []
    assert result["correct"] is True
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == names
    assert result["metrics"]["failed_frac"]["value"] == 0


class WrongBytesServer(FlatFileServer):
    """Answers every read with the right length but the wrong bytes."""

    @command(FILE_READ)
    def _read(self, ctx):
        ctx.lookup(Rights(R_READ))
        return ctx.ok(data=bytes(ctx.request.size))


def test_wrong_bytes_server_counts_failures(capsys):
    args = argparse.Namespace(
        workload="read_fbox", seed=1, seconds=0.2, trace=0, files=64)
    result = bench.run(args, workloads, tracing, server_cls=WrongBytesServer)
    capsys.readouterr()
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0.9


@pytest.mark.parametrize("workload", ("read_fbox", "mutate_durable"))
def test_seed_fixes_the_input_digest(workload):
    same = workloads.Inputs(workload, 7, files=64).digest
    assert workloads.Inputs(workload, 7, files=64).digest == same
    assert workloads.Inputs(workload, 8, files=64).digest != same


def test_lru_reference_is_exact():
    capacity = 8
    cyclic = list(range(capacity)) * 4
    assert workloads.lru_hit_ratio(cyclic, capacity, capacity) == 1.0
    too_big = list(range(capacity + 1)) * 4
    assert workloads.lru_hit_ratio(too_big, capacity, capacity + 1) == 0.0


def test_patch_refuses_a_missing_entry_point():
    class Layer:
        def present(self):
            return 1

    with pytest.raises(AttributeError):
        tracing._patch(tracing.Tracer(), (Layer,), "x", ("present", "gone"))


def _coherence(self_ns):
    """The coherence verdict of a fake traced phase: one op, 100 us."""
    tracer = types.SimpleNamespace(self_ns=self_ns, entries={}, counters={})
    loop = {"ops": 1, "failed": 0, "wall_ns": 100_000}
    _, coherence, _ = bench.per_layer(
        "read_fbox", object(), loop, tracer, {}, {}, loop)
    return coherence


def test_coherence_check_can_fail():
    assert _coherence({"ipc.client": 96_000, "bench": 4_000})["ok"]
    # A hot path that lost its wrapper leaves its time to the loop.
    assert not _coherence({"ipc.client": 60_000, "bench": 40_000})["ok"]
    # A span no metric reports.
    unreported = _coherence({"ipc.client": 90_000, "bench": 4_000,
                             "net.sockets": 6_000})
    assert unreported["unreported"] == ["net.sockets"]
    assert not unreported["ok"]
    # Spans that miss a share of the loop's wall time.
    assert not _coherence({"ipc.client": 80_000, "bench": 4_000})["ok"]
