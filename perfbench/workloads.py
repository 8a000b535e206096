"""The benchmark's three workloads, their seeded inputs and their checks.

Each workload is one closed-loop client against one server, built with
the constructor defaults except for the deployment choice under study:

``read_fbox``
    F-box deployment: ``FlatFileServer`` on a synchronous ``SimNetwork``,
    a ``FlatFileClient`` reading 128 bytes per call, one call in flight.
``read_sealed``
    The same traffic in the §2.4 software-protection deployment: the
    server is ``require_sealed`` with a ``ServerCapabilityCache``, the
    client seals through a ``CapabilitySealer`` with a
    ``ClientCapabilityCache`` and resolves the port with a ``Locator``.
``mutate_durable``
    ``DirectoryServer.durable`` (dedup + WAL on a ``VirtualDisk``) on a
    deferred-delivery ``SimNetwork``; 16 ENTER/REMOVE requests in flight
    through ``trans_many``, a checkpoint every 1024 acknowledged
    mutations, then a reboot on the same disk and a comparison of every
    directory with the client's model.

The inputs come only from the seed: file contents and the Zipf(1.1)
access trace for the two read workloads (the same traffic for both
at one seed), and the directory picks for ``mutate_durable``.
"""

import hashlib
import itertools
import random
import struct
import time
from collections import OrderedDict, deque

from repro.core.capability import Capability
from repro.disk.virtualdisk import VirtualDisk
from repro.disk.wal import DurableStore
from repro.errors import AmoebaError
from repro.ipc import rpc
from repro.ipc.locate import Locator, install_locate_responder
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.servers.directory import (
    DIR_ENTER,
    DIR_LIST,
    DIR_REMOVE,
    DirectoryClient,
    DirectoryCodec,
    DirectoryServer,
)
from repro.servers.flatfile import (
    FILE_READ,
    FlatFileClient,
    FlatFileServer,
    MemoryFile,
)
from repro.softprot.cache import ClientCapabilityCache, ServerCapabilityCache
from repro.softprot.matrix import CapabilitySealer, KeyMatrix

_now = time.perf_counter_ns

FILES = 4096
FILE_BYTES = 256
READ_BYTES = 128
ZIPF_S = 1.1
#: Length of the generated op sequence; the timed loop cycles through it.
TRACE_LEN = 1 << 16
INFLIGHT = 16
DIRECTORIES = 64
WINDOW = 16
CHECKPOINT_EVERY = 1024
#: Never fills: a checkpoint frees the log every CHECKPOINT_EVERY
#: mutations, and 96k mutations peaked at 1080 used blocks.
DISK_BLOCKS = 8192
#: Reads (or batches of them) run before timing: fills the §2.4 caches,
#: the locate cache and the verified-check memo.
WARM_OPS = 4096
#: Capabilities with a tampered check field sent after every timed phase.
FORGED = 4


class Inputs:
    """Everything a workload needs from the seed, and its digest."""

    def __init__(self, workload, seed, files=FILES):
        if workload == "mutate_durable":
            rng = random.Random("mutate:%d" % seed)
            self.batches = [
                rng.sample(range(DIRECTORIES), INFLIGHT)
                for _ in range(TRACE_LEN // INFLIGHT)
            ]
            raw = bytes(itertools.chain.from_iterable(self.batches))
        else:
            rng = random.Random("read:%d" % seed)
            self.contents = [rng.randbytes(FILE_BYTES) for _ in range(files)]
            ranked = list(range(files))
            rng.shuffle(ranked)
            cum = list(itertools.accumulate(
                1.0 / (rank ** ZIPF_S) for rank in range(1, files + 1)))
            picks = rng.choices(ranked, cum_weights=cum, k=TRACE_LEN)
            span = FILE_BYTES - READ_BYTES + 1
            offsets = [rng.randrange(span) for _ in range(TRACE_LEN)]
            self.trace = list(zip(picks, offsets))
            raw = b"".join(self.contents) + b"".join(
                struct.pack(">HB", f, o) for f, o in self.trace)
        self.digest = hashlib.sha256(raw).hexdigest()


def _tampered(cap, bit):
    """``cap`` with one bit of its check field flipped (§2.2)."""
    check = bytearray(cap.check)
    check[bit // 8 % len(check)] ^= 1 << (bit % 8)
    return Capability(cap.port, cap.object, cap.rights, bytes(check))


class ReadFbox:
    """One read in flight through ``FlatFileClient`` on a synchronous
    simulated network: the F-box path."""

    inflight = 1

    def __init__(self, inputs, server_cls=FlatFileServer):
        self._inputs(inputs)
        self.net = SimNetwork()
        self.server = server_cls(Nic(self.net)).start()
        self.caps = [
            self.server.table.create(MemoryFile(data))
            for data in self.contents
        ]
        self.client = FlatFileClient(Nic(self.net), self.server.put_port)

    def _inputs(self, inputs):
        self.trace = inputs.trace
        self.contents = inputs.contents
        #: Trace index of the next op; the loop cycles through the trace.
        self.position = 0

    def _expected(self, index):
        f, offset = self.trace[index % TRACE_LEN]
        return self.contents[f][offset:offset + READ_BYTES]

    def warm(self):
        for _ in range(WARM_OPS):
            self.check(self.issue())

    def accesses(self, start, count):
        """File indices of ``count`` ops from trace index ``start``."""
        trace = self.trace
        return [trace[(start + k) % TRACE_LEN][0] for k in range(count)]

    def issue(self):
        index = self.position
        self.position += 1
        f, offset = self.trace[index % TRACE_LEN]
        try:
            data = self.client.read(self.caps[f], offset, READ_BYTES)
        except AmoebaError:
            data = None
        return index, data

    def check(self, issued):
        index, data = issued
        return 1, 0 if data == self._expected(index) else 1

    def forged(self):
        """Reads with tampered check fields; each accepted one fails."""
        failed = 0
        for bit in range(FORGED):
            try:
                self.client.read(_tampered(self.caps[bit], 7 * bit + 3),
                                 0, READ_BYTES)
            except AmoebaError:
                continue
            failed += 1
        return FORGED, failed

    def post_checks(self):
        return self.forged()

    def counters(self):
        return {"frames_sent": self.net.frames_sent}

    def close(self):
        self.server.stop()


class ReadSealed(ReadFbox):
    """The read_fbox traffic in the §2.4 deployment: sealed capabilities,
    both capability caches at their default capacity, and a Locator."""

    def __init__(self, inputs, server_cls=FlatFileServer):
        self._inputs(inputs)
        self.net = SimNetwork()
        matrix = KeyMatrix()
        server_nic = Nic(self.net)
        install_locate_responder(server_nic)
        self.server_sealer = CapabilitySealer(
            matrix.view(server_nic.address),
            server_cache=ServerCapabilityCache(),
        )
        self.server = server_cls(
            server_nic, sealer=self.server_sealer, require_sealed=True,
        ).start()
        self.caps = [
            self.server.table.create(MemoryFile(data))
            for data in self.contents
        ]
        client_nic = Nic(self.net)
        self.client_sealer = CapabilitySealer(
            matrix.view(client_nic.address),
            client_cache=ClientCapabilityCache(),
        )
        self.locator = Locator(client_nic)
        self.client = FlatFileClient(
            client_nic, self.server.put_port, locator=self.locator,
            sealer=self.client_sealer,
        )

    def counters(self):
        client_cache = self.client_sealer.client_cache
        server_cache = self.server_sealer.server_cache
        client_hits, client_misses = client_cache.stats()
        server_hits, server_misses = server_cache.stats()
        return {
            "frames_sent": self.net.frames_sent,
            "cipher_ops": (self.client_sealer.cipher_ops
                           + self.server_sealer.cipher_ops),
            "client_hits": client_hits,
            "client_misses": client_misses,
            "server_hits": server_hits,
            "server_misses": server_misses,
            "occupancy": len(client_cache) / client_cache.max_entries,
            "cache_capacity": client_cache.max_entries,
            "locate_hits": self.locator.hits,
            "locate_misses": self.locator.misses,
        }


def lru_hit_ratio(accesses, capacity, counted_from):
    """Hit ratio of an exact LRU of ``capacity`` entries over
    ``accesses[counted_from:]``, warmed by the accesses before it."""
    cache = OrderedDict()
    hits = 0
    for k, key in enumerate(accesses):
        if key in cache:
            cache.move_to_end(key)
            if k >= counted_from:
                hits += 1
        else:
            cache[key] = True
            if len(cache) > capacity:
                cache.popitem(last=False)
    counted = len(accesses) - counted_from
    return hits / counted if counted else 0.0


class MutateDurable:
    """16 ENTER/REMOVE requests in flight against a durable directory
    server; every directory holds a sliding window of 16 names."""

    inflight = INFLIGHT

    def __init__(self, inputs, server_cls=DirectoryServer):
        self.batches = inputs.batches
        self.position = 0
        self.server_cls = server_cls
        self.net = SimNetwork(synchronous=False)
        self.disk = VirtualDisk(DISK_BLOCKS)
        self.server = server_cls.durable(Nic(self.net), self.disk).start()
        self.dircaps = [self.server.create_root() for _ in range(DIRECTORIES)]
        self.nic = Nic(self.net)
        #: The client's model: names in each directory, oldest first.
        self.model = [deque() for _ in range(DIRECTORIES)]
        self._names = itertools.count()
        self.acked = 0
        self._next_checkpoint = CHECKPOINT_EVERY
        self._checkpoint_due = False
        #: Durations of the checkpoints taken, in ns.
        self.checkpoint_ns = []
        self.recover_ns = None

    def issue(self):
        dirs = self.batches[self.position % len(self.batches)]
        self.position += 1
        target = self.dircaps[0]
        planned = []
        requests = []
        for d in dirs:
            window = self.model[d]
            if len(window) >= WINDOW:
                name = window[0]
                requests.append(Message(
                    command=DIR_REMOVE, capability=self.dircaps[d],
                    data=name.encode()))
                planned.append((d, False, name))
            else:
                name = "n%d" % next(self._names)
                requests.append(Message(
                    command=DIR_ENTER, capability=self.dircaps[d],
                    data=name.encode(), extra_caps=(target,)))
                planned.append((d, True, name))
        try:
            replies = rpc.trans_many(self.nic, self.server.put_port, requests)
        except AmoebaError:
            replies = None
        if self._checkpoint_due:
            self._checkpoint_due = False
            start = _now()
            self.server.checkpoint()
            self.checkpoint_ns.append(_now() - start)
        return planned, replies

    def check(self, issued):
        planned, replies = issued
        if replies is None:
            return len(planned), len(planned)
        failed = 0
        for (d, enter, name), reply in zip(planned, replies):
            if reply.status != 0:
                failed += 1
                continue
            if enter:
                self.model[d].append(name)
            else:
                self.model[d].popleft()
        self.acked += len(planned) - failed
        if self.acked >= self._next_checkpoint:
            self._next_checkpoint += CHECKPOINT_EVERY
            self._checkpoint_due = True
        return len(planned), failed

    def warm(self):
        for _ in range(WARM_OPS // self.inflight):
            self.check(self.issue())

    def post_checks(self):
        """Reboot on the same disk, compare every directory with the
        model, and send tampered capabilities to the new incarnation."""
        self.server.stop()
        start = _now()
        self.server = self.server_cls(
            Nic(self.net), get_port=self.server.get_port,
            store=DurableStore(self.disk, codec=DirectoryCodec()), dedup=True,
        )
        self.server.reboot()
        self.recover_ns = _now() - start
        self.server.start()
        client = DirectoryClient(self.nic, self.server.put_port)
        failed = 0
        for cap, window in zip(self.dircaps, self.model):
            try:
                listing = client.list(cap)
            except AmoebaError:
                listing = None
            if listing != sorted(window):
                failed += 1
        for bit in range(FORGED):
            request = Message(
                command=DIR_LIST,
                capability=_tampered(self.dircaps[bit], 7 * bit + 3))
            try:
                reply = rpc.trans(self.nic, self.server.put_port, request)
            except AmoebaError:
                continue
            if reply.status == 0:
                failed += 1
        return DIRECTORIES + FORGED, failed

    def counters(self):
        loop = self.net.loop
        stats = self.server.store.stats()
        return {
            "frames_sent": self.net.frames_sent,
            "wal_records": stats["records_appended"],
            "disk_writes": stats["disk_writes"],
            "checkpoints": len(self.checkpoint_ns),
            "checkpoint_ns": sum(self.checkpoint_ns),
            "sched_drops": loop.dropped_overflow + loop.dropped_dead,
            # The deepest queue since the world was built, warm-up included.
            "max_depth": loop.max_depth_seen,
        }

    def close(self):
        self.server.stop()


WORKLOADS = {
    "read_fbox": ReadFbox,
    "read_sealed": ReadSealed,
    "mutate_durable": MutateDurable,
}


def build(name, inputs, server_cls=None):
    """Build one workload's world (not yet warmed)."""
    if server_cls is None:
        return WORKLOADS[name](inputs)
    return WORKLOADS[name](inputs, server_cls=server_cls)
