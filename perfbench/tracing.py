"""Per-layer self time, measured from outside the program.

Nothing in ``src/`` knows about this module.  :func:`install` replaces
the public entry points of each layer's classes (and the two module
level transaction functions) with thin wrappers that open a span on
entry and close it on exit.  A span's *self time* is its duration minus
the part its child spans cover, so the self times of all layers plus the
benchmark's own span add up to the wall time of the loop that drove
them.

Wrappers must go in before any world is built: stations and servers
cache bound methods (``serve_batch`` stores the server's handler, the
F-box stores ``OneWayFunction.raw``), and a method captured before
:func:`install` stays unwrapped for the life of that object.

Every workload runs in one thread, so there is one span stack.  An entry
point this module names but cannot find (a renamed method) raises at
:func:`install` instead of silently leaving its time to the caller.
"""

import functools
import time
from collections import defaultdict

_now = time.perf_counter_ns


def _layer_of(key):
    """The layer a span key belongs to: ``net.nic.listen`` -> ``net.nic``."""
    for layer in ("net.nic", "ipc.server", "core.registry", "net.message"):
        if key.startswith(layer + "."):
            return layer
    return key


class Tracer:
    """A span stack, per-key self time, entry counts and counters."""

    def __init__(self):
        self.enabled = False
        self._stack = []
        self.self_ns = defaultdict(int)
        #: Entries into a layer from a different layer (or from no span).
        self.entries = defaultdict(int)
        self.counters = defaultdict(int)

    def start(self):
        """Zero every total and record spans."""
        self.self_ns.clear()
        self.entries.clear()
        self.counters.clear()
        self.enabled = True

    def stop(self):
        self.enabled = False

    def begin(self, key, layer=None):
        stack = self._stack
        if layer is None:
            layer = _layer_of(key)
        if not stack or stack[-1][1] != layer:
            self.entries[layer] += 1
        stack.append([key, layer, _now(), 0])

    def end(self):
        t1 = _now()
        stack = self._stack
        key, _layer, t0, child_ns = stack.pop()
        duration = t1 - t0
        self.self_ns[key] += duration - child_ns
        if stack:
            stack[-1][3] += duration


def _wrap(tracer, key, fn, counter=None, sizer=None):
    """``fn`` inside a span ``key``; ``counter`` counts calls and
    ``sizer`` sums ``len`` of the results."""
    layer = _layer_of(key)
    begin = tracer.begin
    end = tracer.end

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if counter is not None:
            tracer.counters[counter] += 1
        begin(key, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            end()
        if sizer is not None:
            tracer.counters[sizer] += len(result)
        return result

    return traced


def _patch(tracer, classes, key, names, **kw):
    """Wrap each of ``names`` wherever one of ``classes`` defines it;
    a name none of them defines is an error."""
    for name in names:
        found = False
        for cls in classes:
            original = cls.__dict__.get(name)
            if original is None:
                continue
            found = True
            if isinstance(original, classmethod):
                setattr(cls, name, classmethod(
                    _wrap(tracer, key, original.__func__, **kw)))
            else:
                setattr(cls, name, _wrap(tracer, key, original, **kw))
        if not found:
            raise AttributeError("no %s in %s" % (
                name, ", ".join(cls.__name__ for cls in classes)))


def _server_handler(tracer, handler, batch):
    """A server's request handler inside an ``ipc.server`` span, counting
    frames and deliveries for ``frames_per_batch``."""

    @functools.wraps(handler)
    def traced(arg):
        if not tracer.enabled:
            return handler(arg)
        counters = tracer.counters
        counters["ipc.server.batches"] += 1
        counters["ipc.server.frames"] += len(arg) if batch else 1
        tracer.begin("ipc.server")
        try:
            return handler(arg)
        finally:
            tracer.end()

    return traced


def install(tracer):
    """Wrap every layer's public entry points.  Call once per process,
    before building any world; there is no uninstall."""
    import repro.ipc as ipc_pkg
    from repro.core import schemes
    from repro.core.registry import ObjectTable
    from repro.crypto import feistel
    from repro.crypto.oneway import OneWayFunction
    from repro.disk.virtualdisk import VirtualDisk
    from repro.disk.wal import DurableStore, StripeLog
    from repro.ipc import client as client_mod
    from repro.ipc import rpc
    from repro.ipc.client import ServiceClient
    from repro.ipc.locate import Locator
    from repro.ipc.server import ReplyCache, RequestContext
    from repro.net import nic as nic_mod
    from repro.net.fbox import FBox
    from repro.net.message import Message
    from repro.net.network import SimNetwork
    from repro.net.sched import EventLoop
    from repro.servers.flatfile import FlatFileClient
    from repro.softprot import matrix
    from repro.softprot.cache import (
        ClientCapabilityCache,
        LruCache,
        ServerCapabilityCache,
        ShardedLruCache,
    )

    # ipc.client: the typed stub and the generic call under it.
    _patch(tracer, (ServiceClient,), "ipc.client", ("call",))
    _patch(tracer, (FlatFileClient,), "ipc.client", ("read",))

    # ipc.rpc: module functions, patched in every module that imported them.
    traced_trans = _wrap(tracer, "ipc.rpc", rpc.trans)
    traced_many = _wrap(tracer, "ipc.rpc", rpc.trans_many)
    rpc.trans = client_mod.trans = ipc_pkg.trans = traced_trans
    rpc.trans_many = ipc_pkg.trans_many = traced_many

    # ipc.server: the handler a server registers with its station.
    original_serve = nic_mod.Nic.serve
    original_batch = nic_mod.Nic.serve_batch

    def serve(self, port, handler):
        if not isinstance(handler, nic_mod._BatchSink):
            handler = _server_handler(tracer, handler, batch=False)
        return original_serve(self, port, handler)

    def serve_batch(self, port, batch_handler):
        return original_batch(
            self, port, _server_handler(tracer, batch_handler, batch=True))

    nic_mod.Nic.serve = functools.wraps(original_serve)(serve)
    nic_mod.Nic.serve_batch = functools.wraps(original_batch)(serve_batch)
    _patch(tracer, (ReplyCache,), "ipc.server.dedup",
           ("begin", "store", "seed", "forget"))
    original_error = RequestContext.error

    def error(self, exc):
        if tracer.enabled:
            tracer.counters["ipc.server.error_replies"] += 1
        return original_error(self, exc)

    RequestContext.error = functools.wraps(original_error)(error)

    _patch(tracer, (Locator,), "ipc.locate", ("locate", "invalidate"))

    # net.*
    _patch(tracer, (nic_mod.Nic,), "net.nic.listen",
           ("listen", "listen_fresh"))
    _patch(tracer, (nic_mod.Nic,), "net.nic.unlisten",
           ("unlisten", "unlisten_wire", "take_many"))
    _patch(tracer, (nic_mod.Nic,), "net.nic", (
        "put", "put_owned", "put_owned_bulk", "put_owned_unicast_bulk",
        "put_many", "put_broadcast", "pump", "poll", "poll_wire", "accept",
        "accept_run", "accept_broadcast",
    ))
    _patch(tracer, (SimNetwork,), "net.network", (
        "send", "send_bulk", "send_unicast_bulk", "broadcast",
        "register_listener", "unregister_listener", "register_listeners",
        "unregister_listeners", "pump", "run",
    ))
    _patch(tracer, (FBox,), "net.fbox", (
        "one_way", "transform_egress", "transform_egress_owned",
        "one_way_batch", "listen_port",
    ))
    _patch(tracer, (EventLoop,), "net.sched",
           ("enqueue", "enqueue_bulk", "pump", "run"))
    _patch(tracer, (Message,), "net.message.pack", ("pack",),
           sizer="net.message.bytes")

    # crypto.*
    _patch(tracer, (OneWayFunction,), "crypto.oneway",
           ("__call__", "raw", "apply_bytes"))
    _patch(tracer, (feistel.FeistelCipher, feistel.WideBlockCipher),
           "crypto.feistel",
           ("encrypt", "decrypt", "encrypt_bytes", "decrypt_bytes"))
    matrix.feistel_for_key = _wrap(
        tracer, "crypto.feistel", matrix.feistel_for_key)
    matrix.wide_cipher_for_key = _wrap(
        tracer, "crypto.feistel", matrix.wide_cipher_for_key)

    # core.*
    _patch(tracer, (ObjectTable,), "core.registry.lookup", ("lookup",),
           counter="core.registry.lookups")
    _patch(tracer, (ObjectTable,), "core.registry.persist",
           ("persist", "log_commit"))
    scheme_classes = tuple(
        cls for cls in vars(schemes).values()
        if isinstance(cls, type) and issubclass(cls, schemes.ProtectionScheme))
    _patch(tracer, scheme_classes, "core.schemes",
           ("new_secret", "mint", "restrict"))
    _patch(tracer, scheme_classes, "core.schemes", ("verify",),
           counter="core.schemes.verify")

    # softprot.*
    _patch(tracer, (matrix.CapabilitySealer,), "softprot.matrix", (
        "seal", "unseal", "seal_message", "unseal_message",
        "invalidate_object",
    ))
    _patch(tracer, (LruCache, ShardedLruCache, ClientCapabilityCache,
                    ServerCapabilityCache), "softprot.cache", (
        "get", "put", "lookup", "remember", "forget_object",
    ))

    # disk.*
    _patch(tracer, (DurableStore,), "disk.wal", (
        "log_create", "log_update", "log_refresh", "log_destroy",
        "log_commit", "consume_dirty", "snapshot", "snapshot_stripe",
        "recover",
    ))
    _patch(tracer, (StripeLog,), "disk.wal", ("append", "truncate_front"))
    _patch(tracer, (VirtualDisk,), "disk.virtualdisk",
           ("allocate", "reserve", "free", "read", "write"))
