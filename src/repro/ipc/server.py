"""The server skeleton: dispatch, standard operations, signed replies.

An :class:`ObjectServer` is the reusable shape of every Amoeba service in
§3: a secret get-port, a published put-port and signature image, an
object table protected by one of the §2.3 schemes, and a command
dispatcher.  Subclasses declare operations with the :func:`command`
decorator and get the standard capability operations (INFO, RESTRICT,
REFRESH, DESTROY, TOUCH) for free.

Servers are deliberately ordinary processes: nothing here is privileged,
and several servers can run on one machine or the same server on several
machines (the network round-robins among listeners on a shared port).
"""

import threading
from collections import Counter, OrderedDict

from repro.core.ports import PrivatePort, as_port
from repro.core.registry import ObjectTable
from repro.core.rights import NO_RIGHTS, Rights
from repro.core.schemes import XorOneWayScheme
from repro.crypto.randomsrc import RandomSource
from repro.errors import (
    AmoebaError,
    BadRequest,
    InvalidCapability,
    SecurityError,
    error_to_code,
)
from repro.ipc import stdops
from repro.net.message import Message


def command(opcode):
    """Declare a method as the handler for operation code ``opcode``.

    The method receives a :class:`RequestContext` and returns a reply
    :class:`Message` (usually via :meth:`RequestContext.ok`).
    """

    def decorate(fn):
        fn._amoeba_command = opcode
        return fn

    return decorate


class DeferredReply:
    """A handle for answering a request after its handler has returned.

    Obtained via :meth:`RequestContext.defer`.  The dispatch loop sends
    nothing for a deferred request; the server calls :meth:`send` later —
    from another request's handler, after a pump, on a timer — and the
    reply then takes the identical signing/sealing path a synchronous
    reply takes.  This is what lets one server answer out of order while
    many transactions are in flight against it.
    """

    __slots__ = ("ctx", "_sent")

    def __init__(self, ctx):
        self.ctx = ctx
        self._sent = False

    @property
    def sent(self):
        return self._sent

    def send(self, reply=None):
        """Send the (possibly out-of-order) reply; at most once.

        ``reply`` defaults to a bare success built from the original
        request, exactly like a handler returning None.
        """
        if self._sent:
            raise AmoebaError("deferred reply already sent")
        self._sent = True
        ctx = self.ctx
        if reply is None:
            reply = ctx.ok()
        server = ctx.server
        reply = server._finish_reply(ctx.frame, reply)
        server._egress([(reply, ctx.frame.src)])

    def error(self, exc):
        """Send an error reply carrying the exception's wire code."""
        self.send(self.ctx.error(exc))


#: In-progress marker inside a ReplyCache: the first copy of the request
#: is still executing, so a duplicate must be *dropped* (the client's
#: retransmission loop will ask again), never run a second time.
_IN_PROGRESS = object()


class ReplyCache:
    """Bounded per-client reply cache: server-side duplicate suppression.

    At-least-once clients (:class:`~repro.ipc.rpc.RetryPolicy`) may
    retransmit a request whose reply was lost; re-executing it would
    double-apply any non-idempotent operation (a bank transfer paid
    twice).  The cache keys each transaction by the pair that is already
    on the wire:

    * ``frame.src`` — the network-stamped source machine address, which
      §2.4's hardware assumption makes unforgeable; and
    * the request's reply put-port ``F(G')`` — fresh per transaction
      (§2.1's freshness argument) yet identical across retransmissions,
      because a retry reuses the same reply secret.

    No sequence numbers, no wire-format change.  An intruder replaying a
    captured frame from its own station presents a *different* ``src``,
    so it can never touch another principal's entries — and the replay's
    double-one-wayed capability still fails validation in the handler,
    exactly as without the cache.

    Both dimensions are LRU-bounded (``clients`` machines x
    ``per_client`` transactions), so the memory cost is a hard constant;
    an evicted entry simply means a sufficiently *stale* duplicate
    re-executes, which is the classic trade-off of bounded dedup.

    States per entry: executing (:data:`_IN_PROGRESS` — duplicates are
    dropped while the first copy runs, including a deferred reply's open
    window) and completed (the cached reply is replayed verbatim;
    error replies replay too — at-least-once applies to outcomes, not
    just successes).
    """

    def __init__(self, per_client=128, clients=64):
        if per_client < 1 or clients < 1:
            raise ValueError("cache bounds must be at least 1")
        self.per_client = per_client
        self.clients = clients
        # src -> OrderedDict[reply_value -> Message | _IN_PROGRESS],
        # both levels in LRU order.
        self._clients = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.busy_drops = 0
        self.evictions = 0

    def begin(self, src, reply_value):
        """Admit one request copy; returns ``(verdict, cached_reply)``.

        ``"miss"`` — first sighting; the entry is marked in-progress and
        the caller must execute the request (and later :meth:`store` or
        :meth:`forget`).  ``"hit"`` — a completed duplicate; replay the
        returned reply.  ``"busy"`` — a duplicate of a still-executing
        request; drop it.
        """
        with self._lock:
            client = self._clients.get(src)
            if client is None:
                if len(self._clients) >= self.clients:
                    self._clients.popitem(last=False)
                    self.evictions += 1
                self._clients[src] = client = OrderedDict()
            else:
                self._clients.move_to_end(src)
            cached = client.get(reply_value)
            if cached is None:
                if len(client) >= self.per_client:
                    client.popitem(last=False)
                    self.evictions += 1
                client[reply_value] = _IN_PROGRESS
                self.misses += 1
                return ("miss", None)
            if cached is _IN_PROGRESS:
                self.busy_drops += 1
                return ("busy", None)
            client.move_to_end(reply_value)
            self.hits += 1
            return ("hit", cached)

    def store(self, src, reply_value, reply):
        """Complete a transaction: future duplicates replay ``reply``.

        A no-op unless the entry is still present (it may have been
        LRU-evicted while the handler ran) — storing an unmarked entry
        would let an unrelated send poison the cache.
        """
        with self._lock:
            client = self._clients.get(src)
            if client is not None and reply_value in client:
                client[reply_value] = reply

    def seed(self, src, reply_value, reply):
        """Install a *completed* entry directly — no begin() preceded it.

        Reboot recovery uses this: transactions whose commit record
        survived the crash are re-admitted as already-answered, so a
        client retry that straddles the restart replays the durable
        reply instead of re-executing.  Same LRU bounds as live entries.
        """
        with self._lock:
            client = self._clients.get(src)
            if client is None:
                if len(self._clients) >= self.clients:
                    self._clients.popitem(last=False)
                    self.evictions += 1
                self._clients[src] = client = OrderedDict()
            else:
                self._clients.move_to_end(src)
            if reply_value not in client and len(client) >= self.per_client:
                client.popitem(last=False)
                self.evictions += 1
            client[reply_value] = reply
            client.move_to_end(reply_value)

    def forget(self, src, reply_value):
        """Withdraw an entry (e.g. an in-progress marker whose deferred
        reply was abandoned), so a future retry re-executes."""
        with self._lock:
            client = self._clients.get(src)
            if client is not None:
                client.pop(reply_value, None)

    def stats(self):
        """Cache counters as a dict (stable keys for benchmarks)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "busy_drops": self.busy_drops,
                "evictions": self.evictions,
                "clients": len(self._clients),
                "entries": sum(len(c) for c in self._clients.values()),
            }

    def __repr__(self):
        return "ReplyCache(hits=%d, misses=%d, busy_drops=%d)" % (
            self.hits, self.misses, self.busy_drops,
        )


class RequestContext:
    """Everything a handler needs about one incoming request."""

    __slots__ = ("server", "frame", "request", "deferred")

    def __init__(self, server, frame, request=None):
        self.server = server
        self.frame = frame
        self.deferred = None
        # The request may differ from frame.message when §2.4 sealing is
        # in use (capabilities have been decrypted back to plaintext).
        self.request = request if request is not None else frame.message

    @property
    def capability(self):
        """The capability in the request header (may be ``None``)."""
        return self.request.capability

    def lookup(self, required=NO_RIGHTS):
        """Validate the request's capability against the object table.

        The single enforcement point: raises if the capability is absent,
        forged, revoked, or lacks the ``required`` rights.
        """
        if self.request.capability is None:
            raise BadRequest("operation requires a capability")
        return self.server.table.lookup(self.request.capability, required)

    def ok(self, data=b"", capability=None, offset=0, size=0, extra_caps=()):
        """Build a success reply to this request.

        Uses the trusted ``reply_to`` path (which range-guards the
        handler-supplied numeric fields), with the server's signature
        secret already stamped — ``_finish_reply`` then skips its own
        stamping copy.

        The returned reply belongs to the dispatch loop, which transforms
        it in place on egress; handlers must return it, not retain it.
        """
        changes = {"data": data, "signature": self.server._signature_port}
        if capability is not None:
            changes["capability"] = capability
        if offset:
            changes["offset"] = offset
        if size:
            changes["size"] = size
        if extra_caps:
            changes["extra_caps"] = tuple(extra_caps)
        return self.request.reply_to(**changes)

    def error(self, exc):
        """Build an error reply carrying the exception's wire code."""
        return self.request.reply_to(
            status=error_to_code(exc),
            data=str(exc).encode("utf-8"),
            signature=self.server._signature_port,
        )

    def defer(self):
        """Answer this request later: returns a :class:`DeferredReply`.

        The handler must still return None; the dispatch loop then skips
        its reply step entirely, and the transaction stays open until
        ``send()`` is called on the handle.  The requesting client is
        simply blocked in (or polling) its reply GET meanwhile — no
        protocol change is visible on the wire.
        """
        if self.deferred is None:
            self.deferred = DeferredReply(self)
        return self.deferred


class ObjectServer:
    """Base class for every object-managing service.

    Parameters
    ----------
    node:
        The station this server receives on.
    scheme:
        A §2.3 protection scheme; defaults to the XOR-one-way scheme that
        production Amoeba used.
    rng:
        Randomness for ports, signatures, and object secrets.
    """

    #: Human-readable service name, reported by STD_INFO.
    service_name = "object server"

    #: Rights mask required for REFRESH (revocation) and DESTROY.
    admin_rights = Rights(stdops.RIGHT_ADMIN)

    def __init__(
        self,
        node,
        scheme=None,
        rng=None,
        get_port=None,
        signature=None,
        sealer=None,
        require_sealed=False,
        authorized_signatures=None,
        dedup=None,
        store=None,
    ):
        self.node = node
        #: Optional duplicate suppression for at-least-once clients:
        #: ``True`` for a default-bounded :class:`ReplyCache`, a
        #: ReplyCache instance for tuned bounds, None/False (the
        #: default) for the classic execute-every-copy behavior — the
        #: fault path stays fully off unless asked for.
        if dedup is True:
            self.reply_cache = ReplyCache()
        elif dedup:
            self.reply_cache = dedup
        else:
            self.reply_cache = None
        self.rng = rng or RandomSource()
        self.scheme = scheme or XorOneWayScheme()
        self.get_port = get_port or PrivatePort.generate(self.rng)
        #: The server's signature secret S; F(S) is published.
        self.signature = signature or PrivatePort.generate(self.rng)
        self.put_port = self.get_port.public
        #: §2.4 software protection: decrypts request capabilities by
        #: source machine and encrypts reply capabilities by destination.
        self.sealer = sealer
        #: When True, plaintext capabilities are refused outright (a
        #: matrix-protected deployment).
        self.require_sealed = require_sealed
        #: Optional sender authentication (§2.2 digital signatures): a set
        #: of published client images F(S).  When set, requests whose
        #: signature field is not in the set are refused — and since the
        #: F-box one-ways the field, only the true owner of S can produce
        #: a matching value.
        self.authorized_signatures = (
            set(authorized_signatures) if authorized_signatures is not None else None
        )
        #: Optional durability (:class:`~repro.disk.wal.DurableStore`):
        #: the object table write-ahead-logs every surviving mutation to
        #: it, :meth:`checkpoint` snapshots through it, and
        #: :meth:`reboot` replays it after a crash.  With ``dedup`` also
        #: on, every replied transaction additionally logs a commit
        #: record, extending duplicate suppression across reboots.
        self.store = store
        if store is not None:
            self.table = ObjectTable(
                self.scheme, self.put_port, self.rng,
                wal=store, shards=store.shards,
            )
        else:
            self.table = ObjectTable(self.scheme, self.put_port, self.rng)
        if sealer is not None:
            # Revocation hygiene: when a secret dies (REFRESH, DESTROY,
            # aging) the sealer's §2.4 caches must drop that object's
            # triples, or a replayed sealed blob keeps short-circuiting
            # decryption with the revoked capability.  The fan-out names
            # the owning table stripe; the caches compute their own
            # partition from (port, number).
            self.table.on_revocation(
                lambda port, number, _generation, _shard: (
                    sealer.invalidate_object(port, number)
                )
            )
        self._commands = {}
        self._collect_commands()
        self._running = False
        #: Count of requests handled, by opcode (experiment bookkeeping).
        #: A Counter, so reading a never-seen opcode yields 0.
        self.request_counts = Counter()
        # The signature secret as a Port, stamped into every reply; built
        # once here instead of once per frame.
        self._signature_port = as_port(self.signature)

    @property
    def signature_image(self):
        """F(S), the published verifier for this server's replies."""
        return self.signature.public

    def _collect_commands(self):
        for name in dir(type(self)):
            member = getattr(type(self), name, None)
            opcode = getattr(member, "_amoeba_command", None)
            if opcode is None:
                continue
            if opcode in self._commands:
                raise ValueError(
                    "duplicate handler for opcode %d in %s"
                    % (opcode, type(self).__name__)
                )
            self._commands[opcode] = getattr(self, name)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Enter the GET loop (register the request handler).

        Every delivery discipline gets the same batch handler: the event
        loop and a socket station's pump hand over whole ingress runs,
        and the synchronous network delivers each frame as a run of one.
        """
        if self.store is not None and getattr(
            self.store, "needs_recovery", False
        ):
            raise AmoebaError(
                "the durable store holds un-recovered state; "
                "call reboot() before start()"
            )
        self.node.serve_batch(self.get_port, self._handle_frames)
        self._running = True
        return self

    def stop(self):
        self.node.unlisten(self.get_port)
        self._running = False

    @property
    def running(self):
        return self._running

    # ------------------------------------------------------------------
    # durability protocol
    # ------------------------------------------------------------------

    def checkpoint(self):
        """Snapshot every object-table stripe and truncate its log.

        Run this periodically (a sweep timer, every N requests); each
        stripe is checkpointed under its own brief stripe acquisition,
        so service never stops.
        """
        if self.store is None:
            raise AmoebaError("checkpoint() requires a durable store")
        self.store.snapshot(self.table)

    def reboot(self):
        """Recover this server's state from its durable store.

        The reboot protocol after a crash: construct a *new* server on
        the old disk (the attaching :class:`~repro.disk.wal.DurableStore`
        scans snapshot + log), keep the old ``get_port`` so the old
        put-port still locates, and call ``reboot()`` before
        ``start()``.  Recovery replays every stripe into the table;
        stripes with a suspect log tail come back with regenerated
        secrets and bumped generations, so their outstanding
        capabilities fail §2.2 check validation — clients see
        ``InvalidCapability``/``NoSuchObject`` and re-acquire through
        the retry + re-locate path, exactly the revocation policy.

        With dedup enabled, recovered commit records re-seed the reply
        cache (re-stamped with *this* incarnation's signature secret,
        since the old one died with the process), so a retry straddling
        the reboot replays its durable reply instead of re-executing.

        Returns the :class:`~repro.disk.wal.RecoveryReport`.
        """
        if self.store is None:
            raise AmoebaError("reboot() requires a durable store")
        if len(self.table):
            raise AmoebaError("reboot() must run on an empty object table")
        report = self.store.recover(self.table, rng=self.rng)
        if self.reply_cache is not None:
            for (src, reply_value), raw in report.commits.items():
                try:
                    reply = Message.unpack(raw)
                except Exception:
                    continue  # an unparsable commit is just not replayable
                reply = reply._evolve(signature=self._signature_port)
                self.reply_cache.seed(src, reply_value, reply)
        return report

    def _log_commit(self, src, request, reply):
        """Append a durable commit record for one replied transaction.

        Keyed exactly like the reply cache — (src, reply put-port) — and
        appended to the stripe of the object the request named (any
        stripe is semantically fine; recovery merges all of them), under
        that stripe's lock so snapshot truncation can never drop it.

        Only requests that wrote durable state pay this write: an
        idempotent read or echo re-executes harmlessly after a reboot,
        so its reply needs no disk-backed dedup — the in-memory reply
        cache still suppresses duplicates within the incarnation.
        """
        if not self.store.consume_dirty():
            return
        capability = request.capability
        if capability is None:
            capability = reply.capability
        # A matrix-sealed capability's object number is opaque; stripe 0
        # then hosts the record, which recovery is indifferent to.
        number = getattr(capability, "object", 0) if capability is not None else 0
        self.table.log_commit(number, src, request.reply.value, reply.pack())

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _dispatch_request(self, frame, request):
        """Sender auth, unsealing, handler lookup and invocation, and both
        error arms.  Returns the reply to send, or None when the handler
        deferred it.

        Re-entrancy: under deferred delivery the event loop may invoke
        this again (for the next queued request) before an earlier reply
        has been dispatched.  Everything per-request therefore lives in
        locals and the RequestContext — nothing here writes per-request
        state onto self.
        """
        try:
            if self.authorized_signatures is not None:
                self._authenticate_sender(request)
            if request.sealed_caps or self.require_sealed:
                request = self._unseal_request(frame, request)
            ctx = RequestContext(self, frame, request)
            handler = self._commands.get(request.command)
            if handler is None:
                raise BadRequest(
                    "%s does not implement opcode %d"
                    % (self.service_name, request.command)
                )
            reply = handler(ctx)
            if reply is None:
                if ctx.deferred is not None:
                    # The handler took a DeferredReply handle; the
                    # transaction stays open until it sends.
                    return None
                reply = ctx.ok()
        except AmoebaError as exc:
            reply = RequestContext(self, frame, request).error(exc)
        except Exception as exc:
            # A crashing handler must not take the server loop down; the
            # client sees a generic server error, the bug stays server-side.
            reply = RequestContext(self, frame, request).error(
                AmoebaError("internal error in %s: %s" % (self.service_name, exc))
            )
        return reply

    def _handle_frames(self, frames):
        """Serve one delivered run of request frames.

        Each frame takes the per-request core: dedup admission, the
        request count, :meth:`_dispatch_request`, then
        :meth:`_finish_reply`.  The run's replies leave together through
        :meth:`_egress`.
        """
        cache = self.reply_cache
        counts = self.request_counts
        dispatch = self._dispatch_request
        finish = self._finish_reply
        outbox = []
        for frame in frames:
            request = frame.message
            if cache is not None and request.reply.value:
                # Dedup admission.  A request with no reply port is a
                # one-way send, not a transaction, and is never
                # deduplicated.
                verdict, cached = cache.begin(frame.src, request.reply.value)
                if verdict == "busy":
                    continue  # the first copy is still executing
                if verdict == "hit":
                    # Replay a copy: egress transforms it in place, and
                    # the cached original must stay pristine for further
                    # retries.  The handler does not run again.
                    outbox.append((cached._evolve(), frame.src))
                    continue
            counts[request.command] += 1
            reply = dispatch(frame, request)
            if reply is not None:  # None: the handler deferred it
                outbox.append((finish(frame, reply), frame.src))
        self._egress(outbox)

    def _finish_reply(self, frame, reply):
        """Seal, sign, cache and commit one reply; returns it ready for
        :meth:`_egress`.  Shared by the dispatch loop and
        :class:`DeferredReply`."""
        if self.sealer is not None and (reply.capability or reply.extra_caps):
            reply = self.sealer.seal_message(reply, frame.src)
        # Replies are signed: the F-box will transform this secret S into
        # the published image F(S) on the wire.  ctx.ok/ctx.error
        # pre-stamp the signature; a hand-built handler reply gets a
        # stamped private copy, which is then ours to transform in place.
        if reply.signature is not self._signature_port:
            reply = reply._evolve(signature=self._signature_port)
        if self.reply_cache is not None:
            reply_value = frame.message.reply.value
            if reply_value:
                # Cache a copy of the fully formed (sealed, signed) reply
                # before egress transforms the outgoing one in place;
                # deferred replies complete their transaction here too.
                self.reply_cache.store(
                    frame.src, reply_value, reply._evolve()
                )
                if self.store is not None:
                    # Durable commit *before* the reply leaves: a retry
                    # arriving after a crash-and-reboot must find the
                    # record, or it would re-execute a non-idempotent
                    # operation whose first reply was already delivered.
                    self._log_commit(frame.src, frame.message, reply)
        return reply

    def _egress(self, outbox):
        """Send ``[(reply, machine), ...]`` unicast to each requester.

        A lone reply takes ``put_owned``; longer runs share one
        ``put_owned_unicast_bulk`` call, whose per-call setup only pays
        off past one frame.
        """
        if len(outbox) == 1:
            reply, dst = outbox[0]
            self.node.put_owned(reply, dst)
        elif outbox:
            self.node.put_owned_unicast_bulk(outbox)

    def _authenticate_sender(self, request):
        if self.authorized_signatures is None:
            return
        if request.signature not in self.authorized_signatures:
            raise SecurityError(
                "%s requires an authorized client signature" % self.service_name
            )

    def authorize_client(self, signature_image):
        """Admit a client by its published signature image F(S)."""
        if self.authorized_signatures is None:
            self.authorized_signatures = set()
        self.authorized_signatures.add(signature_image)

    def sweep(self):
        """One garbage-collection pass over the object table.

        Objects not proven live (looked up or touched) since the last
        ``default_lifetime`` sweeps are destroyed through the same
        :meth:`on_destroy` hook as an explicit STD_DESTROY.
        """
        return self.table.age(on_expire=self.on_destroy)

    def _unseal_request(self, frame, request):
        if request.sealed_caps:
            if self.sealer is None:
                raise BadRequest(
                    "%s is not configured for sealed capabilities"
                    % self.service_name
                )
            return self.sealer.unseal_message(request, frame.src)
        if self.require_sealed and (
            request.capability is not None or request.extra_caps
        ):
            raise InvalidCapability(
                "%s only accepts matrix-sealed capabilities" % self.service_name
            )
        return request

    # ------------------------------------------------------------------
    # standard operations (§2.3)
    # ------------------------------------------------------------------

    @command(stdops.STD_INFO)
    def _std_info(self, ctx):
        entry, rights = ctx.lookup()
        return ctx.ok(data=self.describe(entry).encode("utf-8"))

    @command(stdops.STD_RESTRICT)
    def _std_restrict(self, ctx):
        if ctx.capability is None:
            raise BadRequest("RESTRICT requires a capability")
        keep_mask = Rights(ctx.request.size & 0xFF)
        restricted = self.table.restrict(ctx.capability, keep_mask)
        return ctx.ok(capability=restricted)

    @command(stdops.STD_REFRESH)
    def _std_refresh(self, ctx):
        if ctx.capability is None:
            raise BadRequest("REFRESH requires a capability")
        fresh = self.table.refresh(ctx.capability, required=self.admin_rights)
        return ctx.ok(capability=fresh)

    @command(stdops.STD_DESTROY)
    def _std_destroy(self, ctx):
        if ctx.capability is None:
            raise BadRequest("DESTROY requires a capability")
        entry, _ = self.table.lookup(ctx.capability, self.admin_rights)
        self.on_destroy(entry)
        self.table.destroy(ctx.capability, required=self.admin_rights)
        return ctx.ok()

    @command(stdops.STD_TOUCH)
    def _std_touch(self, ctx):
        ctx.lookup()
        return ctx.ok()

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------

    def describe(self, entry):
        """One-line object description for STD_INFO."""
        return "%s object %d" % (self.service_name, entry.number)

    def on_destroy(self, entry):
        """Release any resources held by an object about to be destroyed."""

    def __repr__(self):
        return "%s(port=%012x, objects=%d)" % (
            type(self).__name__,
            self.put_port.value,
            len(self.table),
        )
