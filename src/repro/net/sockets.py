"""A real UDP transport with the same station API as the simulator.

The reproduction hint for this paper is "hashlib and sockets": everything
in the library runs over the in-process :class:`~repro.net.network.SimNetwork`
(where the threat model is explicit and deterministic), and over this
module's genuine UDP datagrams on localhost, so the RPC layer can be
exercised end to end across OS processes.

A :class:`SocketNode` mirrors the :class:`~repro.net.nic.Nic` interface —
``listen`` / ``serve`` / ``put`` / ``poll`` — with the F-box applied in
software on egress.  The "unforgeable source address" is the UDP source
address reported by ``recvfrom``; adequate on a loopback interface, and
the simulator remains the reference for security experiments.
"""

import queue
import select
import socket
import threading
from collections import deque

from repro.core.ports import as_port
from repro.net.fbox import FBox
from repro.net.message import Message

#: Generous datagram cap: a capability-bearing message is well under 1 KiB,
#: file transfers chunk themselves beneath this.
MAX_DATAGRAM = 60000

#: Magic prefix of an *aggregate carrier* datagram: a coalesced run of
#: same-destination frames, each 4-byte length-prefixed.  Transport-level
#: framing only — every inner frame is an ordinary, individually F-box
#: transformed message that went through the normal admission path on
#: arrival; aggregation changes how many syscalls a burst costs, never
#: what is on the wire inside them.  Cannot collide with a plain message
#: (those start with the codec magic ``b"AM"``).
_AGG_MAGIC = b"AB1"
_AGG_HEADER = len(_AGG_MAGIC)

#: Magic prefix of a *control-plane* datagram: a tiny out-of-band lane
#: (replica join/leave, liveness pings) that never carries capabilities
#: and never enters the message codec or admission path.  One kind byte
#: follows the magic, then an opaque payload.  Cannot collide with plain
#: messages (``b"AM"``) or aggregate carriers (``b"AB1"``).
_CTL_MAGIC = b"AC1"
_CTL_HEADER = len(_CTL_MAGIC)

#: Control kinds: liveness probe and its kernel-level answer.  The pump
#: answers PING itself — health checking a station must not depend on
#: any server being registered on it.
CTL_PING = b"P"
CTL_PONG = b"O"
#: Replica membership kinds, interpreted by whoever registered an
#: ``on_control`` handler (see :mod:`repro.ipc.replica`).
CTL_JOIN = b"J"
CTL_LEAVE = b"L"


class _BatchSink:
    """Admission-snapshot marker wrapping a *batch* request handler.

    The pump groups each ingress burst's admitted frames per batch sink
    and delivers them as one ``handler(frames)`` call — the socket
    counterpart of the event loop's coalesced queue runs.
    """

    __slots__ = ("handler",)

    def __init__(self, handler):
        self.handler = handler


class SocketNode:
    """One station on a real UDP network.

    Concurrency notes (the pump thread receives while any number of
    client threads send):

    * **Admission is a lock-free snapshot.**  ``_admission`` maps wire
      port → sink (a ``queue.SimpleQueue`` for client GETs, a callable
      for server GETs) and is *replaced wholesale* — never mutated —
      under ``_lock`` by listen/serve/unlisten.  Readers (the pump thread's
      per-datagram lookup, ``poll_wire``) just read the attribute: no
      lock round-trip on the per-datagram path.
    * **Peers are a snapshot tuple**, rebuilt by ``connect`` so
      port-addressed sends iterate it without taking the lock.
    * **Egress may be coalesced.**  With ``buffer_egress=True``, ``put``
      appends packed datagrams to a small buffer instead of hitting the
      socket; the buffer is flushed by the pump thread each iteration
      (so server replies batch naturally), by ``poll_wire`` before it
      blocks (so a client's own request precedes its wait), at
      ``flush_every`` pending datagrams, and on ``close``.  Buffering
      changes *when* bytes leave, never *what* leaves — every datagram
      still went through the F-box transform in ``put``.
    * **Ingress is batched.**  After the blocking receive that starts a
      pump iteration, the pump drains up to ``recv_batch - 1`` further
      datagrams non-blocking, dispatches the whole burst, and flushes
      buffered egress once — so a pipelined client's burst of requests
      becomes one batch of handler calls and one reply flush, mirroring
      the egress coalescing on the receive side.  Admission, ordering,
      and drop behaviour per datagram are identical to one-at-a-time
      receives.
    """

    #: Capability attribute for the RPC layer: poll_wire accepts a
    #: timeout here (frames arrive from a real wire at any time).
    supports_poll_timeout = True

    #: Station-API parity with :class:`~repro.net.nic.Nic`: a SocketNode
    #: always runs on the wall clock — real datagrams take real time, so
    #: its blocking polls consume wall seconds, never virtual ones.
    #: Protocol code (rpc, locate) can therefore ask any station for
    #: ``node.clock`` and treat None as "timeouts are wall time".
    clock = None

    #: Seconds the pump blocks per receive before checking for shutdown
    #: and buffered egress; also restored after each non-blocking drain.
    _POLL_INTERVAL = 0.1

    def __init__(self, fbox=None, bind_host="127.0.0.1", buffer_egress=False,
                 flush_every=32, recv_batch=32, faults=None):
        self.fbox = fbox or FBox()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind((bind_host, 0))
        self._sock.settimeout(self._POLL_INTERVAL)
        #: Optional FaultPlan; every egress datagram — plain frames and
        #: aggregate carriers alike — passes through it.  None keeps the
        #: transmit function the raw socket sendto, costing nothing.
        self.faults = faults
        if faults is not None:
            from repro.net.faults import faulty_sendto

            self._sendto = faulty_sendto(self._sock.sendto, faults)
        else:
            self._sendto = self._sock.sendto
        self.recv_batch = recv_batch
        self.address = self._sock.getsockname()
        self._queues = {}
        self._handlers = {}
        #: Lock-free admission snapshot: wire port -> Queue | handler.
        self._admission = {}
        self._peers = []
        self._peer_snapshot = ()
        self._lock = threading.Lock()
        self._closed = threading.Event()
        self.buffer_egress = buffer_egress
        self.flush_every = flush_every
        # (raw, dst | None) datagrams awaiting flush; deque append/popleft
        # are atomic, so producers and the flushing thread need no lock.
        self._egress = deque()
        self.sent = 0
        self.received = 0
        # Broadcast fallback and control-lane sinks: snapshot tuples,
        # replaced wholesale under _lock, read lock-free by the pump.
        self._broadcast_handlers = ()
        self._control_handlers = ()
        self.control_sent = 0
        self.control_received = 0
        self._pump = threading.Thread(target=self._pump_loop, daemon=True)
        self._pump.start()

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    def connect(self, peer_address):
        """Add a peer for port-addressed sends (poor man's broadcast).

        Rebuilds the immutable peer snapshot so senders never take the
        lock.
        """
        with self._lock:
            if peer_address not in self._peers:
                self._peers.append(peer_address)
                self._peer_snapshot = tuple(self._peers)

    # ------------------------------------------------------------------
    # egress
    # ------------------------------------------------------------------

    @staticmethod
    def _pack_for_wire(message, transform):
        """The one egress serialisation: transform, pack, size-check.

        Every egress path goes through here so the datagram-cap policy
        cannot drift between the single, batch, and buffered variants;
        ``transform`` is the caller's choice of F-box path (copying or
        owned — the transformation itself is identical).
        """
        raw = transform(message).pack()
        if len(raw) > MAX_DATAGRAM:
            raise ValueError("message of %d bytes exceeds datagram cap" % len(raw))
        return raw

    def put(self, message, dst_machine=None):
        """Transform through the F-box and transmit as a UDP datagram.

        With ``dst_machine`` (a ``(host, port)`` pair) the frame is
        unicast; otherwise it is offered to every connected peer and their
        admission filters decide — the loopback stand-in for a broadcast
        segment.
        """
        raw = self._pack_for_wire(message, self.fbox.transform_egress)
        self.sent += 1
        if self.buffer_egress:
            self._egress.append((raw, dst_machine))
            if len(self._egress) >= self.flush_every:
                self.flush_egress()
            return True if dst_machine is not None else bool(self._peer_snapshot)
        if dst_machine is not None:
            self._sendto(raw, dst_machine)
            return True
        peers = self._peer_snapshot
        for peer in peers:
            self._sendto(raw, peer)
        return bool(peers)

    # Same signature as Nic.put_owned; serialisation makes the copy
    # question moot here, so the plain path is reused.
    put_owned = put

    def put_broadcast(self, message):
        """Offer a frame to every connected peer — the loopback stand-in
        for a broadcast segment (station-API parity with
        :meth:`Nic.put_broadcast`; LOCATE rides this)."""
        return self.put(message, None)

    def on_broadcast(self, handler):
        """Register ``handler(frame)`` for frames no admission sink
        claims.  On a real segment a broadcast is just a datagram every
        station receives; on loopback the closest analogue is "arrived
        but addressed to no GET here" — which is exactly what a LOCATE
        probe looks like to a responder.  Handlers filter by command."""
        with self._lock:
            self._broadcast_handlers = self._broadcast_handlers + (handler,)
        return handler

    # ------------------------------------------------------------------
    # control-plane lane (join/leave/health)
    # ------------------------------------------------------------------

    def send_control(self, kind, payload=b"", dst=None):
        """Transmit one control datagram (``kind`` is a single byte).

        Bypasses the egress buffer deliberately: membership and health
        traffic must not queue behind a data burst.  Without ``dst`` the
        datagram is offered to every connected peer.
        """
        if len(kind) != 1:
            raise ValueError("control kind must be a single byte")
        raw = _CTL_MAGIC + kind + payload
        if len(raw) > MAX_DATAGRAM:
            raise ValueError("control payload exceeds datagram cap")
        self.control_sent += 1
        if dst is not None:
            self._sendto(raw, dst)
            return True
        peers = self._peer_snapshot
        for peer in peers:
            self._sendto(raw, peer)
        return bool(peers)

    def on_control(self, handler):
        """Register ``handler(kind, payload, src)`` for inbound control
        datagrams; runs on the pump thread.  Returns the handler so a
        caller can later :meth:`off_control` it."""
        with self._lock:
            self._control_handlers = self._control_handlers + (handler,)
        return handler

    def off_control(self, handler):
        with self._lock:
            self._control_handlers = tuple(
                h for h in self._control_handlers if h is not handler
            )

    def _send_run(self, raws, dst):
        """Send a run of packed frames to one destination, coalesced.

        A lone frame goes out as a plain datagram; two or more travel in
        aggregate carriers (``_AGG_MAGIC`` + length-prefixed frames),
        chunked under :data:`MAX_DATAGRAM` — one syscall per carrier
        instead of one per frame.  On a single shared CPU this is the
        difference between pipelining amortizing the kernel crossings
        and merely reordering them.
        """
        sendto = self._sendto
        if len(raws) == 1:
            sendto(raws[0], dst)
            return
        parts = []
        size = _AGG_HEADER
        for raw in raws:
            need = 4 + len(raw)
            if _AGG_HEADER + need > MAX_DATAGRAM:
                # Too big to ride a carrier at all (the frame itself is
                # within the cap, but not with carrier overhead): flush
                # what is pending to keep ordering, then send it plain.
                if parts:
                    sendto(_AGG_MAGIC + b"".join(parts), dst)
                    parts = []
                    size = _AGG_HEADER
                sendto(raw, dst)
                continue
            if parts and size + need > MAX_DATAGRAM:
                sendto(_AGG_MAGIC + b"".join(parts), dst)
                parts = []
                size = _AGG_HEADER
            parts.append(len(raw).to_bytes(4, "big"))
            parts.append(raw)
            size += need
        if parts:
            sendto(_AGG_MAGIC + b"".join(parts), dst)

    def put_owned_bulk(self, messages, dst_machine=None):
        """Transform a batch of privately built messages in place and
        transmit — the egress half of a pipelined issue over sockets.

        Each message gets the identical, unconditional F-box
        transformation of :meth:`put_owned`; the burst then leaves as
        aggregate carriers (see :meth:`_send_run`), so a 16-in-flight
        issue costs one or two ``sendto`` calls instead of sixteen.
        """
        if self._egress:
            # Same-sender ordering: earlier buffered datagrams first.
            self.flush_egress()
        transform = self.fbox.transform_egress_owned
        pack = self._pack_for_wire
        peers = self._peer_snapshot
        raws = [pack(message, transform) for message in messages]
        self.sent += len(raws)
        if raws:
            if dst_machine is not None:
                self._send_run(raws, dst_machine)
            else:
                for peer in peers:
                    self._send_run(raws, peer)
        return len(raws) if (dst_machine is not None or peers) else 0

    def put_owned_unicast_bulk(self, pairs):
        """Transmit a batch of privately built unicast (message, machine)
        pairs — a batch server's reply egress.  Each message is F-box
        transformed in place exactly as :meth:`put_owned` would;
        consecutive same-destination replies share aggregate carriers."""
        if self._egress:
            self.flush_egress()
        transform = self.fbox.transform_egress_owned
        pack = self._pack_for_wire
        count = 0
        run = []
        run_dst = None
        for message, dst in pairs:
            raw = pack(message, transform)
            count += 1
            if dst != run_dst and run:
                self._send_run(run, run_dst)
                run = []
            run_dst = dst
            run.append(raw)
        if run:
            self._send_run(run, run_dst)
        self.sent += count
        return count

    def put_many(self, messages, dst_machine=None):
        """Transform and transmit a batch in one pass.

        Amortizes the per-call bookkeeping (peer snapshot read, counter
        updates) across the batch; each message still goes through the
        full F-box transform and size check.  Returns the number of
        messages offered to at least one destination.
        """
        if self._egress:
            # Earlier buffered datagrams must not be overtaken by this
            # batch — same-sender ordering is part of the buffering
            # contract.
            self.flush_egress()
        transform = self.fbox.transform_egress
        pack = self._pack_for_wire
        sendto = self._sendto
        peers = self._peer_snapshot
        count = 0
        for message in messages:
            raw = pack(message, transform)
            count += 1
            if dst_machine is not None:
                sendto(raw, dst_machine)
            else:
                for peer in peers:
                    sendto(raw, peer)
        self.sent += count
        return count if (dst_machine is not None or peers) else 0

    def flush_egress(self):
        """Send every buffered datagram; returns how many went out.

        Consecutive same-destination datagrams leave coalesced in
        aggregate carriers (runs are consecutive, so ordering per
        destination is untouched); a server's burst of replies to one
        pipelined client is one syscall.
        """
        egress = self._egress
        flushed = 0
        run = []
        run_dst = None
        while True:
            try:
                raw, dst = egress.popleft()
            except IndexError:
                break
            if run and dst != run_dst:
                self._flush_run(run, run_dst)
                run = []
            run_dst = dst
            run.append(raw)
            flushed += 1
        if run:
            self._flush_run(run, run_dst)
        return flushed

    def _flush_run(self, raws, dst):
        if dst is not None:
            self._send_run(raws, dst)
        else:
            for peer in self._peer_snapshot:
                self._send_run(raws, peer)

    def pump(self, budget=None):
        """Station-API parity with :class:`~repro.net.nic.Nic`: ingress is
        pumped by the background thread, so this only flushes buffered
        egress."""
        return self.flush_egress()

    # ------------------------------------------------------------------
    # ingress
    # ------------------------------------------------------------------

    def _swap_admission(self):
        """Rebuild the lock-free admission snapshot (callers hold _lock).

        The dict is built fresh and swapped in with one attribute store
        (atomic under the GIL), so the pump thread either sees the old
        snapshot or the new one — never a half-mutated dict.
        """
        combined = dict(self._queues)
        combined.update(self._handlers)
        self._admission = combined

    def listen(self, port):
        wire_port = self.fbox.listen_port(as_port(port))
        with self._lock:
            if wire_port not in self._queues:
                # SimpleQueue: C-implemented, a fraction of queue.Queue's
                # construction and handoff cost — and a GET sink needs
                # none of Queue's task tracking.
                self._queues[wire_port] = queue.SimpleQueue()
                self._swap_admission()
        return wire_port

    def listen_fresh(self, ports):
        """Batch GET on a set of fresh (just-drawn) reply ports.

        The socket counterpart of :meth:`Nic.listen_fresh`: every port is
        one-wayed in one F-box batch and admitted under a single lock
        acquisition and admission swap, instead of one rebuild per
        transaction.  Returns the wire ports, or None when any wire port
        collides with an existing GET or another port of the batch
        (callers fall back to issuing one at a time — sharing a sink
        would cross two transactions' replies).
        """
        wires = self.fbox.one_way_batch(ports)
        with self._lock:
            queues = self._queues
            handlers = self._handlers
            if len(set(wires)) != len(wires):
                return None
            for wire_port in wires:
                if wire_port in queues or wire_port in handlers:
                    return None
            for wire_port in wires:
                queues[wire_port] = queue.SimpleQueue()
            self._swap_admission()
        return wires

    def reply_queues(self, wire_ports):
        """The live queue sinks for a batch of wire ports (collect half
        of a pipelined issue).  The GETs stay admitted — withdraw with
        :meth:`unlisten_wire_many` only after the replies are in, so the
        pump never drops an in-flight reply."""
        admission = self._admission
        return [admission.get(wire_port) for wire_port in wire_ports]

    def unlisten_wire_many(self, wire_ports):
        """Withdraw a batch of GETs with one admission swap."""
        with self._lock:
            changed = False
            for wire_port in wire_ports:
                if (
                    self._queues.pop(wire_port, None) is not None
                    or self._handlers.pop(wire_port, None) is not None
                ):
                    changed = True
            if changed:
                self._swap_admission()

    def unlisten(self, port):
        self.unlisten_wire(self.fbox.listen_port(as_port(port)))

    def serve(self, port, handler):
        """Register a request handler; it runs on the pump thread.

        As with :meth:`Nic.serve`, frames queued by an earlier listen()
        on the same port are the server's backlog and are drained into
        the handler (outside the lock, mirroring pump-thread dispatch).
        """
        wire_port = self.fbox.listen_port(as_port(port))
        with self._lock:
            backlog = self._queues.pop(wire_port, None)
            self._handlers[wire_port] = handler
            self._swap_admission()
        while backlog is not None:
            try:
                frame = backlog.get_nowait()
            except queue.Empty:
                break
            handler(frame)
        return wire_port

    def serve_batch(self, port, batch_handler):
        """Register a *batch* request handler; it runs on the pump thread.

        Each pump iteration's ingress burst for this port arrives as one
        ``batch_handler(frames)`` call (arrival order preserved), so a
        pipelined client's 16 requests cost one dispatch preamble and —
        with :meth:`put_owned_unicast_bulk` — one reply burst.  Backlog
        queued by an earlier listen() is delivered as its own batch.
        """
        wire_port = self.fbox.listen_port(as_port(port))
        sink = _BatchSink(batch_handler)
        with self._lock:
            backlog = self._queues.pop(wire_port, None)
            self._handlers[wire_port] = sink
            self._swap_admission()
        if backlog is not None:
            frames = []
            while True:
                try:
                    frames.append(backlog.get_nowait())
                except queue.Empty:
                    break
            if frames:
                batch_handler(frames)
        return wire_port

    def poll(self, port, timeout=None):
        """Next admitted frame for GET(port), blocking up to ``timeout``."""
        wire_port = self.fbox.listen_port(as_port(port))
        return self.poll_wire(wire_port, timeout)

    def poll_wire(self, wire_port, timeout=None):
        """Like :meth:`poll`, keyed by the wire port listen() returned."""
        sink = self._admission.get(wire_port)
        if type(sink) is not queue.SimpleQueue:
            return None
        if self._egress:
            # Our own buffered requests must reach the wire before we
            # wait for their replies.
            self.flush_egress()
        try:
            return sink.get(
                block=timeout is not None and timeout > 0, timeout=timeout
            )
        except queue.Empty:
            return None

    def unlisten_wire(self, wire_port):
        """Like :meth:`unlisten`, keyed by the wire port listen() returned."""
        with self._lock:
            q = self._queues.pop(wire_port, None)
            h = self._handlers.pop(wire_port, None)
            if q is not None or h is not None:
                self._swap_admission()

    # ------------------------------------------------------------------
    # pump thread
    # ------------------------------------------------------------------

    def _pump_loop(self):
        from repro.net.network import Frame

        QueueType = queue.SimpleQueue
        sock = self._sock
        unpack = Message.unpack
        batch = []
        while not self._closed.is_set():
            try:
                batch.append(sock.recvfrom(MAX_DATAGRAM + 1))
            except socket.timeout:
                # Idle tick: anything a handler buffered since the last
                # datagram still has to leave the machine.
                if self._egress:
                    self.flush_egress()
                continue
            except OSError:
                break
            # Drain whatever else has already arrived, without blocking:
            # a zero-timeout select probes readability (the timeout is a
            # socket-wide attribute shared with concurrent senders, so
            # toggling it here would turn their blocking sendto calls
            # into spurious BlockingIOErrors), and a readable socket
            # makes the recvfrom return at once.  The burst a pipelined
            # client or a coalescing sender put on the wire is dispatched
            # as one batch with one egress flush at the end.
            limit = self.recv_batch
            if limit > 1:
                try:
                    while (
                        len(batch) < limit
                        and select.select([sock], [], [], 0)[0]
                    ):
                        batch.append(sock.recvfrom(MAX_DATAGRAM + 1))
                except OSError:
                    pass  # socket closing mid-drain; outer loop notices
            # Split aggregate carriers back into individual frames; each
            # inner frame then takes the identical unpack/admission path
            # a plain datagram takes.  A truncated carrier tail is
            # dropped like any other garbage datagram.
            expanded = []
            for raw, src in batch:
                if raw[:_AGG_HEADER] != _AGG_MAGIC:
                    expanded.append((raw, src))
                    continue
                pos = _AGG_HEADER
                end = len(raw)
                while pos + 4 <= end:
                    flen = int.from_bytes(raw[pos:pos + 4], "big")
                    pos += 4
                    if pos + flen > end:
                        break
                    expanded.append((raw[pos:pos + flen], src))
                    pos += flen
            admitted = 0
            batch_runs = None
            faults = self.faults
            for raw, src in expanded:
                if (faults is not None and faults.has_partitions
                        and faults.link_severed(src, None)):
                    # Ingress half of a severed link: the plan only sees
                    # this node's egress, so cuts *toward* us are
                    # enforced here, before the control lane — a
                    # partitioned peer cannot even answer PING.
                    faults.note_partition_drop(src, None)
                    continue
                if raw[:_CTL_HEADER] == _CTL_MAGIC:
                    # Control lane: one kind byte + opaque payload, never
                    # unpacked as a message.  PING is answered by the
                    # station itself — liveness must not depend on any
                    # server being registered here.
                    kind = raw[_CTL_HEADER:_CTL_HEADER + 1]
                    payload = raw[_CTL_HEADER + 1:]
                    self.control_received += 1
                    if kind == CTL_PING:
                        try:
                            self._sendto(_CTL_MAGIC + CTL_PONG + payload, src)
                        except OSError:
                            pass
                    for handler in self._control_handlers:
                        try:
                            handler(kind, payload, src)
                        except Exception:
                            pass  # a crashing handler must not kill the pump
                    continue
                try:
                    message = unpack(raw)
                except Exception:
                    continue  # garbage datagrams are dropped, like hardware
                # One lock-free snapshot read decides admission/delivery —
                # re-read per datagram so a listen() a handler just made
                # admits later datagrams of the same batch.
                sink = self._admission.get(message.dest)
                if sink is None:
                    # Frames for ports nobody GETs here go to the
                    # broadcast fallback (a LOCATE probe is exactly such
                    # a frame); with no handlers they drop as before.
                    handlers = self._broadcast_handlers
                    if handlers:
                        frame = Frame(src=src, dst_machine=None, message=message)
                        for handler in handlers:
                            try:
                                handler(frame)
                            except Exception:
                                pass
                    continue
                admitted += 1
                frame = Frame(src=src, dst_machine=None, message=message)
                kind = type(sink)
                if kind is QueueType:
                    sink.put(frame)
                elif kind is _BatchSink:
                    # Coalesce this burst's frames into one handler call.
                    if batch_runs is None:
                        batch_runs = {}
                    run = batch_runs.get(sink)
                    if run is None:
                        batch_runs[sink] = [frame]
                    else:
                        run.append(frame)
                else:
                    try:
                        sink(frame)
                    except Exception:
                        pass  # a crashing server must not kill the transport
            if batch_runs is not None:
                for sink, frames in batch_runs.items():
                    try:
                        sink.handler(frames)
                    except Exception:
                        pass  # a crashing server must not kill the transport
            batch.clear()
            self.received += admitted
            # Replies the handlers buffered go out with this iteration.
            if self._egress:
                self.flush_egress()

    def close(self):
        self._closed.set()
        self._pump.join(timeout=2.0)
        if self._egress:
            try:
                self.flush_egress()
            except OSError:
                pass  # socket may already be unusable; buffered frames drop
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def __repr__(self):
        return "SocketNode(address=%s:%d)" % self.address
