"""Multi-frame runs through the server's single dispatch core.

These classes once covered an opt-in worker pool, which is gone: every
delivered run of frames now goes through the same per-request sequence
(dedup admission, count, dispatch, reply finishing) on the delivering
thread.  The behaviours checked here do not depend on the pool and must
hold for any run delivered by ``SimNetwork(synchronous=False)``:
correct replies in order, an error reply for a capability-less frame
inside a run, exact request counts, refresh revoking between runs, and
deferred replies released by a later request of the same run.
"""

from repro.crypto.randomsrc import RandomSource
from repro.errors import STATUS_OK
from repro.ipc import stdops
from repro.ipc.rpc import trans_many
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic

import pytest

OP_RECORD = USER_BASE
OP_PARK = USER_BASE + 7
OP_RELEASE = USER_BASE + 8


class RecordingServer(ObjectServer):
    """Echoes the request data back, recording each handled object."""

    service_name = "batch probe"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handled = []

    @command(OP_RECORD)
    def _record(self, ctx):
        entry, _ = ctx.lookup()
        self.handled.append(entry.number)
        return ctx.ok(data=ctx.request.data)


@pytest.fixture
def world():
    net = SimNetwork(synchronous=False, auto_drain=False)
    server = RecordingServer(Nic(net), rng=RandomSource(seed=3)).start()
    client = Nic(net)
    yield net, server, client
    server.stop()


class TestWorkerPool:
    def test_batch_replies_all_correct(self, world):
        net, server, client = world
        caps = [server.table.create("obj-%d" % i) for i in range(8)]
        requests = [
            Message(
                command=OP_RECORD,
                capability=caps[i % len(caps)],
                data=b"payload-%d" % i,
            )
            for i in range(32)
        ]
        replies = trans_many(
            client, server.put_port, requests, RandomSource(seed=4)
        )
        assert [r.data for r in replies] == [r.data for r in requests]
        assert all(r.status == STATUS_OK for r in replies)
        assert len(server.handled) == 32

    def test_capability_less_frames_share_serial_bucket(self, world):
        net, server, client = world
        cap = server.table.create("lone")
        requests = [
            Message(command=OP_RECORD, capability=cap, data=b"with-cap"),
            Message(command=OP_RECORD, data=b"no-cap"),  # BadRequest path
            Message(command=stdops.STD_INFO, capability=cap),
        ] * 4
        replies = trans_many(
            client, server.put_port, requests, RandomSource(seed=6)
        )
        assert len(replies) == 12
        for i, reply in enumerate(replies):
            if i % 3 == 1:
                assert reply.status != STATUS_OK  # missing capability
            else:
                assert reply.status == STATUS_OK

    def test_request_counts_still_exact(self, world):
        net, server, client = world
        caps = [server.table.create(i) for i in range(4)]
        requests = [
            Message(command=OP_RECORD, capability=caps[i % 4], data=b"n")
            for i in range(20)
        ]
        trans_many(client, server.put_port, requests, RandomSource(seed=7))
        assert server.request_counts[OP_RECORD] == 20


class TestWorkerPoolWithStdOps:
    def test_refresh_under_pool_revokes(self, world):
        """STD_REFRESH delivered in a run still revokes: the old
        capability fails afterwards, the fresh one works."""
        net, server, client = world
        cap = server.table.create("precious")
        rng = RandomSource(seed=12)
        refresh = Message(command=stdops.STD_REFRESH, capability=cap)
        use_old = Message(command=OP_RECORD, capability=cap, data=b"old")
        replies = trans_many(client, server.put_port, [refresh], rng)
        fresh = replies[0].capability
        assert fresh is not None
        after = trans_many(
            client,
            server.put_port,
            [
                Message(command=OP_RECORD, capability=fresh, data=b"new"),
                use_old,
            ],
            rng,
        )
        assert after[0].status == STATUS_OK
        assert after[1].status != STATUS_OK  # revoked


class TestDeferredRepliesUnderPool:
    def test_park_and_release_from_pool_threads(self):
        """DeferredReply.send() fired by a later request of the same run
        shares the run's egress with the run's own replies; all arrive."""

        class ParkingServer(RecordingServer):
            service_name = "parking"

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.parked = []

            @command(OP_PARK)
            def _park(self, ctx):
                ctx.lookup()
                self.parked.append(ctx.defer())
                return None

            @command(OP_RELEASE)
            def _release(self, ctx):
                ctx.lookup()
                while self.parked:
                    self.parked.pop(0).send()
                return ctx.ok(data=b"released")

        net = SimNetwork(synchronous=False, auto_drain=False)
        server = ParkingServer(Nic(net), rng=RandomSource(seed=32)).start()
        client = Nic(net)
        cap = server.table.create("lot")
        requests = [
            Message(command=OP_PARK, capability=cap),
            Message(command=OP_PARK, capability=cap),
            Message(command=OP_RELEASE, capability=cap),
        ]
        # A second object's traffic keeps ordinary replies in the same
        # egress run as the released ones.
        other = server.table.create("busy")
        requests += [
            Message(command=OP_RECORD, capability=other, data=b"x")
            for _ in range(5)
        ]
        replies = trans_many(
            client, server.put_port, requests, RandomSource(seed=33),
            timeout=60.0,
        )
        assert len(replies) == 8
        assert all(r.status == STATUS_OK for r in replies)
        assert replies[2].data == b"released"
        assert [r.data for r in replies[3:]] == [b"x"] * 5
        assert server.parked == []
        server.stop()
