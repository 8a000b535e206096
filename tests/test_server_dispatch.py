"""Tests for the ObjectServer skeleton: dispatch, std ops, error replies."""

import pytest

from repro.core.ports import Port
from repro.core.rights import Rights
from repro.crypto.randomsrc import RandomSource
from repro.disk.virtualdisk import VirtualDisk
from repro.disk.wal import DurableStore
from repro.errors import (
    STATUS_OK,
    BadRequest,
    InvalidCapability,
    NoSuchObject,
    PermissionDenied,
    error_to_code,
)
from repro.ipc import stdops
from repro.ipc.client import ServiceClient
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import STD_INFO, USER_BASE
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.net.sched import VirtualClock
from repro.softprot.cache import ServerCapabilityCache
from repro.softprot.matrix import CapabilitySealer, KeyMatrix

from tests.conftest import make_client


class CounterServer(ObjectServer):
    service_name = "counter"

    @command(USER_BASE)
    def _increment(self, ctx):
        entry, _ = ctx.lookup(Rights(0x02))
        entry.data["count"] += ctx.request.size
        return ctx.ok(size=entry.data["count"])

    @command(USER_BASE + 1)
    def _get(self, ctx):
        entry, _ = ctx.lookup(Rights(0x01))
        return ctx.ok(size=entry.data["count"])

    @command(USER_BASE + 2)
    def _boom(self, ctx):
        raise RuntimeError("not an AmoebaError")


@pytest.fixture
def world():
    net = SimNetwork()
    server = CounterServer(Nic(net), rng=RandomSource(seed=1)).start()
    client = make_client(Nic(net), server, RandomSource(seed=2))
    return net, server, client


class TestDispatch:
    def test_user_command(self, world):
        _, server, client = world
        cap = server.table.create({"count": 0})
        assert client.call(USER_BASE, capability=cap, size=5).size == 5
        assert client.call(USER_BASE + 1, capability=cap).size == 5

    def test_unknown_opcode(self, world):
        _, server, client = world
        with pytest.raises(BadRequest):
            client.call(9999)

    def test_request_counts(self, world):
        _, server, client = world
        cap = server.table.create({"count": 0})
        client.call(USER_BASE + 1, capability=cap)
        client.call(USER_BASE + 1, capability=cap)
        assert server.request_counts[USER_BASE + 1] == 2

    def test_duplicate_opcode_rejected_at_definition(self):
        with pytest.raises(ValueError):

            class Broken(ObjectServer):
                @command(USER_BASE)
                def _a(self, ctx):
                    pass

                @command(USER_BASE)
                def _b(self, ctx):
                    pass

            Broken(Nic(SimNetwork()))

    def test_stop_prevents_delivery(self, world):
        _, server, client = world
        server.stop()
        from repro.errors import PortNotLocated

        with pytest.raises(PortNotLocated):
            client.call(STD_INFO)

    def test_restart_after_stop(self, world):
        _, server, client = world
        cap = server.table.create({"count": 0})
        server.stop()
        server.start()
        assert client.call(USER_BASE, capability=cap, size=3).size == 3


class TestErrorReplies:
    def test_amoeba_errors_map_to_status(self, world):
        _, server, client = world
        cap = server.table.create({"count": 0})
        weak = server.table.restrict(cap, Rights(0x01))
        with pytest.raises(PermissionDenied):
            client.call(USER_BASE, capability=weak, size=1)

    def test_invalid_capability_over_wire(self, world):
        _, server, client = world
        cap = server.table.create({"count": 0})
        with pytest.raises(InvalidCapability):
            client.call(USER_BASE + 1, capability=cap.with_rights(0x55))

    def test_missing_capability(self, world):
        _, server, client = world
        with pytest.raises(BadRequest):
            client.call(USER_BASE)

    def test_error_message_preserved(self, world):
        _, server, client = world
        try:
            client.call(9999)
        except BadRequest as exc:
            assert "9999" in str(exc)

    def test_crashing_handler_becomes_generic_error(self, world):
        from repro.errors import AmoebaError

        _, server, client = world
        with pytest.raises(AmoebaError) as excinfo:
            client.call(USER_BASE + 2)
        assert "internal error" in str(excinfo.value)


class TestStdOps:
    def test_info(self, world):
        _, server, client = world
        cap = server.table.create({"count": 1})
        assert "counter" in client.info(cap)

    def test_restrict_refresh_destroy_flow(self, world):
        _, server, client = world
        cap = server.table.create({"count": 0})
        weak = client.restrict(cap, 0x03)
        assert client.call(USER_BASE, capability=weak, size=2).size == 2
        fresh = client.refresh(cap)
        with pytest.raises(InvalidCapability):
            client.call(USER_BASE + 1, capability=weak)
        client.destroy(fresh)
        with pytest.raises(NoSuchObject):
            client.info(fresh)

    def test_refresh_needs_admin_bit(self, world):
        _, server, client = world
        cap = server.table.create({"count": 0})
        no_admin = client.restrict(cap, 0x7F)
        with pytest.raises(PermissionDenied):
            client.refresh(no_admin)

    def test_destroy_needs_admin_bit(self, world):
        _, server, client = world
        cap = server.table.create({"count": 0})
        no_admin = client.restrict(cap, 0x7F)
        with pytest.raises(PermissionDenied):
            client.destroy(no_admin)

    def test_touch(self, world):
        _, server, client = world
        cap = server.table.create({"count": 0})
        client.touch(cap)
        entry, _ = server.table.lookup(cap)
        assert entry.touches >= 2


class TestSignedReplies:
    def test_replies_carry_signature_image(self, world):
        net, server, _ = world
        captured = []
        net.add_tap(lambda f: f.message.is_reply and captured.append(f.message))
        client = make_client(Nic(net), server, RandomSource(seed=3))
        cap = server.table.create({"count": 0})
        client.info(cap)
        assert captured
        assert all(m.signature == server.signature_image for m in captured)


# ----------------------------------------------------------------------
# dispatch parity across delivery disciplines
# ----------------------------------------------------------------------

OP_ECHO = USER_BASE + 10
OP_CREATE = USER_BASE + 11
OP_PARK = USER_BASE + 12
OP_RELEASE = USER_BASE + 13


class ProbeServer(ObjectServer):
    """Echo, a durable create, and park/release for deferred replies."""

    service_name = "dispatch probe"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.parked = []

    @command(OP_ECHO)
    def _echo(self, ctx):
        ctx.lookup()
        return ctx.ok(data=ctx.request.data)

    @command(OP_CREATE)
    def _create(self, ctx):
        return ctx.ok(capability=self.table.create(ctx.request.data))

    @command(OP_PARK)
    def _park(self, ctx):
        ctx.lookup()
        self.parked.append(ctx.defer())

    @command(OP_RELEASE)
    def _release(self, ctx):
        while self.parked:
            self.parked.pop(0).send()
        return ctx.ok(data=b"released")


def _sealed_world(net):
    """A durable, dedup-on, sealer-equipped probe server and a client
    with its own sealer, attached in the same order on every network so
    machine addresses (and so the matrix keys) match."""
    matrix = KeyMatrix(rng=RandomSource(seed=40))
    server_nic = Nic(net)
    disk = VirtualDisk(1024)
    server = ProbeServer(
        server_nic,
        rng=RandomSource(seed=41),
        sealer=CapabilitySealer(
            matrix.view(server_nic.address),
            server_cache=ServerCapabilityCache(),
        ),
        dedup=True,
        store=DurableStore(disk),
    ).start()
    client = Nic(net)
    client_sealer = CapabilitySealer(matrix.view(client.address))
    return server, disk, client, client_sealer


def _run_script(net):
    """Drive one scripted request sequence; returns everything that must
    not depend on the delivery discipline.

    Each step sends its requests back to back and then pumps, so the
    event-loop network delivers each step as one multi-frame run, the
    DES network as a run of one per arrival instant, and the
    synchronous network one frame at a time during ``put``.
    """
    server, disk, client, client_sealer = _sealed_world(net)
    cap_a = server.table.create(b"a")
    cap_b = server.table.create(b"b")
    # Those set-up writes ran outside any request; clear the store's
    # wrote-since-last-reply flag so the first reply does not inherit it.
    server.store.consume_dirty()
    rng = RandomSource(seed=42)
    ports = {}

    def request(name, command, **fields):
        secret = Port.random(rng)
        ports[name] = client.listen(secret)
        return Message(dest=server.put_port, reply=secret, command=command,
                       **fields)

    def step(*messages):
        for message in messages:
            client.put(message)
        net.pump()

    def replies(name):
        out = []
        while True:
            frame = client.poll_wire(ports[name])
            if frame is None:
                return out
            out.append(frame.message)

    plain = request("plain", OP_ECHO, capability=cap_a, data=b"plain")
    sealed = client_sealer.seal_message(
        request("sealed", OP_ECHO, capability=cap_a, data=b"sealed"),
        server.node.address,
    )
    create = request("create", OP_CREATE, data=b"durable")
    park = request("park", OP_PARK, capability=cap_a)
    step(
        plain,
        sealed,
        request("no_cap", OP_ECHO, data=b"error"),
        create,
        park,
        park,  # a duplicate while the first copy is parked: busy drop
        request("refresh", stdops.STD_REFRESH, capability=cap_b),
    )
    assert replies("park") == []  # parked, and the duplicate dropped
    [fresh_reply] = replies("refresh")
    fresh = client_sealer.unseal_message(
        fresh_reply, server.node.address
    ).capability
    step(
        plain,  # a completed duplicate: the cached reply is replayed
        request("revoked", OP_ECHO, capability=cap_b, data=b"old"),
        request("release", OP_RELEASE),
        create,  # a retried mutation replays, it does not run again
    )
    step(request("fresh", OP_ECHO, capability=fresh, data=b"new"))

    wire = {name: [m.pack() for m in replies(name)] for name in ports}
    wire["refresh"].insert(0, fresh_reply.pack())
    recovered = ProbeServer(
        Nic(SimNetwork()), get_port=server.get_port,
        rng=RandomSource(seed=43), dedup=True, store=DurableStore(disk),
    ).reboot()
    return {
        "wire": wire,
        "statuses": {
            name: [Message.unpack(raw).status for raw in raws]
            for name, raws in wire.items()
        },
        "counts": dict(server.request_counts),
        "cache": server.reply_cache.stats(),
        "commits": dict(recovered.commits),
        "committed": sorted(
            name for name, port in ports.items()
            if (client.address, port.value) in recovered.commits
        ),
    }


NETWORKS = {
    "synchronous": SimNetwork,
    "event_loop": lambda: SimNetwork(synchronous=False, auto_drain=False),
    "des": lambda: SimNetwork(clock=VirtualClock()),
}


class TestDispatchParity:
    """One request sequence gives the same outcome on every delivery
    discipline: the same reply bytes, request counts, dedup verdicts
    and durable commit records."""

    @pytest.fixture(scope="class")
    def outcomes(self):
        return {name: _run_script(make()) for name, make in NETWORKS.items()}

    @pytest.mark.parametrize("discipline", ["event_loop", "des"])
    def test_matches_synchronous_delivery(self, outcomes, discipline):
        assert outcomes[discipline] == outcomes["synchronous"]

    def test_script_exercises_every_arm(self, outcomes):
        outcome = outcomes["synchronous"]
        statuses = outcome["statuses"]
        assert statuses["plain"] == [STATUS_OK, STATUS_OK]  # original + replay
        assert outcome["wire"]["plain"][0] == outcome["wire"]["plain"][1]
        assert statuses["sealed"] == [STATUS_OK]
        assert statuses["no_cap"] == [error_to_code(BadRequest("x"))]
        assert statuses["park"] == [STATUS_OK]  # released later, sent once
        assert statuses["release"] == [STATUS_OK]
        assert statuses["create"] == [STATUS_OK, STATUS_OK]
        assert outcome["wire"]["create"][0] == outcome["wire"]["create"][1]
        # Refresh revokes: the old capability fails, the fresh one works.
        assert statuses["refresh"] == [STATUS_OK]
        assert statuses["revoked"] == [error_to_code(InvalidCapability("x"))]
        assert statuses["fresh"] == [STATUS_OK]
        assert outcome["counts"] == {
            OP_ECHO: 5, OP_CREATE: 1, OP_PARK: 1, OP_RELEASE: 1,
            stdops.STD_REFRESH: 1,
        }
        cache = outcome["cache"]
        assert (cache["misses"], cache["hits"], cache["busy_drops"]) == (
            9, 2, 1,
        )
        # The create and the refresh wrote durable state; reads did not.
        assert outcome["committed"] == ["create", "refresh"]
