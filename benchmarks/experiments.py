"""The experiment harness: regenerates every figure/claim of the paper.

The paper (a design paper) has two figures and a set of comparative
claims rather than numeric tables (see PAPER.md); this harness runs one
experiment per figure or claim and prints its rows.

Usage:
    python benchmarks/experiments.py            # run everything
    python benchmarks/experiments.py fig1 bank  # run a subset

Experiments: fig1 fig2 algorithms revoke matrix boot servers bank rpc
"""

import sys
import time

from repro.core.capability import Capability
from repro.core.ports import Port
from repro.core.registry import ObjectTable
from repro.core.rights import ALL_RIGHTS, Rights
from repro.core.schemes import CommutativeScheme, all_scheme_names, scheme_by_name
from repro.crypto.publickey import generate_keypair
from repro.crypto.randomsrc import RandomSource
from repro.errors import InsufficientFunds, InvalidCapability
from repro.ipc.client import ServiceClient
from repro.ipc.locate import Locator, install_locate_responder
from repro.ipc.rpc import trans
from repro.ipc.server import ObjectServer, command
from repro.ipc.stdops import USER_BASE
from repro.net.intruder import Intruder
from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.nic import Nic
from repro.softprot.boot import BootProtocol
from repro.softprot.cache import ClientCapabilityCache
from repro.softprot.matrix import CapabilitySealer, KeyMatrix


def timeit(fn, repeats=2000):
    """Median-of-runs microsecond timing for one callable."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        elapsed = (time.perf_counter() - start) / repeats
        best = min(best, elapsed)
    return best * 1e6  # microseconds


def banner(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


class EchoServer(ObjectServer):
    service_name = "echo"

    @command(USER_BASE)
    def _echo(self, ctx):
        if ctx.request.capability is not None:
            ctx.lookup(Rights(0x01))
        return ctx.ok(data=ctx.request.data)


# ---------------------------------------------------------------------------
# FIG1 — clients, servers, intruders, F-boxes
# ---------------------------------------------------------------------------

def run_fig1():
    banner("FIG1  Fig. 1: intruder vs F-box (N = 200 transactions)")
    net = SimNetwork()
    server = EchoServer(Nic(net), rng=RandomSource(seed=1)).start()
    client_nic = Nic(net)
    intruder = Intruder(net, rng=RandomSource(seed=2))
    intruder.start_capture()
    intruder.attempt_get(server.put_port)

    rng = RandomSource(seed=3)
    completed = 0
    for i in range(200):
        reply = trans(client_nic, server.put_port,
                      Message(command=USER_BASE, data=b"txn %d" % i), rng=rng,
                      expect_signature=server.signature_image)
        completed += reply.data == b"txn %d" % i

    forged_accepted = 0
    def race(frame):
        if not frame.message.is_reply and frame.message.command == USER_BASE:
            intruder.forge_reply(frame, data=b"FORGED")
    net.add_tap(race)
    for i in range(100):
        reply = trans(client_nic, server.put_port,
                      Message(command=USER_BASE, data=b"auth %d" % i), rng=rng,
                      expect_signature=server.signature_image)
        forged_accepted += reply.data == b"FORGED"
    net.remove_tap(race)

    print("%-52s %10s" % ("metric", "value"))
    print("%-52s %10d" % ("legitimate transactions completed", completed))
    print("%-52s %10d" % ("frames intercepted by intruder GET(P)",
                          intruder.intercepted_count(server.put_port)))
    print("%-52s %10d" % ("forged replies accepted (signatures on)",
                          forged_accepted))
    print("%-52s %10d" % ("frames sniffed by wiretap (passive)",
                          len(intruder.captured)))
    print("paper's claim: intruder cannot impersonate or forge -> 0 and 0")


# ---------------------------------------------------------------------------
# FIG2 — the capability layout
# ---------------------------------------------------------------------------

def run_fig2():
    banner("FIG2  Fig. 2: capability layout (48+24+8+48 bits)")
    cap = Capability(port=Port(0xAABBCCDDEEFF), object=0x123456,
                     rights=Rights(0x5A), check=b"\x99" * 6)
    raw = cap.pack()
    print("%-52s %10s" % ("field widths (port/object/rights/check)",
                          "48/24/8/48"))
    print("%-52s %10d" % ("packed size (bits)", len(raw) * 8))
    print("%-52s %10s" % ("round-trips through codec",
                          Capability.unpack(raw) == cap))

    rng = RandomSource(seed=4)
    table = ObjectTable(scheme_by_name("xor-oneway"), Port(1), rng=rng)
    target = table.create("guess me")
    hits = 0
    trials = 100_000
    for _ in range(trials):
        try:
            table.lookup(target.with_check(rng.bytes(6)))
            hits += 1
        except InvalidCapability:
            pass
    print("%-52s %7d/%d" % ("random check-field guesses accepted", hits, trials))
    print("paper's claim: 48-bit sparseness makes guessing infeasible")


# ---------------------------------------------------------------------------
# ALG0-3 — the four protection algorithms
# ---------------------------------------------------------------------------

def run_algorithms():
    banner("ALG0-3  §2.3: the four rights-protection algorithms")
    rng = RandomSource(seed=5)
    rows = []
    for name in all_scheme_names():
        scheme = scheme_by_name(name)
        secret = scheme.new_secret(rng)
        rights_field, check = scheme.mint(secret, ALL_RIGHTS)

        mint_us = timeit(lambda: scheme.mint(secret, ALL_RIGHTS), 500)
        verify_us = timeit(lambda: scheme.verify(secret, rights_field, check), 500)

        # tamper fuzzing: flip every rights bit pattern
        rejected = 0
        for flip in range(1, 256):
            try:
                scheme.verify(secret, Rights(int(rights_field) ^ flip), check)
            except InvalidCapability:
                rejected += 1
        restrict = ("client (0 msg)" if scheme.client_restrictable
                    else ("server (2 msg)" if scheme.supports_restriction
                          else "unsupported"))
        rows.append((name, mint_us, verify_us, "%d/255" % rejected, restrict))

    print("%-12s %11s %11s %14s %16s"
          % ("scheme", "mint (us)", "verify (us)", "tampers rej.", "restrict via"))
    for row in rows:
        print("%-12s %11.1f %11.1f %14s %16s" % row)
    print("paper's claims: ALG1/2/3 reject all tampering (simple cannot");
    print("  distinguish rights); only ALG3 restricts without the server.")

    scheme = CommutativeScheme()
    secret = scheme.new_secret(rng)
    rights_field, check = scheme.mint(secret, Rights(0x17))
    plain = timeit(lambda: scheme.verify(secret, rights_field, check), 50)
    brute = timeit(lambda: scheme.recover_rights(secret, check), 5)
    print("ALG3 rights-field speedup: plaintext verify %.0f us vs"
          " 2^8 brute force %.0f us (%.0fx)" % (plain, brute, brute / plain))


# ---------------------------------------------------------------------------
# REVOKE — revocation by refreshing the random number
# ---------------------------------------------------------------------------

def run_revoke():
    banner("REVOKE  §2.3: revocation cost vs outstanding capabilities")
    print("%-24s %14s %12s" % ("outstanding copies", "refresh (us)", "killed"))
    for outstanding in (1, 100, 10_000):
        table = ObjectTable(scheme_by_name("xor-oneway"), Port(1),
                            rng=RandomSource(seed=6))
        owner = table.create("asset")
        copies = [table.restrict(owner, Rights(0x01))
                  for _ in range(outstanding)]
        state = {"cap": owner}

        def refresh():
            state["cap"] = table.refresh(state["cap"])

        cost = timeit(refresh, 200)
        killed = 0
        for cap in copies[:200]:
            try:
                table.lookup(cap)
            except InvalidCapability:
                killed += 1
        print("%-24d %14.1f %9d/%d" % (outstanding, cost,
                                       killed, min(outstanding, 200)))
    print("paper's claim: no central record, yet instant total revocation;")
    print("  measured: cost flat in the number of outstanding copies.")


# ---------------------------------------------------------------------------
# MATRIX — §2.4 software protection
# ---------------------------------------------------------------------------

def run_matrix():
    banner("MATRIX  §2.4: key matrix, replay defence, capability caches")
    matrix = KeyMatrix(rng=RandomSource(seed=7))
    client = CapabilitySealer(matrix.view(1),
                              client_cache=ClientCapabilityCache())
    server = CapabilitySealer(matrix.view(2))
    cap = Capability(port=Port(42), object=7, rights=Rights(0x0F),
                     check=b"\x3c" * 6)
    sealed = client.seal(cap, 2)

    replays = 0
    for src in range(3, 203):
        try:
            if server.unseal(sealed, src) == cap:
                replays += 1
        except InvalidCapability:
            pass
    print("%-52s %7d/200" % ("replays from wrong source that validated", replays))

    cold = timeit(lambda: CapabilitySealer(matrix.view(1)).seal(cap, 2), 200)
    warm = timeit(lambda: client.seal(cap, 2), 2000)
    print("%-52s %10.1f" % ("seal, cold (cipher) us", cold))
    print("%-52s %10.1f" % ("seal, warm (cache hit) us", warm))
    print("%-52s %9.0fx" % ("cache speedup", cold / warm))
    print("paper's claims: wrong-source replay never decrypts to sense;")
    print("  caches avoid running the cipher per message.")


# ---------------------------------------------------------------------------
# BOOT — the public-key bootstrap
# ---------------------------------------------------------------------------

def run_boot():
    banner("BOOT  §2.4: public-key bootstrap, replay immunity")
    rng = RandomSource(seed=8)
    keys = generate_keypair(bits=512, rng=rng)

    start = time.perf_counter()
    offer, forward = BootProtocol.client_offer(keys.public, rng)
    reply, _, reverse_s = BootProtocol.server_accept(keys, offer, rng)
    reverse = BootProtocol.client_confirm(keys.public, forward, reply)
    handshake_ms = (time.perf_counter() - start) * 1e3
    print("%-52s %10.2f" % ("full 3-step handshake (ms)", handshake_ms))
    print("%-52s %10s" % ("both sides agree on fresh keys",
                          reverse == reverse_s))

    replay_rejected = 0
    for _ in range(20):
        offer2, fresh = BootProtocol.client_offer(keys.public, rng)
        try:
            BootProtocol.client_confirm(keys.public, fresh, reply)
        except Exception:
            replay_rejected += 1
    print("%-52s %8d/20" % ("old-boot replies rejected after 'reboot'",
                            replay_rejected))

    impostor = generate_keypair(bits=512, rng=RandomSource(seed=9))
    offer3, fresh3 = BootProtocol.client_offer(keys.public, rng)
    forged_reply, _, _ = BootProtocol.server_accept(
        impostor, impostor.public.encrypt(fresh3, rng=rng), rng)
    try:
        BootProtocol.client_confirm(keys.public, fresh3, forged_reply)
        impostor_ok = True
    except Exception:
        impostor_ok = False
    print("%-52s %10s" % ("impostor (no private key) accepted", impostor_ok))
    print("paper's claim: fresh keys per reboot defeat playback; the")
    print("  signature proves the reply came from the key's owner.")


# ---------------------------------------------------------------------------
# SERVERS — the §3 suite
# ---------------------------------------------------------------------------

def run_servers():
    banner("SRV  §3: the server suite, one workload row each")
    from repro.disk.virtualdisk import VirtualDisk
    from repro.kernel.machine import Machine
    from repro.servers.block import BlockClient, BlockServer
    from repro.servers.directory import DirectoryClient, DirectoryServer, resolve_path
    from repro.servers.flatfile import FlatFileClient, FlatFileServer
    from repro.servers.multiversion import MultiversionClient, MultiversionFileServer

    net = SimNetwork()
    machine = Machine(net, rng=RandomSource(seed=10), memory_capacity=64 << 20)
    ws = Machine(net, rng=RandomSource(seed=11), with_memory_server=False)

    rows = []

    memory = ws.memory_client(remote_port=machine.memory_port)
    seg = memory.create_segment(1 << 16)
    rows.append(("memory: WRITE 4 KiB segment",
                 timeit(lambda: memory.write(seg, 0, b"m" * 4096), 300)))

    blocks = BlockServer(machine.nic, disk=VirtualDisk(n_blocks=1 << 14),
                         rng=RandomSource(seed=12)).start()
    bclient = BlockClient(ws.nic, blocks.put_port, rng=RandomSource(seed=13))
    bcap, _ = bclient.alloc()
    rows.append(("block: WRITE 512 B block",
                 timeit(lambda: bclient.write(bcap, b"b" * 512), 300)))

    files_mem = FlatFileServer(machine.nic, rng=RandomSource(seed=14)).start()
    fmem = FlatFileClient(ws.nic, files_mem.put_port, rng=RandomSource(seed=15))
    fcap = fmem.create()
    rows.append(("flat file (memory): WRITE 8 KiB",
                 timeit(lambda: fmem.write(fcap, 0, b"f" * 8192), 300)))

    server_nic2 = Nic(net)
    files_blk = FlatFileServer(
        server_nic2,
        block_client=BlockClient(server_nic2, blocks.put_port,
                                 rng=RandomSource(seed=16)),
        rng=RandomSource(seed=17),
    ).start()
    fblk = FlatFileClient(ws.nic, files_blk.put_port, rng=RandomSource(seed=18))
    fcap2 = fblk.create()
    rows.append(("flat file (block-backed): WRITE 8 KiB",
                 timeit(lambda: fblk.write(fcap2, 0, b"f" * 8192), 50)))

    dirs = DirectoryServer(machine.nic, rng=RandomSource(seed=19)).start()
    dclient = DirectoryClient(ws.nic, dirs.put_port, rng=RandomSource(seed=20))
    root = dirs.create_root()
    current = root
    for i in range(8):
        current = dclient.create_directory(current, "d%d" % i)
    leaf = dirs.table.create("leaf")
    dclient.enter(current, "leaf", leaf)
    path = "/".join("d%d" % i for i in range(8)) + "/leaf"
    rng2 = RandomSource(seed=21)
    rows.append(("directory: resolve 9-component path",
                 timeit(lambda: resolve_path(ws.nic, root, path, rng2), 100)))

    mv = MultiversionFileServer(machine.nic,
                                disk=VirtualDisk(n_blocks=1 << 14),
                                rng=RandomSource(seed=22)).start()
    mvc = MultiversionClient(ws.nic, mv.put_port, rng=RandomSource(seed=23))
    doc = mvc.create_file()
    v, _ = mvc.new_version(doc)
    mvc.write(v, 0, b"p" * (32 * 512))
    mvc.commit(v)
    rows.append(("multiversion: branch 32-page file (COW)",
                 timeit(lambda: mvc.new_version(doc), 200)))

    print("%-46s %14s" % ("operation (all over RPC)", "latency (us)"))
    for label, us in rows:
        print("%-46s %14.1f" % (label, us))
    print("shape: block-backed files pay ~block-count extra RPCs vs the")
    print("  in-memory backend -- the price of §3.2 modularity.")


# ---------------------------------------------------------------------------
# BANK — §3.6 economy
# ---------------------------------------------------------------------------

def run_bank():
    banner("BANK  §3.6: transfers, conservation, quota by pricing")
    from repro.servers.bank import BankClient, BankServer, R_DEPOSIT, R_INSPECT, R_WITHDRAW
    from repro.servers.charging import ChargingFlatFileServer
    from repro.servers.flatfile import FILE_CREATE, FILE_WRITE, FlatFileClient

    net = SimNetwork()
    bank_nic, storage_nic, ws_nic = Nic(net), Nic(net), Nic(net)
    bank = BankServer(bank_nic, exchange_rates={("USD", "FRF"): (7, 1)},
                      rng=RandomSource(seed=24)).start()
    bclient = BankClient(ws_nic, bank.put_port, rng=RandomSource(seed=25))
    central = bank.create_account({"USD": 10_000}, mint_right=True)
    alice = bclient.open_account()
    bclient.transfer(central, alice, "USD", 20)

    xfer_us = timeit(lambda: (bclient.transfer(central, alice, "USD", 1),
                              bclient.transfer(alice, central, "USD", 1)), 200)
    print("%-52s %10.1f" % ("transfer round (2 transfers) us", xfer_us))
    print("%-52s %10d" % ("USD in circulation after 400 transfers",
                          bank.total_in_circulation("USD")))
    print("%-52s %10d" % ("USD ever minted", bank.minted["USD"]))

    revenue = bank.create_account()
    charging = ChargingFlatFileServer(
        storage_nic,
        bank_client=BankClient(storage_nic, bank.put_port,
                               rng=RandomSource(seed=26)),
        revenue_cap=revenue, price=1, charge_unit=512,
        rng=RandomSource(seed=27),
    ).start()
    fclient = FlatFileClient(ws_nic, charging.put_port, rng=RandomSource(seed=28))
    pay = bclient.restrict(alice, R_WITHDRAW | R_DEPOSIT | R_INSPECT)
    cap = fclient.call(FILE_CREATE, data=b"", extra_caps=(pay,)).capability
    written = 0
    quota_hit = False
    for _ in range(100):
        try:
            fclient.call(FILE_WRITE, capability=cap, offset=written,
                         data=b"x" * 512, extra_caps=(pay,))
            written += 512
        except InsufficientFunds:
            quota_hit = True
            break
    print("%-52s %10d" % ("bytes bought before quota (20 USD, 1 USD/512B)",
                          written))
    print("%-52s %10s" % ("quota enforced purely by money running out",
                          quota_hit))
    balance_before = bclient.balance(alice).get("USD", 0)
    fclient.destroy(cap)
    print("%-52s %10d" % ("refund on destroy (USD back in wallet)",
                          bclient.balance(alice).get("USD", 0) - balance_before))
    print("paper's claims: money is conserved; dollars ARE the disk quota;")
    print("  returning disk blocks returns the money.")


# ---------------------------------------------------------------------------
# RPC — §2.1 communication model
# ---------------------------------------------------------------------------

def run_rpc():
    banner("RPC  §2.1/§2.2: transaction latency and LOCATE economics")
    net = SimNetwork()
    server_nic = Nic(net)
    install_locate_responder(server_nic)
    server = EchoServer(server_nic, rng=RandomSource(seed=29)).start()
    client_nic = Nic(net)
    rng = RandomSource(seed=30)

    for label, size in (("64 B", 64), ("1 KiB", 1024), ("8 KiB", 8192)):
        payload = b"p" * size
        us = timeit(lambda: trans(client_nic, server.put_port,
                                  Message(command=USER_BASE, data=payload),
                                  rng=rng), 300)
        print("%-52s %10.1f" % ("trans round-trip, %s payload (us)" % label, us))

    locator = Locator(client_nic, rng=RandomSource(seed=31))
    locator.locate(server.put_port)
    net.reset_stats()
    for _ in range(1000):
        locator.locate(server.put_port)
    print("%-52s %10d" % ("wire frames for 1000 cached locates", net.frames_sent))
    cold = timeit(lambda: Locator(client_nic,
                                  rng=RandomSource(seed=32)).locate(server.put_port),
                  200)
    warm = timeit(lambda: locator.locate(server.put_port), 2000)
    print("%-52s %10.1f" % ("locate, cold (broadcast + HERE) us", cold))
    print("%-52s %10.1f" % ("locate, cache hit us", warm))


EXPERIMENTS = {
    "fig1": run_fig1,
    "fig2": run_fig2,
    "algorithms": run_algorithms,
    "revoke": run_revoke,
    "matrix": run_matrix,
    "boot": run_boot,
    "servers": run_servers,
    "bank": run_bank,
    "rpc": run_rpc,
}


def main(argv):
    chosen = argv or list(EXPERIMENTS)
    unknown = [name for name in chosen if name not in EXPERIMENTS]
    if unknown:
        print("unknown experiment(s): %s" % ", ".join(unknown))
        print("available: %s" % " ".join(EXPERIMENTS))
        return 1
    for name in chosen:
        EXPERIMENTS[name]()
    print()
    print("all experiments done")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
