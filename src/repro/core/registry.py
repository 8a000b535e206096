"""The server-side object table: secrets, payloads, and revocation.

Every Amoeba server keeps a private table mapping 24-bit object numbers to
(random number, object data).  The table plus a protection scheme is all a
server needs to mint, validate, restrict, and revoke capabilities — no
central capability manager exists anywhere in the system (§2.3).

Revocation works exactly as the paper describes: "ask the server to change
the random number stored in its internal table and return a new
capability"; every outstanding capability for the object dies instantly.

Sharding
--------
The table is partitioned into a power-of-two number of lock-striped
shards, keyed by object number (``shard = number & (shards - 1)``).  The
paper's design is embarrassingly parallel — each request names exactly
one object and touches exactly one row — so every per-object operation
(:meth:`lookup`, :meth:`refresh`, :meth:`destroy`, :meth:`restrict`,
:meth:`mint_for`) acquires exactly one stripe, and :meth:`create` draws
from per-shard allocation counters (object numbers congruent to the
shard index mod the shard count), so no operation ever takes a global
lock.  Cross-shard operations (:meth:`age`, :meth:`numbers`) sweep
stripe by stripe instead of stopping the world.

Each entry additionally memoizes its verified (rights, check) pairs —
the server-side half of §2.4's "hashed cache of capabilities that they
have been using frequently": a repeat lookup of an already-validated
capability costs one stripe acquisition and two dict probes instead of a
one-way-function evaluation.  The memo can never outlive the secret it
was computed from: :meth:`refresh` clears it under the same stripe that
replaces the secret, and :meth:`destroy`/:meth:`age` drop the entry
(memo and all) outright.
"""

import itertools
import threading
from collections import deque
from dataclasses import dataclass, field

from repro.core.capability import OBJECT_BITS, Capability
from repro.core.rights import ALL_RIGHTS, NO_RIGHTS, Rights
from repro.crypto.randomsrc import RandomSource
from repro.errors import NoSuchObject, PermissionDenied

#: Default stripe count: enough that 8–16 concurrent threads rarely collide
#: on a stripe, small enough that a full sweep is still cheap.
DEFAULT_SHARDS = 16

#: Bound on each entry's verified-pair memo.  An object realistically
#: circulates as its owner capability plus a handful of restricted
#: forms; the bound only matters against an adversary minting garbage,
#: and garbage never verifies, so it never enters the memo at all.
VERIFIED_MEMO_MAX = 16


@dataclass
class ObjectEntry:
    """One row of a server's object table."""

    number: int
    secret: object
    data: object
    #: Monotonic count of secret refreshes — a revocation generation.
    generation: int = 0
    #: Bookkeeping useful to servers (e.g. touch for garbage collection).
    touches: int = field(default=0)
    #: Sweeps left before the object is garbage (None = never collected).
    #: Every successful lookup (STD_TOUCH included) resets it.
    lifetime: object = None
    #: Verified (rights, check) -> effective Rights memo for the *current*
    #: secret (§2.4 server-side capability cache).  Mutated only under the
    #: owning shard's stripe; cleared whenever the secret is replaced.
    verified: dict = field(default_factory=dict, repr=False)


class _Shard:
    """One stripe: a lock, its entries, and its slice of the number space.

    Shard ``k`` of ``n`` owns every object number congruent to ``k``
    (mod ``n``); ``fresh_number``/``step`` walk that residue class so
    allocation needs no coordination with other shards.
    """

    __slots__ = ("index", "lock", "entries", "free_numbers", "fresh_number", "step")

    def __init__(self, index, step):
        self.index = index
        # RLock: refresh/destroy validate (lookup) and mutate under one
        # acquisition, exactly as the monolithic table did globally.
        self.lock = threading.RLock()
        self.entries = {}
        self.free_numbers = []
        self.fresh_number = index
        self.step = step

    def allocate_fresh(self, max_objects):
        """Next never-used number in this stripe's residue class, or None
        when the stripe's slice of ``max_objects`` is exhausted.  Caller
        holds the stripe."""
        number = self.fresh_number
        if number >= max_objects:
            return None
        self.fresh_number = number + self.step
        return number


class ObjectTable:
    """Lock-striped, thread-safe object table bound to one scheme and port.

    Parameters
    ----------
    scheme:
        The :class:`~repro.core.schemes.ProtectionScheme` protecting this
        server's capabilities.
    port:
        The server's public put-port, stamped into every minted capability.
    rng:
        Randomness source for object secrets (seedable for tests).
    max_objects:
        Capacity bound across all shards (the 24-bit space by default).
    shards:
        Power-of-two stripe count.  1 reproduces the monolithic table.
    """

    def __init__(
        self,
        scheme,
        port,
        rng=None,
        max_objects=1 << OBJECT_BITS,
        default_lifetime=None,
        shards=DEFAULT_SHARDS,
        wal=None,
    ):
        if max_objects < 1 or max_objects > (1 << OBJECT_BITS):
            raise ValueError("max_objects must be in [1, 2**24]")
        if default_lifetime is not None and default_lifetime < 1:
            raise ValueError("default_lifetime must be >= 1 sweeps")
        if shards < 1 or shards & (shards - 1):
            raise ValueError("shards must be a power of two >= 1")
        if wal is not None and wal.shards != shards:
            raise ValueError(
                "durable store has %d stripes but the table has %d shards"
                % (wal.shards, shards)
            )
        self.scheme = scheme
        self.port = port
        self._rng = rng or RandomSource()
        self._max_objects = max_objects
        #: Sweeps a fresh/touched object survives; None disables aging.
        #: This is Amoeba's touch-based garbage collection: servers that
        #: keep no record of capability holders cannot refcount, so
        #: objects not touched for N sweeps are presumed garbage.
        self.default_lifetime = default_lifetime
        #: Optional write-ahead log (:class:`~repro.disk.wal.DurableStore`
        #: duck type): every mutation that survives this table's process —
        #: create, refresh, destroy, aging expiry — is appended to the
        #: owning stripe's log *under the stripe lock the mutation already
        #: holds*, so durability adds no cross-shard serialization.
        self._wal = wal
        self._shards = [_Shard(i, shards) for i in range(shards)]
        self._mask = shards - 1
        # Round-robin cursor for fresh allocation (itertools.count is a
        # single C call, atomic under concurrent create()s) and a queue
        # of shard-index hints, one per freed number, so create() reuses
        # recycled numbers first — preserving the monolithic table's
        # allocate-from-the-free-list-before-minting behavior — without
        # any cross-shard lock.
        self._fresh_cursor = itertools.count()
        self._recycle_hints = deque()
        # Callbacks fired after a secret dies (refresh/destroy/age) with
        # (port, object number, generation, shard index) — e.g. a sealer
        # purging its §2.4 capability caches so a revoked capability's
        # sealed form cannot be served from cache.  Fired outside every
        # stripe lock; the shard index identifies the stripe that owned
        # the object, so sharded caches can target their sweep.
        self._revocation_listeners = []

    # ------------------------------------------------------------------
    # shard topology
    # ------------------------------------------------------------------

    @property
    def shard_count(self):
        return len(self._shards)

    def shard_of(self, number):
        """The stripe index owning ``number`` (``number & (shards-1)``)."""
        return number & self._mask

    def shard_sizes(self):
        """Per-shard entry counts (a racy snapshot; for experiments)."""
        return [len(shard.entries) for shard in self._shards]

    def __len__(self):
        return sum(len(shard.entries) for shard in self._shards)

    def __contains__(self, number):
        return number in self._shards[number & self._mask].entries

    def numbers(self):
        """Snapshot of the allocated object numbers.

        Stripe-by-stripe: each shard is locked just long enough to copy
        its key view; no instant exists at which the whole table is
        locked."""
        collected = []
        for shard in self._shards:
            with shard.lock:
                collected.extend(shard.entries)
        return sorted(collected)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def _allocate(self):
        """Reserve an object number; returns ``(shard, number)``.

        Recycled numbers win over fresh ones (each freed number leaves a
        shard-index hint in ``_recycle_hints``); fresh allocation round-
        robins across stripes so concurrent creators land on different
        locks.  Only when every stripe's slice is exhausted — and a last
        free-list scan finds nothing a racing destroy gave back — is the
        table full.
        """
        hints = self._recycle_hints
        while True:
            try:
                index = hints.popleft()
            except IndexError:
                break
            shard = self._shards[index]
            with shard.lock:
                if shard.free_numbers:
                    return shard, shard.free_numbers.pop()
            # Stale hint (a racing create claimed the number); keep going.
        shards = self._shards
        count = len(shards)
        start = next(self._fresh_cursor)
        for i in range(count):
            shard = shards[(start + i) & self._mask]
            with shard.lock:
                number = shard.allocate_fresh(self._max_objects)
                if number is not None:
                    return shard, number
        for shard in shards:
            with shard.lock:
                if shard.free_numbers:
                    return shard, shard.free_numbers.pop()
        raise NoSuchObject(
            "object table full (%d objects)" % self._max_objects
        )

    def create(self, data, rights=ALL_RIGHTS):
        """Create an object and mint its first capability.

        The returned capability is the object's *owner* capability; the
        paper's servers always mint with all rights and let callers derive
        weaker ones.  No global lock: the number is reserved under one
        stripe, the secret is drawn outside any lock, and the row is
        installed under the same stripe.
        """
        shard, number = self._allocate()
        secret = self.scheme.new_secret(self._rng)
        entry = ObjectEntry(
            number=number,
            secret=secret,
            data=data,
            lifetime=self.default_lifetime,
        )
        with shard.lock:
            shard.entries[number] = entry
            if self._wal is not None:
                self._wal.log_create(shard.index, entry)
        rights_field, check = self.scheme.mint(secret, Rights(rights))
        return Capability(
            port=self.port, object=number, rights=rights_field, check=check
        )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def _entry(self, number):
        """The live row for ``number`` (no validation — server internals
        like the bank's conservation sum reach for rows they already
        know exist).  One shard dict probe, no lock: CPython dict reads
        are atomic against the stripe-locked writers."""
        try:
            return self._shards[number & self._mask].entries[number]
        except KeyError:
            raise NoSuchObject("no object %d on this server" % number) from None

    def lookup(self, capability, required=NO_RIGHTS):
        """Validate a capability and return ``(entry, effective_rights)``.

        Raises :class:`NoSuchObject` for unknown object numbers,
        :class:`InvalidCapability` for tampered fields, and
        :class:`PermissionDenied` when the (validated) rights lack any bit
        of ``required``.  This is the single enforcement point every server
        operation funnels through.

        Locking: exactly one stripe — the one owning the object number —
        is ever acquired.  A (rights, check) pair already proven against
        the *live* secret hits the entry's verified memo and returns
        under a single acquisition with no crypto at all.  On a miss the
        scheme's verify (the expensive one-way function) deliberately
        runs *outside* the stripe, and the liveness bookkeeping runs back
        *under* it — ``touches`` is a read-modify-write and ``lifetime``
        races with :meth:`age`, so mutating them unlocked lost touches
        and could resurrect an entry a concurrent :meth:`destroy`/sweep
        had already removed.  If the entry changed while verify ran (a
        racing refresh or destroy-and-recreate), the stale verdict is
        discarded and the capability is re-validated against the live
        secret.
        """
        number = capability.object
        shard = self._shards[number & self._mask]
        if type(required) is not Rights:
            required = Rights(required)
        memo_key = (capability.rights, capability.check)
        with shard.lock:
            entry = shard.entries.get(number)
            if entry is None:
                raise NoSuchObject(
                    "no object %d on this server" % number
                )
            effective = entry.verified.get(memo_key)
            if effective is not None:
                if not effective.has_all(required):
                    raise PermissionDenied(
                        "capability grants %s but operation requires %s"
                        % (bin(int(effective)), bin(int(required)))
                    )
                entry.touches += 1
                entry.lifetime = self.default_lifetime
                return entry, effective
            secret = entry.secret
        while True:
            effective = self.scheme.verify(
                secret, capability.rights, capability.check
            )
            if not effective.has_all(required):
                raise PermissionDenied(
                    "capability grants %s but operation requires %s"
                    % (bin(int(effective)), bin(int(required)))
                )
            with shard.lock:
                live = shard.entries.get(number)
                if live is None:
                    raise NoSuchObject(
                        "no object %d on this server" % number
                    )
                if live is entry and live.secret is secret:
                    live.touches += 1
                    live.lifetime = self.default_lifetime  # use proves liveness
                    memo = live.verified
                    if len(memo) >= VERIFIED_MEMO_MAX:
                        # Drop the oldest proven pair; it re-verifies on
                        # its next use.
                        memo.pop(next(iter(memo)))
                    memo[memo_key] = effective
                    return live, effective
                entry, secret = live, live.secret  # raced; re-validate

    def data(self, capability, required=NO_RIGHTS):
        """Shorthand for ``lookup(...)[0].data``."""
        entry, _ = self.lookup(capability, required)
        return entry.data

    def restrict(self, capability, keep_mask):
        """Server-side sub-capability fabrication (schemes 1–3).

        The §2.3 round-trip: "send the capability back to the server along
        with a bit mask and a request to fabricate a new capability with
        fewer rights."
        """
        number = capability.object
        shard = self._shards[number & self._mask]
        with shard.lock:
            entry = shard.entries.get(number)
            if entry is None:
                raise NoSuchObject("no object %d on this server" % number)
            secret = entry.secret
        rights_field, check = self.scheme.restrict(
            secret, capability.rights, capability.check, Rights(keep_mask)
        )
        return Capability(
            port=self.port,
            object=number,
            rights=rights_field,
            check=check,
        )

    # ------------------------------------------------------------------
    # revocation
    # ------------------------------------------------------------------

    def on_revocation(self, callback):
        """Register ``callback(port, number, generation, shard)`` to fire
        after a secret dies — :meth:`refresh` (generation bumped),
        :meth:`destroy` (object gone), or an :meth:`age` expiry.  This is
        the hook that keeps the §2.4 capability caches honest: an
        :class:`ObjectServer` with a sealer wires it to
        :meth:`~repro.softprot.matrix.CapabilitySealer.invalidate_object`,
        so a revoked capability's cached (sealed, source) triple cannot
        outlive the secret it was minted under.  ``shard`` is the stripe
        index that owned the object (``shard_of(number)``), so sharded
        caches can target the owning partition instead of sweeping.
        Callbacks run outside every stripe lock."""
        self._revocation_listeners.append(callback)

    def _notify_revocation(self, number, generation, shard_index):
        for callback in self._revocation_listeners:
            callback(self.port, number, generation, shard_index)

    def refresh(self, capability, required=ALL_RIGHTS):
        """Revoke every outstanding capability for an object.

        Replaces the stored random number and returns a fresh owner
        capability.  Per the paper this "must be protected with a bit in
        the RIGHTS field"; callers pass the server's chosen mask as
        ``required`` (default: demand the full owner capability).

        The stripe is held across validate-and-replace (re-entrantly
        through :meth:`lookup`), and the verified memo is cleared under
        that same hold — no window exists in which the old secret's
        proven pairs could bless a capability of the new generation.
        """
        number = capability.object
        shard = self._shards[number & self._mask]
        with shard.lock:
            entry, _ = self.lookup(capability, required)
            entry.secret = self.scheme.new_secret(self._rng)
            entry.generation += 1
            entry.verified.clear()
            secret = entry.secret
            generation = entry.generation
            if self._wal is not None:
                self._wal.log_refresh(shard.index, number, secret, generation)
        self._notify_revocation(number, generation, shard.index)
        rights_field, check = self.scheme.mint(secret, ALL_RIGHTS)
        return Capability(
            port=self.port,
            object=number,
            rights=rights_field,
            check=check,
        )

    def destroy(self, capability, required=ALL_RIGHTS):
        """Validate and remove an object, recycling its number."""
        number = capability.object
        shard = self._shards[number & self._mask]
        with shard.lock:
            entry, _ = self.lookup(capability, required)
            del shard.entries[entry.number]
            shard.free_numbers.append(entry.number)
            generation = entry.generation
            if self._wal is not None:
                self._wal.log_destroy(shard.index, entry.number)
        self._recycle_hints.append(shard.index)
        self._notify_revocation(entry.number, generation, shard.index)
        return entry.data

    def apply_refresh(self, number, secret, generation):
        """Install a revocation decided by a *peer replica*.

        The replica control plane is at-least-once: a fan-out
        CTL_APPLY_REFRESH may arrive twice (retransmission) or late
        (after a newer local refresh).  The generation guard makes both
        safe — a secret is installed only if it is strictly newer than
        the live row's, so duplicates and stale deliveries are no-ops.
        Returns True when the secret was installed; an absent object is
        also a no-op (a racing destroy won), returning False.

        Like :meth:`refresh`, the verified memo is cleared under the same
        stripe hold that swaps the secret, and the revocation listeners
        (the §2.4 cache purge) fire after the stripe is released.
        """
        shard = self._shards[number & self._mask]
        with shard.lock:
            entry = shard.entries.get(number)
            if entry is None or generation <= entry.generation:
                return False
            entry.secret = secret
            entry.generation = generation
            entry.verified.clear()
            if self._wal is not None:
                self._wal.log_refresh(shard.index, number, secret, generation)
        self._notify_revocation(number, generation, shard.index)
        return True

    def apply_destroy(self, number):
        """Remove an object destroyed by a peer replica (idempotent).

        No capability validation: the peer already validated the owner
        capability before fanning out, and the control message itself is
        signature-authenticated at the server layer.  A duplicate or a
        destroy for an object this replica never had is a no-op.
        Returns True when a row was removed.
        """
        shard = self._shards[number & self._mask]
        with shard.lock:
            entry = shard.entries.pop(number, None)
            if entry is None:
                return False
            shard.free_numbers.append(number)
            generation = entry.generation
            if self._wal is not None:
                self._wal.log_destroy(shard.index, number)
        self._recycle_hints.append(shard.index)
        self._notify_revocation(number, generation, shard.index)
        return True

    def age(self, on_expire=None):
        """One garbage-collection sweep (Amoeba's touch-based GC).

        Decrements every aging object's lifetime; objects that reach zero
        are removed (``on_expire(entry)`` is called first, so a server
        can release disk blocks etc.).  Returns the expired entries.

        Because no record exists of who holds capabilities, liveness can
        only be proven by *use*: any successful lookup — including the
        no-op STD_TOUCH — resets the lifetime.  Directory-style servers
        run a background client that touches everything still reachable
        by name, then call age(); what remains unproven is garbage.

        The sweep is stripe-by-stripe: each shard's stripe is taken
        exactly once, and that single continuous hold covers both the
        decrement pass and the expiry pass — a concurrent refresh or
        touch (which needs the same stripe) therefore cannot interleave
        between an entry's decrement and its removal, so no stale
        snapshot can ever expire a row whose lifetime was just reset.
        Lookups on the other shards proceed while this stripe sweeps;
        ``on_expire`` and the revocation fan-out run after the stripe
        is released.
        """
        expired = []
        for shard in self._shards:
            with shard.lock:
                doomed = []
                for entry in shard.entries.values():
                    if entry.lifetime is None:
                        continue
                    entry.lifetime -= 1
                    if entry.lifetime <= 0:
                        doomed.append(entry)
                for entry in doomed:
                    del shard.entries[entry.number]
                    shard.free_numbers.append(entry.number)
                    if self._wal is not None:
                        self._wal.log_destroy(shard.index, entry.number)
                expired.extend(doomed)
        for entry in expired:
            shard_index = entry.number & self._mask
            self._recycle_hints.append(shard_index)
            if on_expire is not None:
                on_expire(entry)
            self._notify_revocation(entry.number, entry.generation, shard_index)
        return expired

    # ------------------------------------------------------------------
    # durability hooks (no-ops without a write-ahead log)
    # ------------------------------------------------------------------

    def stripe_locked(self, index, fn):
        """Run ``fn(entries)`` while holding stripe ``index``'s lock.

        This is the snapshot primitive: the durable store encodes a
        stripe's rows *and* captures the log's replay position under a
        single continuous hold, which is what proves every log record
        before the position redundant with the snapshot.
        """
        shard = self._shards[index]
        with shard.lock:
            return fn(shard.entries)

    def persist(self, number):
        """Re-log an object's data payload after a server mutated it.

        Servers holding durable state inside ``entry.data`` (the
        directory server's name map) call this after each mutation; the
        UPDATE record is appended under the owning stripe's lock, so it
        is ordered exactly against create/refresh/destroy and against
        snapshot position capture.  A no-op without a WAL.
        """
        if self._wal is None:
            return
        shard = self._shards[number & self._mask]
        with shard.lock:
            entry = shard.entries.get(number)
            if entry is None:
                raise NoSuchObject("no object %d on this server" % number)
            self._wal.log_update(shard.index, number, entry.data)

    def log_commit(self, number, src, reply_value, reply_raw):
        """Append a transaction-commit record to ``number``'s stripe log.

        Taken under the stripe lock for the same reason as
        :meth:`persist`: a commit must never slip between a snapshot's
        entry encoding and its position capture, or truncation would
        silently drop it.  A no-op without a WAL.
        """
        if self._wal is None:
            return
        shard = self._shards[number & self._mask]
        with shard.lock:
            self._wal.log_commit(shard.index, src, reply_value, reply_raw)

    def restore_entry(self, entry):
        """Install a recovered row, bypassing the WAL (recovery must not
        re-log what it replays).  Fresh-number allocation is advanced
        past the recovered number so post-reboot creates cannot collide
        with rows that were live before the crash."""
        number = entry.number
        shard = self._shards[number & self._mask]
        with shard.lock:
            shard.entries[number] = entry
            if shard.fresh_number <= number:
                shard.fresh_number = number + shard.step

    def snapshot_entries(self):
        """A consistent-per-stripe copy of every live row, as
        ``(number, secret, data, generation)`` tuples.  Replica pools use
        this to seed N forked processes from one populated table —
        capabilities minted against the template then validate on every
        replica.  Each stripe is locked exactly once; the snapshot is
        not atomic across stripes (neither is any client's view)."""
        rows = []
        for shard in self._shards:
            with shard.lock:
                rows.extend(
                    (e.number, e.secret, e.data, e.generation)
                    for e in shard.entries.values()
                )
        return rows

    def mint_for(self, number, rights=ALL_RIGHTS):
        """Mint a capability for an existing object *without* validation.

        Servers use this internally (e.g. the directory server re-minting
        a stored capability is wrong — it stores whole capabilities — but
        the memory server minting a process capability after MAKE PROCESS
        is exactly this).  Never expose this over the wire.
        """
        shard = self._shards[number & self._mask]
        with shard.lock:
            entry = shard.entries.get(number)
            if entry is None:
                raise NoSuchObject("no object %d on this server" % number)
            secret = entry.secret
        rights_field, check = self.scheme.mint(secret, Rights(rights))
        return Capability(
            port=self.port, object=number, rights=rights_field, check=check
        )
