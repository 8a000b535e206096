"""Hashed capability caches (§2.4).

"To avoid having to run the encryption/decryption algorithm frequently,
all machines can maintain a hashed cache of capabilities that they have
been using frequently.  Clients will hash their caches on the unencrypted
capabilities in the form of triples: (unencrypted capability, destination,
encrypted capability), whereas servers will hash theirs in the form of
triples: (encrypted capability, source, unencrypted capability)."

Both caches below are those triples, stored in bounded LRU maps with
hit/miss counters the MATRIX experiment reports.

Sharding
--------
A busy server's request path hits its caches from many threads
while revocation sweeps fire from whichever thread refreshed, destroyed,
or aged the object.  :class:`ShardedLruCache` partitions the entries
across power-of-two lock-striped :class:`LruCache` stripes so the hot
path and a revocation sweep only collide when they touch the same
stripe.  The two capability caches choose their partitioning key for
revocation locality:

* :class:`ClientCapabilityCache` keys its triples on the *unencrypted*
  capability, so the owning stripe is computable from (port, object
  number) — ``forget_object`` sweeps exactly one stripe.
* :class:`ServerCapabilityCache` keys on opaque ciphertext (the sealed
  blob), so placement must hash the blob; a per-object stripe-membership
  hint recorded at ``remember`` time lets ``forget_object`` sweep only
  the stripes that ever held triples for that object.
"""

import threading
from collections import OrderedDict


class LruCache:
    """A bounded least-recently-used map with hit/miss accounting.

    Thread-safe: a server's request path reads and writes its cache from
    its serving threads while revocation (``ObjectTable.on_revocation`` →
    :meth:`evict_where`) fires from whichever thread refreshed, destroyed,
    or swept the object — OrderedDict relinking is not atomic, so every
    operation takes the internal lock.  The critical sections are a few
    dict operations; the cache exists to skip block-cipher calls, which
    cost orders of magnitude more than an uncontended lock.

    Statistics are kept as a single ``(hits, misses)`` tuple replaced
    wholesale under the lock, so a reader — :attr:`hit_rate`, a stats
    aggregator, a benchmark thread — always sees a *consistent* pair
    with one lock-free reference load, never a torn (new hits, old
    misses) mix.
    """

    def __init__(self, max_entries=1024):
        if max_entries < 1:
            raise ValueError("cache needs at least one entry")
        self.max_entries = max_entries
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self._counts = (0, 0)

    def get(self, key):
        """Return the cached value or ``None``, updating recency."""
        with self._lock:
            hits, misses = self._counts
            try:
                value = self._entries[key]
            except KeyError:
                self._counts = (hits, misses + 1)
                return None
            self._entries.move_to_end(key)
            self._counts = (hits + 1, misses)
            return value

    def put(self, key, value):
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    @property
    def hits(self):
        return self._counts[0]

    @property
    def misses(self):
        return self._counts[1]

    def stats(self):
        """One consistent ``(hits, misses)`` snapshot, lock-free."""
        return self._counts

    @property
    def hit_rate(self):
        hits, misses = self._counts
        total = hits + misses
        return hits / total if total else 0.0

    def evict_where(self, predicate):
        """Remove every entry for which ``predicate(key, value)`` is true;
        returns the number evicted.  O(entries) — the price of a rare
        event (revocation), never of the per-message hot path."""
        with self._lock:
            doomed = [k for k, v in self._entries.items() if predicate(k, v)]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self):
        with self._lock:
            self._entries.clear()

    def __repr__(self):
        return "LruCache(%d/%d entries, %.0f%% hits)" % (
            len(self._entries),
            self.max_entries,
            100 * self.hit_rate,
        )


class ShardedLruCache:
    """An LRU map partitioned across lock-striped :class:`LruCache` stripes.

    ``shards`` must be a power of two; each stripe holds an equal slice
    of ``max_entries`` (recency is therefore per-stripe, which is the
    standard sharded-LRU approximation: a key can only be displaced by
    traffic landing on its own stripe).  Placement hashes the key by
    default; subclasses override :meth:`shard_key` to partition by a
    semantic component (the capability caches partition by the object a
    triple names, so revocation sweeps stay stripe-local).

    Statistics aggregate across stripes from each stripe's consistent
    snapshot tuple — :attr:`hits`/:attr:`misses`/:attr:`hit_rate` are
    sums of coherent pairs, never torn per-stripe reads.
    """

    def __init__(self, max_entries=1024, shards=8):
        if shards < 1 or shards & (shards - 1):
            raise ValueError("shards must be a power of two >= 1")
        if max_entries < 1:
            raise ValueError("cache needs at least one entry")
        self.max_entries = max_entries
        # Exact split: stripe capacities sum to max_entries (the first
        # ``max_entries % shards`` stripes take the remainder) — except
        # that every stripe needs at least one slot, so a cache smaller
        # than its stripe count rounds its total up to ``shards``.
        base, extra = divmod(max_entries, shards)
        self._shards = [
            LruCache(max(1, base + (1 if i < extra else 0)))
            for i in range(shards)
        ]
        self._mask = shards - 1

    # -- placement ------------------------------------------------------

    def shard_key(self, key):
        """The value whose hash places ``key``; subclasses override."""
        return key

    def shard_index(self, key):
        return hash(self.shard_key(key)) & self._mask

    @property
    def shard_count(self):
        return len(self._shards)

    # -- the map surface ------------------------------------------------

    def get(self, key):
        return self._shards[self.shard_index(key)].get(key)

    def put(self, key, value):
        self._shards[self.shard_index(key)].put(key, value)

    def __len__(self):
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, key):
        return key in self._shards[self.shard_index(key)]

    def clear(self):
        for shard in self._shards:
            shard.clear()

    # -- statistics -----------------------------------------------------

    def stats(self):
        """Aggregated ``(hits, misses)`` from per-stripe snapshots."""
        hits = 0
        misses = 0
        for shard in self._shards:
            h, m = shard.stats()
            hits += h
            misses += m
        return hits, misses

    @property
    def hits(self):
        return self.stats()[0]

    @property
    def misses(self):
        return self.stats()[1]

    @property
    def hit_rate(self):
        hits, misses = self.stats()
        total = hits + misses
        return hits / total if total else 0.0

    # -- eviction -------------------------------------------------------

    def evict_where(self, predicate, shard_indices=None):
        """Remove entries for which ``predicate(key, value)`` is true,
        stripe by stripe (never holding more than one stripe lock at a
        time); ``shard_indices`` restricts the sweep to the listed
        stripes.  Returns the number evicted."""
        if shard_indices is None:
            shards = self._shards
        else:
            shards = [self._shards[i] for i in shard_indices]
        return sum(shard.evict_where(predicate) for shard in shards)

    def __repr__(self):
        return "%s(%d/%d entries, %d shards, %.0f%% hits)" % (
            type(self).__name__,
            len(self),
            self.max_entries,
            len(self._shards),
            100 * self.hit_rate,
        )


class ClientCapabilityCache(ShardedLruCache):
    """Client triples: (unencrypted capability, destination) -> sealed bytes.

    Partitioned by the capability's (port, object number): every triple
    for one object lives in one stripe, so :meth:`forget_object` — the
    revocation path — locks and sweeps exactly that stripe while the
    other stripes keep serving the request path.
    """

    def __init__(self, max_entries=1024, shards=8):
        super().__init__(max_entries, shards)
        #: Revocation observability: sweeps requested / triples dropped.
        #: The replica fan-out tests read these to prove every replica's
        #: cache actually processed the revocation, not just the one the
        #: client happened to talk to.
        self.forget_calls = 0
        self.forgotten = 0

    def shard_key(self, key):
        capability = key[0]
        return (capability.port, capability.object)

    def _object_shard(self, port, number):
        return hash((port, number)) & self._mask

    def lookup(self, capability, destination):
        return self.get((capability, destination))

    def remember(self, capability, destination, sealed):
        self.put((capability, destination), sealed)

    def forget_object(self, port, number):
        """Drop the triples of every capability for one (port, object) —
        the client learned it was refreshed or destroyed, so the sealed
        forms it cached are for dead secrets.  Sweeps only the owning
        stripe.  Returns the count."""
        evicted = self.evict_where(
            lambda key, _value: key[0].port == port and key[0].object == number,
            shard_indices=(self._object_shard(port, number),),
        )
        self.forget_calls += 1
        self.forgotten += evicted
        return evicted


class ServerCapabilityCache(ShardedLruCache):
    """Server triples: (sealed bytes, source) -> unencrypted capability.

    A lookup's key is ciphertext — the object it names is only known
    *after* decryption — so placement hashes the sealed blob.  To keep
    revocation stripe-local anyway, :meth:`remember` (which runs on the
    miss path, right after a block-cipher call that dwarfs it) records
    which stripes hold triples for each (port, object); a
    :meth:`forget_object` then sweeps only those stripes.  Hints are
    conservative — LRU displacement leaves a stale stripe bit behind,
    costing at worst one empty-handed stripe sweep — and bounded: if the
    hint table outgrows ``4 * max_entries`` distinct objects it is
    dropped and sweeps fall back to visiting every stripe (still one
    stripe lock at a time, never a global one).
    """

    def __init__(self, max_entries=1024, shards=8):
        super().__init__(max_entries, shards)
        self._hints = {}
        self._hints_lock = threading.Lock()
        self._hints_complete = True
        self._hint_limit = 4 * max_entries
        #: Revocation observability, mirroring ClientCapabilityCache.
        self.forget_calls = 0
        self.forgotten = 0

    def lookup(self, sealed, source):
        return self.get((sealed, source))

    def clear(self):
        # Hints first: a remember() racing the clear may then leave a
        # ghost hint for an entry the stripe wipe removes (one harmless
        # empty sweep later), never an entry with no hint (which no
        # future sweep would find).  A full clear also un-degrades the
        # hint table — the population it gave up on is gone.
        with self._hints_lock:
            self._hints.clear()
            self._hints_complete = True
        super().clear()

    def remember(self, sealed, source, capability):
        key = (sealed, source)
        index = self.shard_index(key)
        if self._hints_complete:
            hint_key = (capability.port, capability.object)
            with self._hints_lock:
                if self._hints_complete:  # re-check under the lock
                    hints = self._hints
                    hints[hint_key] = hints.get(hint_key, 0) | (1 << index)
                    if len(hints) > self._hint_limit:
                        # Too many distinct objects to track: degrade to
                        # sweep-every-stripe rather than grow unboundedly.
                        hints.clear()
                        self._hints_complete = False
                    # The put happens *inside* the hint lock (lock order:
                    # hints, then stripe — forget_object takes them in
                    # the same order, so no deadlock): a forget_object
                    # can then never slip between the hint record and
                    # the insert, which would leave a triple no future
                    # sweep could find.  The cost lands on the miss path
                    # only, right after a block-cipher call that dwarfs
                    # it.
                    self.put(key, capability)
                    return
        self.put(key, capability)

    def forget_object(self, port, number):
        """Drop every triple whose *unsealed* capability names one
        (port, object) — fired by the object table on refresh/destroy so
        a replayed sealed blob of a revoked capability must go back
        through real decryption and table validation.  Sweeps only the
        stripes the hint index names (all of them once the hint table
        has been dropped for size).  Returns the count."""
        with self._hints_lock:
            complete = self._hints_complete
            mask = self._hints.pop((port, number), 0) if complete else 0
        self.forget_calls += 1
        if complete:
            if not mask:
                return 0
            shard_indices = [
                i for i in range(len(self._shards)) if mask >> i & 1
            ]
        else:
            shard_indices = None
        evicted = self.evict_where(
            lambda _key, cap: cap.port == port and cap.object == number,
            shard_indices=shard_indices,
        )
        self.forgotten += evicted
        return evicted
