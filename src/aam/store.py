"""Environments, stores, times, and addresses.

Every map here (environments and both kinds of store) is a ``FrozenMap``:
immutable, so each state keeps its own version and a write makes a new map.
A map of up to ``TRIE_THRESHOLD`` entries is one dict that a write copies;
a larger one is a hash trie whose writes copy one path and share the rest,
so a long concrete trace keeps O(log n) new memory per state instead of a
copy of its whole store.

Concrete stores are exact finite maps (an allocation must be fresh, a
rebind overwrites).  Abstract stores map addresses to non-empty sets of
storables; absent addresses mean bottom, update means join, and lookup of
an absent address yields the empty set.  An abstract write or join that
adds nothing returns the map it was given, not an equal copy, so a
successor whose store did not grow shares its parent's store object, and
callers may test ``is`` where they would otherwise compare whole stores
(Johnson, Labich, Might & Van Horn, *Optimizing Abstract Abstract
Machines*, 2013: pay only for stores that change).

Address families:

* ``FreshA(n)``        numeric addresses from a max-plus-one allocator;
  a concrete store carries its high-water mark (the largest ``n`` it
  holds), so allocation reads the mark instead of scanning the store
* ``BindA(x, t)``      variable binding keyed by allocation-time
* ``KontA(site, t)``   continuation (or operand-thunk, or reified-frame)
  storage keyed by the allocating node's label; ``tag`` separates the
  roles so distinct allocations at one site never alias
* ``UpdateA(x, t)``    memoization-return storage for forcing a variable
* ``MonoBindA`` / ``MonoKontA`` / ``MonoUpdateA``   the time-free variants
  the monovariant (k=0) policy degenerates to

A single run allocates from a single family, chosen by the active policy.

Every language writes its transition rules once, against a store
semantics.  ``CONCRETE_STORE`` and ``ABSTRACT_STORE`` are the only two:
the first fetches exactly one storable and checks that allocation is fresh
and time advances; the second fans a fetch out over a set, joins on every
write and runs unchecked.

A concrete "address" that is not an ``Addr`` is a continuation frame
allocated at itself: fetching it yields the frame, and storing the frame
there leaves the store alone.  That is how a linked continuation reads the
rules written for store-allocated ones; the allocation policy decides which
frames are linked.  A concrete state whose time is ``None`` is untimed and
stays so.

Addresses and times, like every object a step builds, are ``value_class``
dataclasses: slotted, hashed and compared over their fields, and immutable
by convention.  Their bases (``Addr``, ``Time``, and ``Value`` and ``Kont``
in ``machines``) are plain classes with ``__slots__``; a base whose
subclasses render through ``cached_repr`` keeps the rendered text in its
``_repr`` slot, and a storable's base keeps the addresses it makes live in
its ``_live`` slot (see ``gc``).
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterator, KeysView, Mapping, ValuesView
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Any, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class StoreError(Exception):
    pass


class InvariantError(AssertionError):
    """A machine invariant failed (stale allocation, a tick that does not
    advance time, a second memo write).  Raised explicitly, so the checks
    still run under ``python -O``."""


class MachineStuck(Exception):
    """A concrete machine has no transition; ``reason`` says why."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


_ABSENT = object()


# The decorator of every class a step or a search builds: states, frames,
# values, storables, addresses, times and step outcomes.  Equality, the
# hash, ``repr``, ``fields`` and ``replace`` are the dataclass's, over the
# fields.  Instances have slots and no ``__dict__``, and the generated
# ``__init__`` assigns through the slots instead of calling
# ``object.__setattr__`` per field as a frozen dataclass does, so building
# one costs about what a plain object does.  They are immutable by
# convention, as a ``FrozenMap`` is: no code assigns a field after
# construction, and ``tests/test_value_classes.py`` checks that none does.
value_class = dataclass(slots=True, unsafe_hash=True)


def cached_repr(render):
    """Make ``render`` a ``__repr__`` that renders each object once.

    The text is kept in the ``_repr`` slot of the class's base (``Value``,
    ``Kont``, ``FrozenMap``), the way ``syntax.unparse`` keeps a node's: it
    is not a field, so equality, hashing and ``dataclasses.replace`` ignore
    it, and no constructor sets it, so a step that builds the object pays
    nothing for it.  ``sort_key`` asks for it whenever a fan-out orders
    storables; a map, closure or frame in a trace's store is rendered once
    however many states hold it, and a linked frame renders its tail from
    the tail's kept text."""

    def __repr__(self) -> str:
        try:
            return self._repr
        except AttributeError:
            pass
        r = self._repr = render(self)
        return r

    return __repr__


# A map of more than this many entries is a hash trie (see ``FrozenMap``),
# and a trie's leaf holds at most this many hashes.  Time alone would put
# it higher: one write and two lookups cost less on a trie than on a whole
# dict only from about 400 entries.  But every state a trace keeps holds
# the leaf its write copied, and concrete-ladder latencies were the same at
# 64, 96, 128 and 256, so the threshold is the one that keeps the least
# (the sweep is in BENCH_14.json).
TRIE_THRESHOLD = 64
# Bits of ``hash(key)`` that pick a branch's child, and so its fan-out.
TRIE_BITS = 5
_FANOUT = 1 << TRIE_BITS
_MASK = _FANOUT - 1
# The one empty leaf: every absent child of every branch.  Never written.
_EMPTY_LEAF: dict = {}


class FrozenMap(Mapping):
    """Immutable hashable map; functional update via set/update/without.

    A map of at most ``TRIE_THRESHOLD`` entries keeps them in one dict, and
    a write copies it.  A larger map is a hash trie that shares structure
    with the maps it was written from (Bagwell, *Ideal Hash Trees*, 2001):
    a branch is a tuple of ``2 ** TRIE_BITS`` children, picked by the next
    ``TRIE_BITS`` bits of the key's hash, and a leaf is a dict from hashes
    to entries.  A node is a branch exactly when more than
    ``TRIE_THRESHOLD`` distinct hashes share its hash prefix (keys of one
    hash share an entry), so a key set has one shape however it was built.
    ``set`` copies one leaf and the branches above it, so each store a
    trace keeps costs O(log n) time and memory instead of a copy of the
    whole store.  Lookups walk at most the trie's depth; iteration order
    is the trie's, and nothing that prints depends on it.  No code outside
    this module sees which form a map has.

    The hash is the sum of the hashes of the ``(key, value)`` items, so it
    does not depend on insertion order or form and can be kept up to date.
    It is computed on first use.  ``set`` on a map whose hash is known
    derives the new map's hash in O(1): it subtracts the replaced item's
    hash and adds the new one's.  A map nothing ever hashed (a concrete
    store) pays one ``None`` check for this.  The other updates leave the
    hash to be computed lazily.

    ``_top`` is the largest ``FreshA`` number among the keys (-1 if there
    is none), or ``None`` while unknown.  Only concrete stores keep it:
    ``fresh_addr`` computes it on first use and ``ConcreteStore`` carries
    it to the stores it writes.  Every other way of making a map leaves
    it unknown: ``set`` never maintains it.

    ``_repr`` keeps the rendering (see ``cached_repr``); a derived map
    never sees its parent's string."""

    # ``_d`` is the dict of a small map or the ``_Trie`` of a large one;
    # both answer the same reads, so the methods below rarely ask which.
    __slots__ = ("_d", "_hash", "_top", "_repr")

    def __init__(self, items: Mapping | Iterator | tuple = ()):
        d = dict(items)
        self._d = _Trie.build(d) if len(d) > TRIE_THRESHOLD else d
        self._hash = None
        self._top = None

    @classmethod
    def _wrap(cls, d: dict | _Trie, h: int | None) -> "FrozenMap":
        """A map over ``d``, a dict or trie of its size that no one else
        holds; ``h`` is its hash when the caller already knows it."""
        m = cls.__new__(cls)
        m._d = d
        m._hash = h
        m._top = None
        return m

    @classmethod
    def _adopt(cls, d: dict) -> "FrozenMap":
        """Wrap a fresh dict that no one else holds, without copying it (a
        large one becomes a trie)."""
        return cls._wrap(_Trie.build(d) if len(d) > TRIE_THRESHOLD else d, None)

    def _copy(self) -> dict:
        """A fresh dict of the entries.  A small map's is a copy that keeps
        the dict's stored hashes; ``dict(m)`` would call ``__getitem__``
        per key."""
        d = self._d
        return d.copy() if type(d) is dict else d.to_dict()

    def __getitem__(self, key):
        return self._d[key]

    # Every machine step looks up environments and stores; the Mapping
    # defaults would go through __getitem__ and catch KeyError.
    def get(self, key, default=None):
        return self._d.get(key, default)

    def __contains__(self, key) -> bool:
        return key in self._d

    def __iter__(self):
        return iter(self._d)

    def __len__(self) -> int:
        return len(self._d)

    # The views are read-only and set-like, and iterate in C; the Mapping
    # defaults would call __iter__ and __getitem__ once per item.
    def items(self):
        return self._d.items()

    def keys(self):
        return self._d.keys()

    def values(self):
        return self._d.values()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = sum(map(hash, self._d.items()))
        return self._hash

    def __eq__(self, other) -> bool:
        if isinstance(other, FrozenMap):
            return self._d == other._d
        return NotImplemented

    @cached_repr
    def __repr__(self) -> str:
        d = self._d
        pairs = sorted(zip(map(repr, d.keys()), d.values()), key=_first)
        return "{" + ", ".join(f"{r}: {v!r}" for r, v in pairs) + "}"

    def set(self, key, value) -> "FrozenMap":
        d = self._d
        h = self._hash
        if h is not None:
            old = d.get(key, _ABSENT)
            if old is not _ABSENT:
                h -= hash((key, old))
            h += hash((key, value))
        if type(d) is dict:
            d = dict(d)
            d[key] = value
            if len(d) > TRIE_THRESHOLD:
                d = _Trie.build(d)
        else:
            d = d.set(key, value)
        return FrozenMap._wrap(d, h)

    def update(self, items) -> "FrozenMap":
        d = self._copy()
        d.update(items)
        return FrozenMap._adopt(d)

    # ``keys`` is used as it is when it is already a set (``gc.collect``
    # hands ``restrict`` a frozenset).
    def without(self, keys) -> "FrozenMap":
        drop = keys if isinstance(keys, (set, frozenset)) else set(keys)
        return FrozenMap._adopt({k: v for k, v in self._d.items() if k not in drop})

    def restrict(self, keys) -> "FrozenMap":
        keep = keys if isinstance(keys, (set, frozenset)) else set(keys)
        return FrozenMap._adopt({k: v for k, v in self._d.items() if k in keep})


class _Trie:
    """The entries of a ``FrozenMap`` above ``TRIE_THRESHOLD``: the root
    node, the number of entries, and whether no two keys share a hash.

    A leaf maps ``hash(key)`` to the entry ``(key, value)``, or to a dict
    from key to value of the keys that share that hash, so a lookup calls the
    key's ``__hash__`` once and its ``__eq__`` only when it is not the
    stored key itself.  It answers the reads a dict does (``get``, ``in``,
    ``[]``, ``len``, iteration, the three views and ``==``); ``set``
    returns a new trie that shares every node off the written key's path."""

    __slots__ = ("_root", "_len", "_plain")

    def __init__(self, root: tuple | dict, n: int, plain: bool):
        self._root = root
        self._len = n
        self._plain = plain

    @classmethod
    def build(cls, d: dict) -> "_Trie":
        leaf = {}
        for k, v in d.items():
            h = hash(k)
            e = leaf.get(h)
            leaf[h] = (k, v) if e is None else _collide(e, k, v)
        return cls(_split(leaf, 0), len(d), len(leaf) == len(d))

    def get(self, key, default=None):
        h = hash(key)
        node = self._root
        bits = h
        while type(node) is tuple:
            node = node[bits & _MASK]
            bits >>= TRIE_BITS
        e = node.get(h)
        if e is None:
            return default
        if type(e) is tuple:
            k = e[0]
            return e[1] if k is key or k == key else default
        return e.get(key, default)

    def __getitem__(self, key):
        v = self.get(key, _ABSENT)
        if v is _ABSENT:
            raise KeyError(key)
        return v

    def __contains__(self, key) -> bool:
        return self.get(key, _ABSENT) is not _ABSENT

    def __len__(self) -> int:
        return self._len

    def _entries(self) -> Iterator[tuple]:
        """Every ``(key, value)``, in trie order; in C unless two keys
        share a hash.  (Iterating a 121-entry trie in C takes a third of
        the time of the generator below, and makes
        ``aam ceskt --fuel 300 --format json`` on Omega a tenth faster; see
        BENCH_14.json.)"""
        entries = chain.from_iterable(map(dict.values, _leaves((self._root,))))
        if self._plain:
            return entries
        return chain.from_iterable((e,) if type(e) is tuple else e.items() for e in entries)

    def __iter__(self):
        return map(_first, self._entries())

    def items(self):
        return _TrieItems(self)

    def keys(self):
        return _TrieKeys(self)

    def values(self):
        return _TrieValues(self)

    def to_dict(self) -> dict:
        return dict(self._entries())

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Trie):
            return NotImplemented
        return self._len == other._len and _same_nodes(self._root, other._root)

    def set(self, key, value) -> "_Trie":
        h = hash(key)
        path = []
        node = self._root
        bits = h
        while type(node) is tuple:
            i = bits & _MASK
            path.append((node, i))
            node = node[i]
            bits >>= TRIE_BITS
        leaf = dict(node)
        e = leaf.get(h)
        n = self._len
        if e is None:
            leaf[h] = (key, value)
            n += 1
        elif type(e) is tuple and (e[0] is key or e[0] == key):
            leaf[h] = (e[0], value)  # a dict, too, keeps the key it has
        else:
            leaf[h] = new = _collide(e, key, value)
            n += len(new) - (1 if type(e) is tuple else len(e))
        node = _split(leaf, TRIE_BITS * len(path)) if len(leaf) > TRIE_THRESHOLD else leaf
        for parent, i in reversed(path):
            children = list(parent)
            children[i] = node
            node = tuple(children)
        return _Trie(node, n, self._plain and type(leaf[h]) is tuple)


_first = itemgetter(0)
_second = itemgetter(1)


def _collide(e, key, value) -> dict:
    """The entry or collision ``e`` with ``key`` (of the same hash) set."""
    c = dict([e]) if type(e) is tuple else dict(e)
    c[key] = value
    return c


def _split(leaf: dict, shift: int):
    """The canonical node for a leaf's entries, whose hashes agree below
    bit ``shift``: the leaf itself if it holds few, else a branch on the
    next ``TRIE_BITS`` bits.  Distinct hashes part before the bits run
    out; keys of one hash share a single entry, so it always ends."""
    if len(leaf) <= TRIE_THRESHOLD:
        return leaf
    buckets = [{} for _ in range(_FANOUT)]
    for h, e in leaf.items():
        buckets[(h >> shift) & _MASK][h] = e
    deeper = shift + TRIE_BITS
    return tuple(_split(b, deeper) if b else _EMPTY_LEAF for b in buckets)


def _leaves(branch: tuple) -> Iterator[dict]:
    """Every non-empty leaf under a branch, in trie order.  (The root is
    a leaf when its keys have few distinct hashes; ``(root,)`` is a
    branch above it.)"""
    for child in branch:
        if type(child) is tuple:
            yield from _leaves(child)
        elif child:
            yield child


def _same_nodes(a, b) -> bool:
    """Equality of two nodes at one hash prefix.  Equal key sets have equal
    shapes, so nodes of different kinds differ; a shared subtree is equal
    without a look inside."""
    if a is b:
        return True
    if type(a) is dict or type(b) is dict:
        return a == b
    return all(map(_same_nodes, a, b))


class _TrieKeys(KeysView):
    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping)


class _TrieItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        return self._mapping._entries()


class _TrieValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return map(_second, self._mapping._entries())


EMPTY_MAP = FrozenMap()

# Environments map variable names to addresses (or, in the storeless
# machine, directly to closures).
Env = FrozenMap


# ---------------------------------------------------------------------------
# Times
# ---------------------------------------------------------------------------


class Time:
    __slots__ = ()


@value_class
class Tick(Time):
    n: int

    def __repr__(self) -> str:
        return f"t{self.n}"


@value_class
class Contour(Time):
    """A sequence of node labels, most recent first."""

    labels: tuple[int, ...] = ()

    def __repr__(self) -> str:
        return "[" + " ".join(str(n) for n in self.labels) + "]"


def time_strictly_precedes(old: Time, new: Time) -> bool:
    """The strict-progress order concrete tick must respect."""
    if isinstance(old, Tick) and isinstance(new, Tick):
        return new.n > old.n
    if isinstance(old, Contour) and isinstance(new, Contour):
        if len(new.labels) <= len(old.labels):
            return False
        k = len(old.labels)
        return k == 0 or new.labels[-k:] == old.labels
    return False


# ---------------------------------------------------------------------------
# Addresses
# ---------------------------------------------------------------------------

TAG_KONT = "kont"
TAG_THUNK = "thunk"
TAG_REIFY = "reify"


class Addr:
    __slots__ = ()


@value_class
class FreshA(Addr):
    n: int

    def __repr__(self) -> str:
        return f"@{self.n}"


@value_class
class BindA(Addr):
    var: str
    time: Time

    def __repr__(self) -> str:
        return f"bind:{self.var}@{self.time!r}"


@value_class
class KontA(Addr):
    site: int
    time: Time
    tag: str = TAG_KONT

    def __repr__(self) -> str:
        return f"{self.tag}:{self.site}@{self.time!r}"


@value_class
class UpdateA(Addr):
    var: str
    time: Time

    def __repr__(self) -> str:
        return f"upd:{self.var}@{self.time!r}"


@value_class
class MonoBindA(Addr):
    var: str

    def __repr__(self) -> str:
        return f"bind:{self.var}"


@value_class
class MonoKontA(Addr):
    site: int
    tag: str = TAG_KONT

    def __repr__(self) -> str:
        return f"{self.tag}:{self.site}"


@value_class
class MonoUpdateA(Addr):
    var: str

    def __repr__(self) -> str:
        return f"upd:{self.var}"


# ---------------------------------------------------------------------------
# Concrete stores
# ---------------------------------------------------------------------------


def fresh_addr(store: FrozenMap) -> FreshA:
    """Max-plus-one allocation over the numeric address family.

    Reads the store's high-water mark; a store without one (any store not
    written by ``ConcreteStore``, such as a GC'd one) is scanned once."""
    top = store._top
    if top is None:
        top = -1
        for a in store:
            if isinstance(a, FreshA) and a.n > top:
                top = a.n
        store._top = top
    return FreshA(top + 1)


def store_get(store: FrozenMap, addr: Addr):
    if addr not in store:
        raise StoreError(f"dangling address {addr!r}")
    return store[addr]


# ---------------------------------------------------------------------------
# Abstract stores: Addr -> non-empty frozenset of storables
# ---------------------------------------------------------------------------

EMPTY_ASTORE = FrozenMap()


def astore_get(store: FrozenMap, addr: Addr) -> frozenset:
    return store.get(addr, frozenset())


def astore_add(store: FrozenMap, addr: Addr, values) -> FrozenMap:
    """Join a set of storables into one address.  When the address already
    holds every one of them, the result is ``store`` itself."""
    vals = frozenset(values)
    if not vals:
        raise StoreError("refusing to store an empty set (absent means bottom)")
    got = store.get(addr)
    if got is None:
        return store.set(addr, vals)
    if vals <= got:
        return store
    return store.set(addr, got | vals)


def astore_join(a: FrozenMap, b: FrozenMap) -> FrozenMap:
    """Pointwise union; the least upper bound of two abstract stores.

    The larger operand (``a`` when both are of one size) is the base.  When
    the other adds nothing to it (the two are one map, or the base already
    holds every storable of the other), the result is the base itself.
    Otherwise the base is copied once, at the first entry of the other that
    adds to it; storables are compared only at addresses both maps hold."""
    if len(a) < len(b):
        a, b = b, a
    if a is b:
        return a
    entries = iter(b.items())
    for addr, vals in entries:
        got = a.get(addr)
        if got is None or not (got is vals or vals <= got):
            break
    else:
        return a
    d = a._copy()
    d[addr] = vals if got is None else got | vals
    for addr, vals in entries:
        got = d.get(addr)
        d[addr] = vals if got is None else got | vals
    return FrozenMap._adopt(d)


def astore_leq(a: FrozenMap, b: FrozenMap) -> bool:
    """Pointwise subset order."""
    for addr, vals in a.items():
        if not vals <= astore_get(b, addr):
            return False
    return True


def sort_key(x: Any) -> str:
    """Ordering key for fan-outs and rendering: the repr.

    Every domain object has a repr built only from its fields.  That does
    not make every repr the same in every process: ``FrozenMap.__repr__``
    sorts a map's keys, but prints an abstract store's sets of storables in
    set iteration order, which follows the string hash seed and how each
    set was built.  So the repr of anything holding an abstract store (a
    pushdown node, a widened context's store) can differ between runs.
    Nothing that prints depends on that order: the command line renders
    every set of storables sorted, and the storables, closures and frames
    this key orders in a fan-out hold no abstract store.  ``pushdown``
    orders its worklist by the reprs of nodes, which do hold one, so its
    node numbering could follow the seed; the command-line goldens,
    ``pushdown`` among them, hold under ``PYTHONHASHSEED`` 1 to 4.
    """
    return repr(x)


# ---------------------------------------------------------------------------
# Store semantics: how a concrete and an abstract run read the same rules
# ---------------------------------------------------------------------------


class ConcreteStore:
    """Exact stores.  A fetch yields the one storable of the expected kind
    or stops the machine; allocation must be fresh; update overwrites; each
    tick of a timed state must strictly advance time.  A frame is its own
    address when the policy links it (see the module docstring).  A write
    only adds or overwrites a key, so the written store's high-water mark
    is the larger of the parent's and the written ``FreshA``'s."""

    def fetch(self, store: FrozenMap, addr: Addr, kind, what: str) -> tuple:
        """``what`` names the address's role in the stuck message."""
        if not isinstance(addr, Addr):
            return (addr,)
        v = store.get(addr)
        if v is None or not isinstance(v, kind):
            raise MachineStuck(f"dangling {what} {addr!r}")
        return (v,)

    def alloc(self, store: FrozenMap, addr: Addr, value) -> FrozenMap:
        if addr is value:
            return store
        if addr in store:
            raise InvariantError(f"allocation must be fresh: {addr!r} is taken")
        return self.update(store, addr, value)

    def update(self, store: FrozenMap, addr: Addr, value) -> FrozenMap:
        new = store.set(addr, value)
        top = store._top
        if top is not None:
            new._top = addr.n if isinstance(addr, FreshA) and addr.n > top else top
        return new

    def holds(self, store: FrozenMap, addr: Addr, kind) -> bool:
        """Whether the storable at ``addr`` is of the kind."""
        return isinstance(store.get(addr), kind)

    def tick(self, policy, state, kont) -> Time | None:
        if state.time is None:
            return None
        t = policy.tick(state, kont)
        if not time_strictly_precedes(state.time, t):
            raise InvariantError("tick must strictly advance time")
        return t

    def stuck(self, reason: str, *args) -> list:
        """Stop with ``reason.format(*args)``; formatting waits until here
        because the abstract reading never needs the message."""
        raise MachineStuck(reason.format(*args))


class AbstractStore:
    """Stores of storable sets.  A fetch fans out over every storable of
    the expected kind in ``sort_key`` order; allocation and update both
    join; ticks are unchecked; a state no rule matches has no successors.
    A write of a storable the address already holds returns the store it
    was given, so such a successor shares its parent's store object."""

    def fetch(self, store: FrozenMap, addr: Addr, kind, what: str) -> list:
        return [v for v in sorted(astore_get(store, addr), key=sort_key) if isinstance(v, kind)]

    def alloc(self, store: FrozenMap, addr: Addr, value) -> FrozenMap:
        return astore_add(store, addr, (value,))

    update = alloc

    def holds(self, store: FrozenMap, addr: Addr, kind) -> bool:
        """Whether some storable at ``addr`` is of the kind."""
        return any(isinstance(v, kind) for v in astore_get(store, addr))

    def tick(self, policy, state, kont) -> Time:
        return policy.tick(state, kont)

    def stuck(self, reason: str, *args) -> list:
        return []


CONCRETE_STORE = ConcreteStore()
ABSTRACT_STORE = AbstractStore()
