"""Environments, stores, times, and addresses.

Every map here (environments and both kinds of store) is a ``FrozenMap``:
immutable, so each state keeps its own version, and each map reads one
dict.  A write to an environment or an abstract store copies the dict.  A
concrete store is written in place instead, since a concrete run writes
only its newest store: ``ConcreteStore.update`` sets the key in the dict,
hands the dict to the new store, and leaves the store it was given a
one-entry undo record.  Reading an old store replays the records between
it and the dict's holder and reverses them ("rerooting"; Baker, *Shallow
Binding Makes Functional Arrays Fast*, 1991; Conchon & Filliâtre, *A
Persistent Union-Find Data Structure*, 2007).  So a concrete step reads at
dict speed and writes in O(1) time and memory, while every store of a
trace stays readable; a walk through a trace's stores in order reroots
one write at a time.

Reading an old concrete store thus reorganises the dict its family
shares, so a store must not be shared across threads; the package is
single-threaded.

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
semantics.  ``CONCRETE_STORE`` fetches exactly one storable and checks
that allocation is fresh and time advances; ``ABSTRACT_STORE`` fans a
fetch out over a set, joins on every write and runs unchecked.  The rules
build every frame, closure, thunk and handler, and extend every
environment, through the semantics' hooks (``make``, ``extend``,
``merge``), which both read as the plain constructors.  A per-state search
reads the rules over an ``interning.InterningStore`` of its own instead:
the abstract semantics with every part hash-consed for that one search,
so the search can index states by the identities of their parts.

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

import sys
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, fields
from operator import itemgetter
from struct import Struct
from typing import Any, TypeVar

try:
    from operator import call as _call
except ImportError:  # Python 3.10

    def _call(f, /, *args):
        return f(*args)

K = TypeVar("K")
V = TypeVar("V")

# Keys of identities: ``n`` ``id``s packed into one bytes object, which
# holds no int per id and which the cyclic collector does not track.  An
# interning search keeps one per state it has seen (the ``part_ids`` of
# ``machines.CESKtState`` and ``extended.ExtState``) and one per store
# write it has made (``interning``).
_IDS3, _IDS5, _IDS6 = (Struct(f"{n}Q").pack for n in (3, 5, 6))


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
if sys.version_info >= (3, 11):
    value_class = dataclass(slots=True, unsafe_hash=True)
else:

    def value_class(cls):
        """3.10's ``slots=True`` declares again the slots of a base's
        fields, so a subclass such as ``inspection.ArM`` would carry each
        of them twice.  This makes the slotted class as ``dataclasses``
        does, but leaves out the slots a base already has, as 3.11 does."""
        cls = dataclass(unsafe_hash=True)(cls)
        inherited = set()
        for base in cls.__mro__[1:-1]:
            slots = base.__dict__.get("__slots__", ())
            inherited.update((slots,) if isinstance(slots, str) else slots)
        names = tuple(f.name for f in fields(cls))
        body = dict(cls.__dict__, __slots__=tuple(n for n in names if n not in inherited))
        for name in (*names, "__dict__", "__weakref__"):
            body.pop(name, None)
        made = type(cls)(cls.__name__, cls.__bases__, body)
        made.__qualname__ = cls.__qualname__
        return made


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


class FrozenMap(Mapping):
    """Immutable hashable map; functional update via set/update/without/
    restrict.

    Every map reads one dict, ``_d``.  ``FrozenMap(...)``, ``set``,
    ``update``, ``without`` and ``restrict`` build a map that owns a fresh
    dict alone and never changes it: every environment and abstract store,
    ``EMPTY_MAP``, and a store GC restricted.  Its views are the dict's
    own: read-only, set-like and iterating in C.

    A concrete store is instead a version in a family of maps that share
    one dict (see ``_Root`` and ``_Diff``); ``ConcreteStore.update`` is the
    only writer of a family, and the first concrete write to a map that no
    family owns copies it once.  Reading an old version reorganises the
    family's dict, so a version's views (``items``, ``keys``, ``values``
    and iteration) are snapshots, and two versions of one family compare a
    snapshot against the other.

    The hash is the sum of the hashes of the ``(key, value)`` items, so it
    does not depend on insertion order and can be kept up to date.  It is
    computed on first use.  ``set`` on a map whose hash is known derives
    the new map's hash in O(1): it subtracts the replaced item's hash and
    adds the new one's.  A map nothing ever hashed (a concrete store) pays
    one ``None`` check for this.  The other updates leave the hash to be
    computed lazily.

    ``_top`` is the largest ``FreshA`` number among the keys (-1 if there
    is none), or ``None`` while unknown.  Only concrete stores keep it:
    ``fresh_addr`` computes it on first use and ``ConcreteStore`` carries
    it to the stores it writes.  Every other way of making a map leaves
    it unknown: ``set`` never maintains it.

    ``_repr`` keeps the rendering (see ``cached_repr``); a derived map
    never sees its parent's string."""

    __slots__ = ("_d", "_hash", "_top", "_repr")

    def __init__(self, items: Mapping | Iterator | tuple = ()):
        self._d = dict(items)
        self._hash = None
        self._top = None

    @classmethod
    def _wrap(cls, d: dict, h: int | None = None) -> "FrozenMap":
        """A map over the dict ``d``, which no other map reads; ``h`` is
        its hash when the caller already knows it."""
        m = cls.__new__(cls)
        m._d = d
        m._hash = h
        m._top = None
        return m

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
        return "{" + ", ".join(
            f"{r}: {_render_set(v) if isinstance(v, frozenset) else repr(v)}" for r, v in pairs
        ) + "}"

    def set(self, key, value) -> "FrozenMap":
        d = self._d
        h = self._hash
        if h is not None:
            old = d.get(key, _ABSENT)
            if old is not _ABSENT:
                h -= hash((key, old))
            h += hash((key, value))
        d = d.copy()
        d[key] = value
        return FrozenMap._wrap(d, h)

    def update(self, items) -> "FrozenMap":
        d = self._d.copy()
        d.update(items)
        return FrozenMap._wrap(d)

    # ``keys`` is used as it is when it is already a set (``gc.collect``
    # hands ``restrict`` a frozenset).
    def without(self, keys) -> "FrozenMap":
        drop = keys if isinstance(keys, (set, frozenset)) else set(keys)
        return FrozenMap._wrap({k: v for k, v in self._d.items() if k not in drop})

    def restrict(self, keys) -> "FrozenMap":
        keep = keys if isinstance(keys, (set, frozenset)) else set(keys)
        return FrozenMap._wrap({k: v for k, v in self._d.items() if k in keep})


_first = itemgetter(0)


def _render_set(v: frozenset) -> str:
    """A set's repr with its members sorted by ``repr``, as the command
    line prints an abstract store's storables, so the text does not follow
    the hash seed or the order the set was built in."""
    return "frozenset({" + ", ".join(sorted(map(repr, v))) + "})" if v else "frozenset()"


class _Root(FrozenMap):
    """The version of a concrete store's family that holds the family's
    dict (the ``Arr`` of Conchon & Filliâtre's rerooted persistent arrays,
    *A Persistent Union-Find Data Structure*, 2007).  Its reads are a plain
    map's.  Its views are snapshots: a live view would change under its
    iteration as soon as another version of the family is read."""

    __slots__ = ()

    def __iter__(self):
        return iter(list(self._d))

    def items(self):
        return self._d.copy().items()

    def keys(self):
        return self._d.copy().keys()

    def values(self):
        return self._d.copy().values()

    # A snapshot of this side: when ``other`` is a version of this family,
    # reading it reroots the dict away from this one.
    def __eq__(self, other) -> bool:
        if isinstance(other, FrozenMap):
            return self._d.copy() == other._d
        return NotImplemented

    # Defining ``__eq__`` would otherwise leave the class unhashable.
    def __hash__(self) -> int:
        return FrozenMap.__hash__(self)


# Read and write the ``_d`` slot itself, which ``_Diff``'s property hides.
_get_slot = FrozenMap._d.__get__
_set_slot = FrozenMap._d.__set__


def _reroot(target: "_Diff") -> dict:
    """Make ``target`` the root of its family, and return the dict.

    Walks the undo records from ``target`` up to the root, then replays them
    back down, root first.  Each replayed record reverses: the version it
    led to gets the record that redoes the write, pointing at the version
    that now holds the dict (Baker, *Shallow Binding Makes Functional
    Arrays Fast*, 1991).  A loop, so a chain of any length reroots without
    deep recursion."""
    path = []
    v = target
    while type(v) is _Diff:
        path.append(v)
        v = _get_slot(v)[2]
    d = v._d
    v.__class__ = _Diff  # every other version on the path is one already
    for old in reversed(path):
        key, value, newer = _get_slot(old)
        _set_slot(newer, (key, d.get(key, _ABSENT), old))
        if value is _ABSENT:
            del d[key]
        else:
            d[key] = value
    _set_slot(target, d)
    target.__class__ = _Root
    return d


class _Diff(_Root):
    """A version of a concrete store that a later write superseded (the
    ``Diff`` of Conchon & Filliâtre).  Its ``_d`` slot holds an undo record
    ``(key, value, newer)``: this version reads as the version ``newer``
    with ``key`` mapped back to ``value``, or unmapped when ``value`` is
    ``_ABSENT``.  Records point from old versions towards the root, so the
    versions form a tree without cycles that refcounting frees.

    Every read of a map goes through ``_d``, and here ``_d`` is a property
    that first reroots the family at this version, which then is a
    ``_Root``.  So the methods of ``FrozenMap`` and ``_Root`` serve a
    version unchanged, and a read of a root pays nothing for them."""

    __slots__ = ()

    _d = property(_reroot)


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
    d = a._d.copy()
    d[addr] = vals if got is None else got | vals
    for addr, vals in entries:
        got = d.get(addr)
        d[addr] = vals if got is None else got | vals
    return FrozenMap._wrap(d)


def astore_leq(a: FrozenMap, b: FrozenMap) -> bool:
    """Pointwise subset order."""
    for addr, vals in a.items():
        if not vals <= astore_get(b, addr):
            return False
    return True


def sort_key(x: Any) -> str:
    """Ordering key for fan-outs and rendering: the repr.

    Every domain object has a repr built only from its fields, and no repr
    follows the string hash seed: ``FrozenMap.__repr__`` sorts a map's keys
    and lists each set of storables of an abstract store sorted by repr,
    as the command line prints them.  So the reprs of things that hold an
    abstract store (a pushdown node, a widened context's store) are the
    same in every process, and ``pushdown``, which orders its worklist by
    the reprs of its nodes, numbers them the same under any seed.

    The key is the whole repr, and a pushdown node's holds its store, so
    ``pushdown._saturate`` renders each node's key once, when it numbers
    the node, and sorts node numbers by the kept keys.  Other callers pay
    one ``repr`` call per key; a value, frame or map keeps its own text
    (``cached_repr``), so that call renders each object once.
    """
    return repr(x)


# ---------------------------------------------------------------------------
# Store semantics: how a concrete and an abstract run read the same rules
# ---------------------------------------------------------------------------


class _Builds:
    """The constructor hooks of a store semantics that builds every object
    anew.  The rules build each frame, closure, thunk and handler with
    ``sem.make(cls, *fields)``, extend an environment with
    ``sem.extend(env, name, addr)`` and a marks table with
    ``sem.merge(marks, items)``.  Here the three are the plain calls
    (``operator.call``, ``FrozenMap.set`` and ``FrozenMap.update``), kept
    as instance attributes: reading one binds nothing, so a concrete step
    pays no Python-level call for them (``interning.InterningStore``
    overrides them with methods)."""

    def __init__(self):
        self.make = _call
        self.extend = FrozenMap.set
        self.merge = FrozenMap.update


class ConcreteStore(_Builds):
    """Exact stores.  A fetch yields the one storable of the expected kind
    or stops the machine; allocation must be fresh; update overwrites; each
    tick of a timed state must strictly advance time.  A frame is its own
    address when the policy links it (see the module docstring).  A write
    only adds or overwrites a key, so the written store's high-water mark
    is the larger of the parent's and the written ``FreshA``'s.

    ``update`` is the one write in place: it sets the key in the given
    store's dict, hands the dict to the new store, and leaves the given
    store the undo record of the write (see ``_Diff``)."""

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
        new = _Root.__new__(_Root)  # built inline: the write is on every step
        if type(store) is FrozenMap:  # no family owns it: copy it once
            d = store._d.copy()
        else:
            d = store._d  # an old version is rerooted first
            store._d = (addr, d.get(addr, _ABSENT), new)
            store.__class__ = _Diff
        d[addr] = value
        new._d = d
        new._hash = None
        top = store._top
        if top is not None and isinstance(addr, FreshA) and addr.n > top:
            top = addr.n
        new._top = top
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


class AbstractStore(_Builds):
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
