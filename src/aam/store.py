"""Environments, stores, times, and addresses.

Concrete stores are exact finite maps updated destructively (an allocation
must be fresh, a rebind overwrites).  Abstract stores map addresses to
non-empty sets of storables; absent addresses mean bottom, update means
join, and lookup of an absent address yields the empty set.

Address families:

* ``FreshA(n)``        numeric addresses from a max-plus-one allocator
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
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
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


class FrozenMap(Mapping):
    """Immutable hashable map; functional update via set/update/without."""

    __slots__ = ("_d", "_hash")

    def __init__(self, items: Mapping | Iterator | tuple = ()):
        object.__setattr__(self, "_d", dict(items))
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _adopt(cls, d: dict) -> "FrozenMap":
        """Wrap a fresh dict that no one else holds, without copying it."""
        m = cls.__new__(cls)
        object.__setattr__(m, "_d", d)
        object.__setattr__(m, "_hash", None)
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

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(frozenset(self._d.items())))
        return self._hash

    def __eq__(self, other) -> bool:
        if isinstance(other, FrozenMap):
            return self._d == other._d
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{k!r}: {self._d[k]!r}" for k in sorted(self._d, key=repr)
        )
        return "{" + inner + "}"

    def set(self, key, value) -> "FrozenMap":
        d = dict(self._d)
        d[key] = value
        return FrozenMap._adopt(d)

    def update(self, items) -> "FrozenMap":
        d = dict(self._d)
        d.update(items)
        return FrozenMap._adopt(d)

    def without(self, keys) -> "FrozenMap":
        drop = set(keys)
        return FrozenMap._adopt({k: v for k, v in self._d.items() if k not in drop})

    def restrict(self, keys) -> "FrozenMap":
        keep = set(keys)
        return FrozenMap._adopt({k: v for k, v in self._d.items() if k in keep})


EMPTY_MAP = FrozenMap()

# Environments map variable names to addresses (or, in the storeless
# machine, directly to closures).
Env = FrozenMap


# ---------------------------------------------------------------------------
# Times
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Time:
    pass


@dataclass(frozen=True)
class Tick(Time):
    n: int

    def __repr__(self) -> str:
        return f"t{self.n}"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Addr:
    pass


@dataclass(frozen=True)
class FreshA(Addr):
    n: int

    def __repr__(self) -> str:
        return f"@{self.n}"


@dataclass(frozen=True)
class BindA(Addr):
    var: str
    time: Time

    def __repr__(self) -> str:
        return f"bind:{self.var}@{self.time!r}"


@dataclass(frozen=True)
class KontA(Addr):
    site: int
    time: Time
    tag: str = TAG_KONT

    def __repr__(self) -> str:
        return f"{self.tag}:{self.site}@{self.time!r}"


@dataclass(frozen=True)
class UpdateA(Addr):
    var: str
    time: Time

    def __repr__(self) -> str:
        return f"upd:{self.var}@{self.time!r}"


@dataclass(frozen=True)
class MonoBindA(Addr):
    var: str

    def __repr__(self) -> str:
        return f"bind:{self.var}"


@dataclass(frozen=True)
class MonoKontA(Addr):
    site: int
    tag: str = TAG_KONT

    def __repr__(self) -> str:
        return f"{self.tag}:{self.site}"


@dataclass(frozen=True)
class MonoUpdateA(Addr):
    var: str

    def __repr__(self) -> str:
        return f"upd:{self.var}"


# ---------------------------------------------------------------------------
# Concrete stores
# ---------------------------------------------------------------------------


def fresh_addr(store: FrozenMap) -> FreshA:
    """Max-plus-one allocation over the numeric address family."""
    top = -1
    for a in store:
        if isinstance(a, FreshA) and a.n > top:
            top = a.n
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
    """Join a set of storables into one address."""
    vals = frozenset(values)
    if not vals:
        raise StoreError("refusing to store an empty set (absent means bottom)")
    merged = astore_get(store, addr) | vals
    return store.set(addr, merged)


def astore_join(a: FrozenMap, b: FrozenMap) -> FrozenMap:
    """Pointwise union; the least upper bound of two abstract stores."""
    if len(a) < len(b):
        a, b = b, a
    d = dict(a)
    for addr, vals in b.items():
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
    """Canonical deterministic ordering key for fan-outs and rendering.

    Every domain object has a repr built only from its fields, so the repr
    string is stable across processes regardless of hash randomization.
    """
    return repr(x)


# ---------------------------------------------------------------------------
# Store semantics: how a concrete and an abstract run read the same rules
# ---------------------------------------------------------------------------


class ConcreteStore:
    """Exact stores.  A fetch yields the one storable of the expected kind
    or stops the machine; allocation must be fresh; update overwrites; each
    tick must strictly advance time."""

    def fetch(self, store: FrozenMap, addr: Addr, kind, what: str) -> tuple:
        """``what`` names the address's role in the stuck message."""
        v = store.get(addr)
        if v is None or not isinstance(v, kind):
            raise MachineStuck(f"dangling {what} {addr!r}")
        return (v,)

    def alloc(self, store: FrozenMap, addr: Addr, value) -> FrozenMap:
        if addr in store:
            raise InvariantError(f"allocation must be fresh: {addr!r} is taken")
        return store.set(addr, value)

    def update(self, store: FrozenMap, addr: Addr, value) -> FrozenMap:
        return store.set(addr, value)

    def holds(self, store: FrozenMap, addr: Addr, kind) -> bool:
        """Whether the storable at ``addr`` is of the kind."""
        return isinstance(store.get(addr), kind)

    def tick(self, policy, state, kont) -> Time:
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
    join; ticks are unchecked; a state no rule matches has no successors."""

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
