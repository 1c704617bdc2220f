"""Per-search hash-consing: the store semantics one abstract search reads
its rules with.

A per-state search meets the same few parts over and over: at k = 0,
``explore_0cfa`` on Church mul 3×3 reaches 15,529 states built from 7
environments, 31 continuations and 625 stores.  Over ``ABSTRACT_STORE``
every step builds its parts anew, so the search must hash each successor
whole to tell it has seen it.  ``InterningStore`` instead makes each part
once for the search (Filliâtre & Conchon, *Type-Safe Modular
Hash-Consing*, 2006), looked up by the identities of the parts it is made
from, so equal parts are one object and the search keys a state by its
parts' identities (``analysis.explore_rules``).  Only the parts a step
changes cost anything (Johnson, Labich, Might & Van Horn, *Optimizing
Abstract Abstract Machines*, 2013).  Times and addresses come from the
search's ``machines.KCFAPolicy``, which makes each of them once.

The store holds its tables in itself, and a search makes its own and
drops it when it returns: no module-level object holds a table.  The
module is imported by the first search, so a run that never searches
abstractly does not load it.
"""

from __future__ import annotations

from dataclasses import replace

from .store import (
    _ABSENT,
    _IDS3,
    AbstractStore,
    Addr,
    FrozenMap,
    sort_key,
)


class InterningStore(AbstractStore):
    """The abstract store semantics of one search, hash-consing what its
    rules build (Filliâtre & Conchon, *Type-Safe Modular Hash-Consing*,
    2006): each frame, closure, thunk, handler, environment, marks table,
    set of storables and written store is made once, and equal ones are
    one object.  A search makes one for itself and drops it when it
    returns, so no table outlives the search (``analysis.explore_rules``);
    its ``KCFAPolicy`` makes each time and address once.

    Each part is looked up by the identities of the canonical parts it is
    made from, so a hit hashes no value:

    * ``make(cls, *fields)``       by the class and its fields' identities
    * ``extend(env, name, addr)``  by the map, the name and the address
    * ``alloc``/``update``         by the store, the address and the value,
                                   and on a miss the address's new set by
                                   its old set and the value (``_join``)
    * ``fetch``                    by the set of storables and the kind

    A miss builds the part as ``AbstractStore`` does.  A map or a set,
    which two keys can give, is then made canonical by value;
    ``FrozenMap.set`` keeps the hash of a written map up to date, so that
    costs O(1) unless an equal map is already there.  A key names only
    canonical parts, which the tables hold (the search's policy holds its
    addresses and times, the program its syntax) until the search ends, so
    no identity in a key is reused meanwhile.

    A search whose states are all built from such parts may index them by
    the identities of their parts (``machines.CESKtState.part_ids``); a
    part built outside the hooks would be a second object equal to a
    canonical one.  A class must be made with its defaulted fields always
    given or always left out: the key counts the fields given."""

    def __init__(self):
        self._made: dict = {}  # (class, id of each field) -> object
        self._extended: dict = {}  # (id(env), name, id(addr)) -> environment
        self._written: dict = {}  # (id(store), id(addr), id(value)) -> store
        self._joins: dict = {}  # (id(storables), id(value)) -> storables
        self._sets: dict = {}  # sets of storables, by value
        self._fetched: dict = {}  # (id(storables), kind) -> those of the kind, in order
        self._maps: dict = {}  # environments, stores and marks tables, by value

    def make(self, cls, a, b=_ABSENT, c=_ABSENT, d=_ABSENT, e=_ABSENT):
        key = (cls, id(a), id(b), id(c), id(d), id(e))
        got = self._made.get(key)
        if got is None:
            if b is _ABSENT:
                got = cls(a)
            elif c is _ABSENT:
                got = cls(a, b)
            elif d is _ABSENT:
                got = cls(a, b, c)
            else:
                got = cls(a, b, c, d) if e is _ABSENT else cls(a, b, c, d, e)
            self._made[key] = got
        return got

    def canonical(self, m: FrozenMap) -> FrozenMap:
        """The search's map equal to ``m``."""
        return self._maps.setdefault(m, m)

    def extend(self, env: FrozenMap, name, addr) -> FrozenMap:
        key = (id(env), name, id(addr))
        got = self._extended.get(key)
        if got is None:
            got = self._extended[key] = self.canonical(env.set(name, addr))
        return got

    def merge(self, m: FrozenMap, items) -> FrozenMap:
        return self.canonical(m.update(items))

    def fetch(self, store: FrozenMap, addr: Addr, kind, what: str) -> tuple:
        vals = store._d.get(addr)
        if vals is None:
            return ()
        key = (id(vals), kind)
        got = self._fetched.get(key)
        if got is None:
            got = self._fetched[key] = tuple(
                v for v in sorted(vals, key=sort_key) if isinstance(v, kind))
        return got

    def alloc(self, store: FrozenMap, addr: Addr, value) -> FrozenMap:
        key = _IDS3(id(store), id(addr), id(value))
        got = self._written.get(key)
        if got is None:
            vals = store._d.get(addr)
            joined = self._join(vals, value)
            got = self._written[key] = (
                store if joined is vals else self.canonical(store.set(addr, joined)))
        return got

    def _join(self, vals: frozenset | None, value) -> frozenset:
        """The search's set of ``vals`` (None when the address is unmapped)
        and ``value``: ``vals`` itself when it holds ``value``."""
        key = (id(vals), id(value))
        got = self._joins.get(key)
        if got is None:
            if vals is None:
                got = frozenset((value,))
            else:
                got = vals if value in vals else vals | {value}
            got = self._joins[key] = self._sets.setdefault(got, got)
        return got

    update = alloc

    def state(self, s):
        """``s``, a state built outside the search (an injected one), with
        its environment and store made the search's own."""
        env, store = self.canonical(s.env), self.canonical(s.store)
        if env is s.env and store is s.store:
            return s
        return replace(s, env=env, store=store)

