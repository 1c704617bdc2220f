"""Maps, times, addresses, and the abstract-store lattice.

The module-level checks (abstract writes and joins that add nothing return
the map they were given; then concrete stores written in place: a
differential test of every version against a plain dict, views that
outlive reads of other versions, a dropped trace that refcounting frees,
a long chain rerooted, and maps no family owns left unchanged) also run
without pytest, on any supported Python:

    PYTHONPATH=src python tests/test_store.py --check

It exits 1 and names the failed checks if any fails.
"""

from __future__ import annotations

import gc
import random
import sys
import traceback

try:
    import pytest
except ImportError:  # ``--check`` runs the module-level checks without it
    pytest = None

from aam.machines import run_trace
from aam.store import (
    ABSTRACT_STORE,
    CONCRETE_STORE,
    BindA,
    Contour,
    EMPTY_ASTORE,
    EMPTY_MAP,
    FreshA,
    FrozenMap,
    KontA,
    MonoBindA,
    MonoKontA,
    StoreError,
    Tick,
    UpdateA,
    _Root,
    astore_add,
    astore_get,
    astore_join,
    astore_leq,
    fresh_addr,
    sort_key,
    time_strictly_precedes,
)
from aam.syntax import parse
from oracles import copying_astore_add, copying_astore_join


class TestFrozenMap:
    def test_empty(self):
        assert len(EMPTY_MAP) == 0
        assert EMPTY_MAP.get("x") is None
        assert dict(EMPTY_MAP) == {}

    def test_set_is_persistent(self):
        m1 = FrozenMap({"a": 1})
        m2 = m1.set("b", 2)
        assert dict(m1) == {"a": 1}
        assert dict(m2) == {"a": 1, "b": 2}
        assert m1.set("a", 9)["a"] == 9
        assert m1["a"] == 1

    def test_update_without_restrict(self):
        m = FrozenMap({"a": 1, "b": 2, "c": 3})
        assert dict(m.update({"b": 9, "d": 4})) == {"a": 1, "b": 9, "c": 3, "d": 4}
        for keys in (["a", "c"], {"a", "c"}, frozenset({"a", "c"})):
            assert dict(m.without(keys)) == {"b": 2}
        for keys in (["a", "zzz"], {"a", "zzz"}, frozenset({"a", "zzz"})):
            assert dict(m.restrict(keys)) == {"a": 1}

    def test_equality_ignores_insertion_order(self):
        m1 = FrozenMap({"a": 1, "b": 2})
        m2 = FrozenMap({"b": 2, "a": 1})
        assert m1 == m2
        assert hash(m1) == hash(m2)
        assert len({m1, m2}) == 1

    def test_repr_is_sorted(self):
        m1 = FrozenMap({"b": 2, "a": 1})
        m2 = FrozenMap({"a": 1, "b": 2})
        assert repr(m1) == repr(m2)
        assert repr(m1).index("'a'") < repr(m1).index("'b'")

    def test_repr_lists_each_set_of_storables_sorted(self):
        """An abstract store's sets print in ``repr`` order, whatever order
        the hash seed and the set's history give them."""
        members = [f"v{i}" for i in range(40)]
        m1 = FrozenMap({"a": frozenset(members), "b": frozenset()})
        m2 = FrozenMap({"b": frozenset(), "a": frozenset(reversed(members))})
        listed = ", ".join(sorted(map(repr, members)))
        assert repr(m1) == repr(m2) == f"{{'a': frozenset({{{listed}}}), 'b': frozenset()}}"

    def test_repr_is_cached(self):
        m = FrozenMap({"b": 2, "a": 1})
        assert repr(m) is repr(m)

    def test_a_map_made_from_a_rendered_map_renders_its_own_contents(self):
        m = FrozenMap({"a": 1, "b": 2})
        assert repr(m) == "{'a': 1, 'b': 2}"
        made = {
            "set": (m.set("c", 3), "{'a': 1, 'b': 2, 'c': 3}"),
            "update": (m.update({"a": 9}), "{'a': 9, 'b': 2}"),
            "without": (m.without(["a"]), "{'b': 2}"),
            "restrict": (m.restrict(["b"]), "{'b': 2}"),
            "astore_join": (astore_join(m, FrozenMap({"d": 4})), "{'a': 1, 'b': 2, 'd': 4}"),
            "FrozenMap": (FrozenMap({**m, "e": 5}), "{'a': 1, 'b': 2, 'e': 5}"),
        }
        for how, (child, want) in made.items():
            assert repr(child) == want, how
        assert repr(m) == "{'a': 1, 'b': 2}"

    def test_usable_as_mapping(self):
        m = FrozenMap({"a": 1})
        assert "a" in m and "b" not in m
        assert list(m.items()) == [("a", 1)]

    def test_views_match_a_dict_and_leave_the_map_alone(self):
        pairs = [(FreshA(2), "b"), (BindA("x", Tick(1)), "a"), (FreshA(0), "c")]
        m, d = FrozenMap(pairs), dict(pairs)
        h, r = hash(m), repr(m)
        assert m.items() == d.items() and list(m.items()) == list(d.items())
        assert m.keys() == d.keys() and list(m.keys()) == list(d.keys())
        assert list(m.values()) == list(d.values())
        assert (FreshA(0), "c") in m.items() and (FreshA(0), "z") not in m.items()
        assert not hasattr(m.items(), "__setitem__") and not hasattr(m.keys(), "add")
        assert hash(m) == h and repr(m) == r and m == FrozenMap(d)
        # A concrete store is a version of a family that shares one dict: its
        # views are snapshots, equal to the dict's, that later writes and
        # reads of other versions leave alone.
        old = EMPTY_MAP
        for k, v in pairs:
            old = CONCRETE_STORE.update(old, k, v)
        new = CONCRETE_STORE.update(old, BindA("y", Tick(2)), "d")
        items, keys, values = old.items(), old.keys(), list(old.values())
        assert new.items() == {**d, BindA("y", Tick(2)): "d"}.items() and type(new) is _Root
        assert items == d.items() and keys == d.keys() and sorted(values) == sorted(d.values())
        assert list(keys) == [k for k, _ in items] and list(old) == list(old.keys())
        assert keys & {FreshA(0), FreshA(1)} == {FreshA(0)}
        assert (FreshA(0), "c") in old.items() and (FreshA(0), "z") not in new.items()
        assert not hasattr(old.items(), "__setitem__") and not hasattr(new.keys(), "add")
        assert hash(old) == hash(m) and repr(old) == r and old == m and m == old and old != new


class TestTimes:
    def test_tick_order(self):
        assert time_strictly_precedes(Tick(0), Tick(1))
        assert time_strictly_precedes(Tick(3), Tick(7))
        assert not time_strictly_precedes(Tick(3), Tick(3))
        assert not time_strictly_precedes(Tick(4), Tick(3))

    def test_contour_order_is_suffix_extension(self):
        assert time_strictly_precedes(Contour(()), Contour((5,)))
        assert time_strictly_precedes(Contour((5,)), Contour((3, 5)))
        assert time_strictly_precedes(Contour((5,)), Contour((1, 2, 5)))
        assert not time_strictly_precedes(Contour((5,)), Contour((3, 7)))
        assert not time_strictly_precedes(Contour((5,)), Contour((5,)))
        assert not time_strictly_precedes(Contour((3, 5)), Contour((5,)))

    def test_cross_kind_never_precedes(self):
        assert not time_strictly_precedes(Tick(0), Contour((1,)))
        assert not time_strictly_precedes(Contour(()), Tick(1))


class TestAddresses:
    def test_fresh_addr_max_plus_one(self):
        assert fresh_addr(EMPTY_MAP) == FreshA(0)
        store = FrozenMap({FreshA(0): "a", FreshA(4): "b"})
        assert fresh_addr(store) == FreshA(5)

    def test_fresh_addr_ignores_other_families(self):
        store = FrozenMap({BindA("x", Tick(9)): "a", MonoBindA("y"): "b"})
        assert fresh_addr(store) == FreshA(0)

    def test_family_distinctness(self):
        t = Contour((1,))
        addrs = {
            FreshA(1),
            BindA("x", t),
            KontA(1, t),
            KontA(1, t, "thunk"),
            UpdateA("x", t),
            MonoBindA("x"),
            MonoKontA(1),
            MonoKontA(1, "thunk"),
        }
        assert len(addrs) == 8

    def test_sort_key_distinguishes(self):
        items = [MonoBindA("x"), MonoKontA(3), FreshA(0), BindA("x", Contour((1,)))]
        keys = [sort_key(a) for a in items]
        assert len(set(keys)) == len(items)
        assert sorted(items, key=sort_key) == sorted(items, key=sort_key)


class TestAbstractStore:
    def test_absent_means_bottom(self):
        assert astore_get(EMPTY_ASTORE, MonoBindA("x")) == frozenset()

    def test_add_joins(self):
        a = MonoBindA("x")
        s1 = astore_add(EMPTY_ASTORE, a, ["u"])
        s2 = astore_add(s1, a, ["v"])
        assert astore_get(s2, a) == frozenset({"u", "v"})
        assert astore_get(s1, a) == frozenset({"u"})

    def test_add_rejects_empty(self):
        with pytest.raises(StoreError):
            astore_add(EMPTY_ASTORE, MonoBindA("x"), [])

    def test_join_pointwise(self):
        x, y = MonoBindA("x"), MonoBindA("y")
        s1 = FrozenMap({x: frozenset({"a"})})
        s2 = FrozenMap({x: frozenset({"b"}), y: frozenset({"c"})})
        j = astore_join(s1, s2)
        assert astore_get(j, x) == frozenset({"a", "b"})
        assert astore_get(j, y) == frozenset({"c"})

    def test_leq(self):
        x = MonoBindA("x")
        lo = FrozenMap({x: frozenset({"a"})})
        hi = FrozenMap({x: frozenset({"a", "b"})})
        assert astore_leq(EMPTY_ASTORE, lo)
        assert astore_leq(lo, hi)
        assert not astore_leq(hi, lo)
        assert not astore_leq(lo, EMPTY_ASTORE)


def _random_astore(rng: random.Random) -> FrozenMap:
    addrs = [MonoBindA(v) for v in "xyz"] + [MonoKontA(i) for i in range(3)]
    vals = list("abcde")
    d = {}
    for a in addrs:
        if rng.random() < 0.6:
            picked = frozenset(rng.sample(vals, rng.randint(1, 3)))
            d[a] = picked
    return FrozenMap(d)


class TestLatticeLaws:
    """Seeded random checks of the join-semilattice equations; the larger
    randomized battery lives in the acceptance suite."""

    def test_laws(self):
        rng = random.Random(1234)
        for _ in range(200):
            a, b, c = (_random_astore(rng) for _ in range(3))
            assert astore_join(a, b) == astore_join(b, a)
            assert astore_join(a, astore_join(b, c)) == astore_join(astore_join(a, b), c)
            assert astore_join(a, a) == a
            j = astore_join(a, b)
            assert astore_leq(a, j) and astore_leq(b, j)
            assert astore_join(a, EMPTY_ASTORE) == a

    def test_leq_is_a_partial_order(self):
        rng = random.Random(4321)
        stores = [_random_astore(rng) for _ in range(30)]
        for a in stores:
            assert astore_leq(a, a)
        for a in stores:
            for b in stores:
                if astore_leq(a, b) and astore_leq(b, a):
                    assert a == b
                for c in stores:
                    if astore_leq(a, b) and astore_leq(b, c):
                        assert astore_leq(a, c)

    def test_join_is_least_upper_bound(self):
        rng = random.Random(99)
        for _ in range(100):
            a, b = _random_astore(rng), _random_astore(rng)
            j = astore_join(a, b)
            ub = astore_join(j, _random_astore(rng))
            assert astore_leq(a, ub) and astore_leq(b, ub)
            assert astore_leq(j, ub)


# ---------------------------------------------------------------------------
# Abstract writes and joins that add nothing return the map they were given
# ---------------------------------------------------------------------------


def _raises_store_error(f, *args) -> bool:
    try:
        f(*args)
    except StoreError:
        return True
    return False


def test_astore_add_returns_its_store_when_every_storable_is_present():
    x, y = MonoBindA("x"), MonoBindA("y")
    small = FrozenMap({x: frozenset({"a", "b"})})
    # So does a store of more than 64 entries, the size from which maps
    # were once hash tries.
    large = small.update({MonoKontA(i): frozenset({i}) for i in range(128)})
    for store in (small, large):
        hash(store)  # a later write derives its hash from this one
        for vals in (["a"], ["b", "a"], ("a", "a"), frozenset({"b"})):
            assert astore_add(store, x, vals) is store
        assert ABSTRACT_STORE.alloc(store, x, "a") is store
        assert ABSTRACT_STORE.update(store, x, "b") is store
        for addr, vals in ((x, ["c"]), (x, ["a", "c"]), (y, ["a"])):
            got = astore_add(store, addr, vals)
            want = copying_astore_add(store, addr, vals)
            assert got is not store and got == want and hash(got) == hash(want)
            assert astore_get(store, x) == frozenset({"a", "b"}) and y not in store
        grown = ABSTRACT_STORE.alloc(store, y, "c")
        assert grown is not store and grown == copying_astore_add(store, y, ["c"])
        assert _raises_store_error(astore_add, store, x, [])
        assert _raises_store_error(astore_add, store, y, ())
    assert _raises_store_error(astore_add, EMPTY_ASTORE, x, [])


def test_astore_join_returns_the_larger_operand_when_nothing_is_added():
    x, y, z = MonoBindA("x"), MonoBindA("y"), MonoBindA("z")
    big = FrozenMap({x: frozenset({"a", "b"}), y: frozenset({"c"})})
    contained = (
        EMPTY_ASTORE,
        FrozenMap({x: frozenset({"a"})}),
        FrozenMap({y: frozenset({"c"})}),
        FrozenMap({x: frozenset({"a", "b"})}),
    )
    assert astore_join(big, big) is big
    for other in contained:
        assert astore_join(big, other) is big
        assert astore_join(other, big) is big
    # An equal map that is another object adds nothing: the result is the
    # first operand, the larger one when two are of one size.
    twin = FrozenMap(dict(big.items()))
    assert astore_join(big, twin) is big and astore_join(twin, big) is twin
    for other in (
        FrozenMap({z: frozenset({"a"})}),
        FrozenMap({x: frozenset({"d"})}),
        FrozenMap({x: frozenset({"a"}), y: frozenset({"c", "d"})}),
        FrozenMap({x: frozenset({"a"}), y: frozenset({"c"}), z: frozenset({"e"})}),
    ):
        for a, b in ((big, other), (other, big)):
            j = astore_join(a, b)
            want = copying_astore_join(a, b)
            assert j is not a and j is not b
            assert j == want and hash(j) == hash(want)
    assert dict(big.items()) == {x: frozenset({"a", "b"}), y: frozenset({"c"})}


def _below(rng: random.Random, store: FrozenMap) -> FrozenMap:
    """A random store the given one contains."""
    d = {}
    for addr, vals in store.items():
        if rng.random() < 0.6:
            d[addr] = frozenset(rng.sample(sorted(vals), rng.randint(1, len(vals))))
    return FrozenMap(d)


def test_astore_join_matches_acopying_astore_join():
    """Seeded sweep: the join equals the copying reference, hashes alike,
    and is one of its operands exactly when that operand, the larger (the
    first when both are of one size), already held everything."""
    rng = random.Random(2013)
    shared = 0
    for _ in range(600):
        a = _random_astore(rng)
        pick = rng.random()
        if pick < 0.3:
            b = _random_astore(rng)
        elif pick < 0.7:
            b = _below(rng, a)
        elif pick < 0.85:
            b = a
        else:
            b = FrozenMap(dict(a.items()))
        if rng.random() < 0.5:
            a, b = b, a
        want = copying_astore_join(a, b)
        j = astore_join(a, b)
        assert j == want and hash(j) == hash(want)
        larger = b if len(a) < len(b) else a
        if want == larger:
            assert j is larger
            shared += 1
        else:
            assert j is not a and j is not b
    assert 200 < shared < 600, shared


# ---------------------------------------------------------------------------
# Concrete stores: versions of one dict, rerooted when an old one is read
# ---------------------------------------------------------------------------


class Hashed:
    """A key with a chosen hash."""

    __slots__ = ("name", "h")

    def __init__(self, name: str, h: int):
        self.name, self.h = name, h

    def __hash__(self) -> int:
        return self.h

    def __eq__(self, other) -> bool:
        return isinstance(other, Hashed) and other.name == self.name

    def __repr__(self) -> str:
        return self.name


# Keys of every hash shape, each with its own repr: small and large
# negative hashes (-1 and -2 hash alike), string hashes that change with
# the hash seed, keys that share one hash, and the addresses a concrete
# store holds.
KEYS = (
    [-i for i in range(1, 40)]
    + [-(10**15) - i for i in range(10)]
    + [f"s{i}" for i in range(30)]
    + [Hashed(f"C{i}", -0x5EED) for i in range(10)]
    + [FreshA(i) for i in range(60)]
)
_MISSING = object()


def _top_of(d: dict) -> int:
    return max((k.n for k in d if isinstance(k, FreshA)), default=-1)


def check_versions(picked: list, rng: random.Random) -> None:
    """Every read of each ``(map, dict)`` pair in ``picked`` agrees with
    the dict.  Reads of different maps interleave, so when two of them are
    versions of one family each read reroots it."""
    probes = rng.sample(KEYS, 8) + [k for _, d in picked for k in rng.sample(list(d), min(4, len(d)))]
    for k in probes:
        for m, d in picked:
            assert (k in m) == (k in d)
            assert m.get(k, _MISSING) == d.get(k, _MISSING)
            if k in d:
                assert m[k] == d[k]
            else:
                assert _raises_key_error(m, k)
    for m, d in picked:
        assert len(m) == len(d)
    for m, d in picked:
        assert m.items() == d.items() and m.keys() == d.keys()
    for m, d in picked:
        assert sorted(map(repr, m)) == sorted(map(repr, d))
        assert sorted(map(repr, m.values())) == sorted(map(repr, d.values()))
    for (a, da), (b, db) in zip(picked, picked[1:]):
        assert (a == b) == (da == db) and (b == a) == (da == db)
        assert a == FrozenMap(da) and FrozenMap(db) == b
    for m, d in picked:
        want = "{" + ", ".join(f"{k!r}: {d[k]!r}" for k in sorted(d, key=repr)) + "}"
        assert repr(m) == want
        if rng.random() < 0.5:  # a later ``set`` then derives its hash
            assert hash(m) == hash(FrozenMap(d))
        if m._top is not None:
            assert m._top == _top_of(d)


def _raises_key_error(m: FrozenMap, k) -> bool:
    try:
        m[k]
    except KeyError:
        return True
    return False


def test_every_version_reads_like_its_dict_under_random_writes():
    """Seeded runs of writes on randomly chosen versions, old ones
    included: mostly concrete writes in place (``ConcreteStore.update``),
    and the copying ``set``/``update``/``without``/``restrict``.  After
    every write, the reads of a few random versions interleave, each
    checked against a dict of what that version held when it was made."""
    concrete_on_old = 0
    for seed in range(3):
        rng = random.Random(seed)
        versions = [(EMPTY_MAP, {}), (FrozenMap({KEYS[0]: 0}), {KEYS[0]: 0})]
        for _ in range(500):
            m, d = rng.choice(versions[-3:] if rng.random() < 0.6 else versions)
            op = rng.random()
            if op < 0.75:
                k, v = rng.choice(KEYS), rng.randrange(4)
                if rng.random() < 0.2:
                    fresh_addr(m)  # learn the high-water mark, carried from here on
                concrete_on_old += type(m) is not _Root
                m2, d2 = CONCRETE_STORE.update(m, k, v), {**d, k: v}
            elif op < 0.85:
                k, v = rng.choice(KEYS), rng.randrange(4)
                m2, d2 = m.set(k, v), {**d, k: v}
            elif op < 0.9:
                more = {rng.choice(KEYS): rng.randrange(4) for _ in range(rng.randrange(1, 10))}
                m2, d2 = m.update(more), {**d, **more}
            elif op < 0.95:
                drop = rng.sample(list(d), len(d) // rng.randint(2, 8)) + rng.sample(KEYS, 3)
                m2 = m.without(drop)
                d2 = {k: v for k, v in d.items() if k not in drop}
            else:
                keep = rng.sample(list(d), len(d) * rng.randint(5, 9) // 10) + rng.sample(KEYS, 3)
                m2 = m.restrict(keep)
                d2 = {k: v for k, v in d.items() if k in keep}
            versions.append((m2, d2))
            check_versions([(m2, d2)] + rng.sample(versions, 2), rng)
        check_versions(rng.sample(versions, 40), rng)
    assert concrete_on_old > 100, concrete_on_old


def overwritten(before: FrozenMap, after: FrozenMap) -> bool:
    """Whether ``after`` rebinds a key ``before`` holds (the check
    ``tests/test_fresh_alloc.py`` makes on consecutive stores)."""
    return any(a in before and before[a] is not v for a, v in after.items())


def test_a_view_of_one_version_outlives_reads_of_another():
    """Iterating one version's views while reading another version of its
    family, so that every entry reroots the family twice: each side sees
    its own entries, each once."""
    old = EMPTY_MAP
    for i in range(20):
        old = CONCRETE_STORE.update(old, FreshA(i), f"v{i}")
    new = old
    for i in range(10, 30):
        new = CONCRETE_STORE.update(new, FreshA(i), f"w{i}")
    assert overwritten(old, new) and overwritten(new, old) and not overwritten(new, new)
    want_old = {FreshA(i): f"v{i}" for i in range(20)}
    want_new = {**want_old, **{FreshA(i): f"w{i}" for i in range(10, 30)}}
    for this, other, want in ((old, new, want_old), (new, old, want_new)):
        items, keys, values = [], [], []
        for a, v in this.items():
            other.get(a)
            items.append((a, v))
            assert this[a] == v
        for a in this:
            other.get(a)
            keys.append(a)
            assert a in this
        for a in this.keys():
            keys.append(a)
            assert other.get(a) != this[a] or a.n < 10
        for v in this.values():
            other.get(FreshA(25))
            values.append(v)
        assert dict(items) == want and len(items) == len(want)
        assert set(keys) == set(want) and len(keys) == 2 * len(want)
        assert sorted(values) == sorted(want.values())


OMEGA = parse("((lambda (x) (x x)) (lambda (x) (x x)))")


def _unreachable_maps() -> int:
    """Collect with every unreachable object kept in ``gc.garbage``, and
    count the ``FrozenMap`` objects among them."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return sum(isinstance(x, FrozenMap) for x in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_a_dropped_trace_is_freed_by_refcounting():
    """Undo records point from old versions towards the root, never back,
    so a dropped trace leaves no cycle of maps for the collector."""
    gc.collect()
    gc.disable()
    try:
        cycle = [FrozenMap()]
        cycle.append(FrozenMap({"self": cycle}))
        del cycle
        assert _unreachable_maps() == 2  # the check sees maps in a cycle
        gc.collect()  # and the cleared ``gc.garbage`` left them for this one
        trace = run_trace("ceskstar", OMEGA, 2000)
        stores = [s.store for s in trace.states]
        assert len(stores[0]) == 0 and len(stores[-1]) == 801 and stores[1000][FreshA(0)]
        del trace, stores
        assert _unreachable_maps() == 0
    finally:
        gc.enable()


def test_a_long_chain_reroots_without_recursion():
    versions = [EMPTY_MAP]
    for i in range(100_000):
        versions.append(CONCRETE_STORE.update(versions[-1], FreshA(i % 1000), i))
    first, middle, last = versions[1], versions[50_000], versions[-1]
    assert dict(first.items()) == {FreshA(0): 0}
    assert last[FreshA(999)] == 99_999 and len(last) == 1000
    assert middle[FreshA(0)] == 50_000 - 1000 and middle.get(FreshA(1)) == 49_001
    assert first == FrozenMap({FreshA(0): 0}) and len(versions[0]) == 0
    assert versions[-2] != last and versions[-2] == versions[-2]


def test_a_map_no_family_owns_is_copied_on_its_first_concrete_write():
    """``EMPTY_MAP``, a map built directly, and a map made by a copying
    write or by ``restrict`` keep their entries after concrete writes on
    them, and compare equal to their earlier copies."""
    built = FrozenMap({FreshA(0): "a", BindA("x", Tick(1)): "b"})
    for m in (EMPTY_MAP, built, built.set(FreshA(3), "c"), built.restrict([FreshA(0)])):
        earlier = FrozenMap(dict(m.items()))
        one = CONCRETE_STORE.update(m, FreshA(0), "one")
        two = CONCRETE_STORE.update(m, FreshA(1), "two")
        three = CONCRETE_STORE.update(one, FreshA(2), "three")
        assert type(m) is FrozenMap and m == earlier and earlier == m
        assert hash(m) == hash(earlier) and repr(m) == repr(earlier) and len(m) == len(earlier)
        assert one == earlier.set(FreshA(0), "one") and two == earlier.set(FreshA(1), "two")
        assert three == earlier.set(FreshA(0), "one").set(FreshA(2), "three")
    assert len(EMPTY_MAP) == 0 and dict(built.items()) == {FreshA(0): "a", BindA("x", Tick(1)): "b"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--check"]:
        raise SystemExit(__doc__)
    failed = []
    for name, test in list(globals().items()):
        if name.startswith("test_") and callable(test):
            try:
                test()
            except Exception:
                failed.append(name)
                traceback.print_exc()
    if failed:
        print(f"{len(failed)} checks failed: {', '.join(failed)}", file=sys.stderr)
        raise SystemExit(1)
    print("store: every check passed")
