"""Maps, times, addresses, and the abstract-store lattice.

The module-level checks (abstract writes and joins that add nothing return
the map they were given; then the hash trie: a differential test against a
plain dict, one shape per key set, and structure shared along a trace)
also run without pytest, on any supported Python:

    PYTHONPATH=src python tests/test_store.py --check

It exits 1 and names the failed checks if any fails.
"""

from __future__ import annotations

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
    TRIE_THRESHOLD,
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
    astore_add,
    astore_get,
    astore_join,
    astore_leq,
    fresh_addr,
    sort_key,
    store_get,
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
        # Above the threshold the map is a trie, which iterates in its own
        # order: the views agree with the dict as sets and with each other
        # in order.
        pairs += [(BindA("y", Tick(i)), i) for i in range(3 * TRIE_THRESHOLD)]
        m, d = FrozenMap(pairs), dict(pairs)
        h, r = hash(m), repr(m)
        assert m.items() == d.items() and d.items() == m.items() and len(m.items()) == len(d)
        assert m.keys() == d.keys() and d.keys() == m.keys() and len(m.keys()) == len(d)
        assert list(m.keys()) == [k for k, _ in m.items()] == list(m)
        assert list(m.values()) == [v for _, v in m.items()]
        assert sorted(map(repr, m.values())) == sorted(map(repr, d.values()))
        assert m.keys() & {FreshA(0), FreshA(1)} == {FreshA(0)}
        assert (FreshA(0), "c") in m.items() and (FreshA(0), "z") not in m.items()
        assert not hasattr(m.items(), "__setitem__") and not hasattr(m.keys(), "add")
        assert hash(m) == h and repr(m) == r and m == FrozenMap(d)


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

    def test_store_get(self):
        store = FrozenMap({FreshA(0): "v"})
        assert store_get(store, FreshA(0)) == "v"
        with pytest.raises(StoreError):
            store_get(store, FreshA(1))

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
    # Above the threshold the store is a trie; the same holds there.
    large = small.update({MonoKontA(i): frozenset({i}) for i in range(2 * TRIE_THRESHOLD)})
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
# Maps above the threshold: the hash trie
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
# the hash seed, more keys of one hash than a leaf holds, more distinct
# hashes than a leaf holds that agree on their low 56 bits (so the trie is
# twelve branches deep there), and the addresses a concrete store holds.
KEYS = (
    [-i for i in range(1, 120)]
    + [-(10**15) - i for i in range(40)]
    + [f"s{i}" for i in range(60)]
    + [Hashed(f"C{i}", -0x5EED) for i in range(TRIE_THRESHOLD + 20)]
    + [Hashed(f"D{i}", (i - 100) << 56) for i in range(TRIE_THRESHOLD + 72)]
    + [FreshA(i) for i in range(120)]
)
_MISSING = object()


def _top_of(d: dict) -> int:
    return max((k.n for k in d if isinstance(k, FreshA)), default=-1)


def check_against_dict(m: FrozenMap, d: dict, rng: random.Random) -> None:
    """Every read of ``m`` agrees with the dict ``d``."""
    assert len(m) == len(d)
    for k in d:
        assert k in m and m[k] == d[k] and m.get(k) == d[k]
    for k in rng.sample(KEYS, 20):
        assert (k in m) == (k in d)
        assert m.get(k, _MISSING) == d.get(k, _MISSING)
    assert sorted(map(repr, m)) == sorted(map(repr, d))
    assert m.items() == d.items() and m.keys() == d.keys()
    assert list(m.keys()) == [k for k, _ in m.items()] == list(m)
    assert list(m.values()) == [v for _, v in m.items()]
    rebuilt = FrozenMap(d)
    assert m == rebuilt and rebuilt == m
    if d:
        k = rng.choice(list(d))
        assert m != FrozenMap({**d, k: ("other", d[k])})
    want = "{" + ", ".join(f"{k!r}: {d[k]!r}" for k in sorted(d, key=repr)) + "}"
    assert repr(m) == repr(rebuilt) == want
    if rng.random() < 0.5:  # the next set then derives its hash
        assert hash(m) == hash(rebuilt)
    if m._top is not None:
        assert m._top == _top_of(d)


def test_the_trie_reads_like_a_dict_under_random_updates():
    """Seeded random ``set``/``update``/``without``/``restrict`` runs that
    cross the threshold both ways, checked against a plain dict after
    every operation; each earlier map must still read as it did."""
    crossings = 0
    for seed in range(3):
        rng = random.Random(seed)
        m, d = EMPTY_MAP, {}
        history = []
        for i in range(600):
            # Phases of 150 operations: mostly growing, then mostly shrinking.
            op = rng.random() * (0.8 if i // 150 % 2 == 0 else 1.6)
            if op < 0.7:
                k, v = rng.choice(KEYS), rng.randrange(4)
                if rng.random() < 0.5:
                    m2 = m.set(k, v)
                else:
                    if rng.random() < 0.3:
                        fresh_addr(m)  # learn the high-water mark, carried from here on
                    m2 = CONCRETE_STORE.update(m, k, v)
                d2 = {**d, k: v}
            elif op < 0.8:
                more = {rng.choice(KEYS): rng.randrange(4) for _ in range(rng.randrange(1, 30))}
                m2, d2 = m.update(more), {**d, **more}
            elif op < 1.2:
                drop = rng.sample(list(d), len(d) // rng.randint(2, 8)) + rng.sample(KEYS, 3)
                m2 = m.without(drop)
                d2 = {k: v for k, v in d.items() if k not in drop}
            else:
                keep = rng.sample(list(d), len(d) * rng.randint(5, 9) // 10) + rng.sample(KEYS, 3)
                m2 = m.restrict(keep)
                d2 = {k: v for k, v in d.items() if k in keep}
            check_against_dict(m2, d2, rng)
            crossings += (len(d) > TRIE_THRESHOLD) != (len(d2) > TRIE_THRESHOLD)
            history.append((m, d))
            m, d = m2, d2
        for old, old_d in rng.sample(history, 20):
            check_against_dict(old, old_d, rng)
    assert crossings >= 6, crossings


def test_keys_of_one_hash_written_into_a_trie():
    """A trie with no shared hash, then keys that share one, one by one,
    and a key of them overwritten."""
    rng = random.Random(5)
    d = {FreshA(i): i for i in range(TRIE_THRESHOLD + 1)}
    m = FrozenMap(d)
    for i in range(4):
        k = Hashed(f"C{i}", -0x5EED)
        m, d = m.set(k, i), {**d, k: i}
        check_against_dict(m, d, rng)
    k = Hashed("C0", -0x5EED)
    m, d = m.set(k, "again"), {**d, k: "again"}
    check_against_dict(m, d, rng)


def _shape(m: FrozenMap):
    """The map's node structure: the hashes each leaf holds, the children
    of each branch."""

    def shape(node):
        if type(node) is dict:
            return frozenset(node)
        return tuple(map(shape, node))

    return shape(getattr(m._d, "_root", m._d))


def test_one_key_set_has_one_shape_however_it_was_built():
    rng = random.Random(11)
    d = {k: i % 5 for i, k in enumerate(KEYS)}
    extra = {f"extra{i}": i for i in range(TRIE_THRESHOLD)}
    shuffled = list(d.items())
    rng.shuffle(shuffled)
    by_set = EMPTY_MAP
    for k, v in shuffled:
        by_set = by_set.set(k, v)
    by_update = FrozenMap(shuffled[:TRIE_THRESHOLD + 1])
    for i in range(TRIE_THRESHOLD + 1, len(shuffled), 37):
        by_update = by_update.update(dict(shuffled[i:i + 37]))
    maps = [
        FrozenMap(d),
        FrozenMap(reversed(shuffled)),
        by_set,
        by_update,
        FrozenMap({**d, **extra}).without(extra),
        FrozenMap({**d, **extra}).restrict(d),
        by_set.set(KEYS[0], "changed").set(KEYS[0], d[KEYS[0]]),
    ]
    first = maps[0]
    for m in maps:
        assert _shape(m) == _shape(first)
        assert m == first and hash(m) == hash(first) and repr(m) == repr(first)
        check_against_dict(m, d, rng)  # reads at full depth, and of one hash
    small = first.restrict(KEYS[:TRIE_THRESHOLD])
    assert type(small._d) is dict and small == FrozenMap({k: d[k] for k in KEYS[:TRIE_THRESHOLD]})


OMEGA = parse("((lambda (x) (x x)) (lambda (x) (x x)))")


def _nodes(m: FrozenMap):
    root = getattr(m._d, "_root", m._d)
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if type(node) is tuple:
            stack.extend(node)


def _depth(node) -> int:
    return 0 if type(node) is dict else 1 + max(map(_depth, node))


def test_consecutive_stores_of_a_trace_share_all_but_one_path():
    """Past the threshold, a write makes one new leaf and copies only the
    branches above it; every other node is the parent store's own.  A
    write that splits a leaf makes new leaves holding one more entry than
    the threshold."""
    trace = run_trace("ceskstar", OMEGA, 600)
    stores = [s.store for s in trace.states]
    pairs = [(a, b) for a, b in zip(stores, stores[1:]) if len(a) > TRIE_THRESHOLD]
    assert len(pairs) > 100
    for a, b in pairs:
        old = {id(n) for n in _nodes(a)}
        new = [n for n in _nodes(b) if id(n) not in old]
        assert sum(len(n) for n in new if type(n) is dict) <= TRIE_THRESHOLD + 1
        split = sum(type(n) is tuple for n in _nodes(b)) > sum(type(n) is tuple for n in _nodes(a))
        if not split:
            assert len(new) <= _depth(getattr(b._d, "_root", b._d)) + 1


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
