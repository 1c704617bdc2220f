"""Maps, times, addresses, and the abstract-store lattice."""

from __future__ import annotations

import random

import pytest

from aam.store import (
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
        assert dict(m.without(["a", "c"])) == {"b": 2}
        assert dict(m.restrict(["a", "zzz"])) == {"a": 1}

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
