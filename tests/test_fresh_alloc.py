"""Concrete allocation reads the store's high-water mark.

``fresh_addr`` is max-plus-one over the ``FreshA`` addresses of a store.
A store written by the concrete store semantics carries the largest
number it holds, so allocation does not scan; any other store is scanned
once.  These tests check that every concrete machine still issues exactly
the address a full scan gives (with and without GC, across overwrites),
and, by counting scans rather than timing, that a run scans once however
long it is.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from corpus import (
    UNIVERSE,
    church_mul,
    divergent_corpus,
    extended_corpus,
    security_corpus,
    terminating_corpus,
)
import aam.machines as machines
from aam.extended import inject_extended, step_extended
from aam.gc import collect, collecting_step
from aam.inspection import inject_cm, inject_cm_star, step_cm, step_cm_star
from aam.lazy import VARIANTS, inject_lk, inject_lk_star, step_lk, step_lk_star
from aam.machines import (
    TIME_KEYED_POLICY, LinkedPolicy, inject_ceskt, run_trace, step_ceskt, trace_from,
)
from aam.store import (
    CONCRETE_STORE,
    BindA,
    FreshA,
    FrozenMap,
    Tick,
    _Root,
    fresh_addr,
)

FUEL = 1000
DIVERGENT_FUEL = 60


def reference_fresh(store) -> FreshA:
    """Max-plus-one by a full scan of the store's keys."""
    return FreshA(max((a.n for a in dict(store) if isinstance(a, FreshA)), default=-1) + 1)


def core_runs():
    return [(e, FUEL) for e in terminating_corpus()] + [
        (e, DIVERGENT_FUEL) for e in divergent_corpus()
    ]


def plain_runs():
    """(machine, thunk giving a trace) for every concrete machine that
    allocates ``FreshA``, over the seeded corpora."""
    for e, fuel in core_runs():
        for m in ("cesk", "ceskstar", "ceskt"):
            yield m, lambda m=m, e=e, fuel=fuel: run_trace(m, e, fuel)
        for v in VARIANTS:
            yield f"lk-{v}", lambda v=v, e=e, fuel=fuel: trace_from(
                lambda s: step_lk(s, v), inject_lk(e), fuel)
            yield f"lk*-{v}", lambda v=v, e=e, fuel=fuel: trace_from(
                lambda s: step_lk_star(s, variant=v), inject_lk_star(e), fuel)
    for e in extended_corpus():
        yield "ext", lambda e=e: trace_from(step_extended, inject_extended(e), FUEL)
    for e in security_corpus():
        yield "cm", lambda e=e: trace_from(
            lambda s: step_cm(s, UNIVERSE), inject_cm(e, UNIVERSE), FUEL)
        yield "cm*", lambda e=e: trace_from(
            lambda s: step_cm_star(s, UNIVERSE), inject_cm_star(e, UNIVERSE), FUEL)


def gc_runs():
    """The same machines with every successor collected: each collection
    restricts the store, so the next allocation takes the scan."""
    def collected(step, initial, fuel):
        return trace_from(collecting_step(step), collect(initial), fuel)

    for e, fuel in core_runs():
        yield "ceskt-gc", lambda e=e, fuel=fuel: collected(step_ceskt, inject_ceskt(e), fuel)
        for v in VARIANTS:
            yield f"lk-{v}-gc", lambda v=v, e=e, fuel=fuel: collected(
                lambda s: step_lk(s, v), inject_lk(e), fuel)
        yield "lk*-gc", lambda e=e, fuel=fuel: collected(step_lk_star, inject_lk_star(e), fuel)
    for e in extended_corpus():
        yield "ext-gc", lambda e=e: collected(step_extended, inject_extended(e), FUEL)
    for e in security_corpus():
        yield "cm*-gc", lambda e=e: collected(
            lambda s: step_cm_star(s, UNIVERSE), inject_cm_star(e, UNIVERSE), FUEL)


def overwritten(before, after) -> bool:
    """Whether a step rebound an address the store already held."""
    return any(a in before and before[a] is not v for a, v in after.items())


@pytest.mark.parametrize("runs", [plain_runs, gc_runs], ids=["plain", "gc"])
def test_every_allocation_is_max_plus_one(runs, monkeypatch):
    issued = []

    def checked(store):
        got = fresh_addr(store)
        issued.append((got, reference_fresh(store)))
        return got

    monkeypatch.setattr(machines, "fresh_addr", checked)
    machines_seen, overwrites, reissued = set(), set(), 0
    for machine, run in runs():
        before = len(issued)
        trace = run()
        assert trace.outcome != "stuck", (machine, trace.reason)
        mismatched = [(got, want) for got, want in issued[before:] if got != want]
        assert not mismatched, (machine, mismatched[:3])
        if len(issued) > before:
            machines_seen.add(machine)
        for s0, s1 in zip(trace.states, trace.states[1:]):
            top = s1.store._top
            assert top is None or FreshA(top + 1) == reference_fresh(s1.store), machine
            if overwritten(s0.store, s1.store):
                overwrites.add(machine)
        numbers = [got.n for got, _ in issued[before:]]
        reissued += len(numbers) - len(set(numbers))
    expected = {m for m, _ in runs()}
    assert machines_seen == expected
    # the runs take both overwrite paths: the by-need memo write and set!
    assert any(m.startswith("lk") for m in overwrites), overwrites
    assert any(m.startswith("ext") for m in overwrites), overwrites
    # Without GC a store only grows, so no number comes back; with it,
    # collection drops top addresses and the scan reuses their numbers.
    assert (reissued > 0) == (runs is gc_runs)


def count_scans(monkeypatch) -> dict:
    """Count ``fresh_addr`` calls and the store iterations made inside
    them, through the seam the policies call.  A concrete store written in
    place iterates through ``store._Root``'s snapshot, so both classes
    that define ``__iter__`` are counted."""
    counts = {"calls": 0, "scans": 0}
    inside = []

    def counting(real_iter):
        def counting_iter(self):
            if inside:
                counts["scans"] += 1
            return real_iter(self)
        return counting_iter

    def counted(store):
        counts["calls"] += 1
        inside.append(True)
        try:
            return fresh_addr(store)
        finally:
            inside.pop()

    for cls in (FrozenMap, _Root):
        monkeypatch.setattr(cls, "__iter__", counting(cls.__iter__))
    monkeypatch.setattr(machines, "fresh_addr", counted)
    return counts


def test_a_ceskt_run_scans_its_store_once(monkeypatch):
    counts = count_scans(monkeypatch)
    calls, scans = [], []
    for n in (4, 12):
        counts.update(calls=0, scans=0)
        initial = replace(inject_ceskt(church_mul(n)), store=FrozenMap())
        assert trace_from(step_ceskt, initial, 100_000).outcome == "final"
        calls.append(counts["calls"])
        scans.append(counts["scans"])
    # only the empty store the run starts from is scanned, however many
    # allocations the run makes
    assert calls[1] > 2 * calls[0]
    assert scans == [1, 1]


def test_a_store_without_a_mark_is_scanned(monkeypatch):
    counts = count_scans(monkeypatch)
    built = FrozenMap({FreshA(0): "a", FreshA(4): "b", BindA("x", Tick(9)): "c"})
    assert machines.fresh_addr(built) == FreshA(5)
    assert machines.fresh_addr(built) == FreshA(5)
    assert counts["scans"] == 1  # the mark is kept once computed

    # restrict may drop the top address: the next number comes from a scan
    kept = built.restrict([FreshA(0), BindA("x", Tick(9))])
    assert machines.fresh_addr(kept) == FreshA(1)
    assert counts["scans"] == 2

    # FrozenMap's own update, set and without carry no mark either
    assert machines.fresh_addr(built.update({FreshA(7): "d"})) == FreshA(8)
    assert machines.fresh_addr(built.set(FreshA(9), "d")) == FreshA(10)
    assert machines.fresh_addr(built.without([FreshA(4)])) == FreshA(1)
    assert counts["scans"] == 5


def test_concrete_writes_carry_the_mark(monkeypatch):
    counts = count_scans(monkeypatch)
    s0 = FrozenMap()
    a0 = machines.fresh_addr(s0)
    s1 = CONCRETE_STORE.alloc(s0, a0, "v0")
    s2 = CONCRETE_STORE.alloc(s1, machines.fresh_addr(s1), "v1")
    # an overwrite keeps the keys, so the mark stays
    s3 = CONCRETE_STORE.update(s2, a0, "w0")
    assert machines.fresh_addr(s3) == FreshA(2)
    # a write of another family leaves the mark alone
    s4 = CONCRETE_STORE.alloc(s3, BindA("x", Tick(3)), "b")
    assert machines.fresh_addr(s4) == FreshA(2)
    # a write above the mark raises it
    s5 = CONCRETE_STORE.update(s4, FreshA(6), "far")
    assert machines.fresh_addr(s5) == FreshA(7)
    assert counts["scans"] == 1  # only s0
    assert dict(s5) == {FreshA(0): "w0", FreshA(1): "v1", BindA("x", Tick(3)): "b", FreshA(6): "far"}


def test_time_keyed_stores_hold_no_fresh_addresses(monkeypatch):
    counts = count_scans(monkeypatch)
    policy = LinkedPolicy(TIME_KEYED_POLICY)
    initial = replace(inject_ceskt(church_mul(2), TIME_KEYED_POLICY), store=FrozenMap())
    trace = trace_from(lambda s: step_ceskt(s, policy), initial, FUEL)
    assert trace.outcome == "final"
    assert counts["calls"] == 0
    last = trace.states[-1].store
    assert last and all(isinstance(a, BindA) for a in last)
    assert machines.fresh_addr(last) == FreshA(0)
    assert counts["scans"] == 1
