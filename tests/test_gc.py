"""Garbage collection: liveness, behavior preservation on concrete
machines, and precision improvement on abstract ones."""

from __future__ import annotations

import pytest

from corpus import UNIVERSE, extended_corpus, security_corpus, terminating_corpus
from oracles import reflective_addresses, store_value_term
from test_fresh_alloc import count_scans
from aam.analysis import (
    KCFAPolicy,
    explore,
    explore_states,
    inject_0cfa,
    inject_abstract,
    is_final_0cfa,
    is_final_abstract,
    step_0cfa,
    step_abstract,
)
from aam.extended import inject_extended, step_extended
from aam.gc import (
    collect,
    collecting_step,
    collecting_successors,
    gc_reachable,
    live_exp,
    live_locations,
)
from aam.inspection import inject_cm_star, step_cm_star
from aam.lazy import Delayed, UpdateK, inject_lk_star, step_lk_star
from aam.machines import (
    MACHINES,
    MT,
    TIME_KEYED_POLICY,
    Ar,
    CESKtState,
    Closure,
    inject_ceskt,
    run_trace,
    step_ceskt,
    trace_from,
)
from aam.store import EMPTY_MAP, Contour, FreshA, FrozenMap, MonoBindA, StoreError, astore_get
from aam.syntax import Ref, parse, unparse

GC_FIXTURE = parse(
    "((lambda (f) ((lambda (d) (f (lambda (b) b))) (f (lambda (a) a)))) (lambda (x) x))"
)
ADD = "(lambda (m) (lambda (n) (lambda (f) (lambda (x) ((m f) ((n f) x))))))"
THREE = "(lambda (f) (lambda (x) (f (f (f x)))))"
CHURCH_ADD_3_3 = parse(f"(((({ADD} {THREE}) {THREE}) (lambda (a) a)) (lambda (b) b))")


def reflective_closure(state):
    """Every address in the state (store aside), closed through the store by
    structural reflection.  Anything liveness keeps must already be here."""
    parts = [state.ctrl, state.env, state.kont]
    if hasattr(state, "handler"):
        parts.append(state.handler)
    seen: set = set()
    work = list(reflective_addresses(tuple(parts)))
    while work:
        a = work.pop()
        if a in seen:
            continue
        seen.add(a)
        v = state.store.get(a)
        if v is not None:
            work.extend(reflective_addresses(v))
    return seen


class TestLiveness:
    def test_expression_liveness_is_the_free_variable_image(self):
        env = FrozenMap({"x": FreshA(1), "y": FreshA(2)})
        ref_x = parse("(lambda (q) (x q))").body.fun
        assert live_exp(ref_x, env) == frozenset({FreshA(1)})
        assert live_exp(parse("(lambda (x) x)"), env) == frozenset()

    def test_closure_liveness_restricts_to_free_variables(self):
        env = FrozenMap({"x": FreshA(1), "y": FreshA(2)})
        lam = parse("((lambda (z) x) (lambda (w) w))").fun
        assert live_locations(Closure(lam, env)) == frozenset({FreshA(1)})

    def test_frame_liveness_follows_both_shapes_of_tail(self):
        env = FrozenMap({"x": FreshA(1)})
        arg = parse("((lambda (z) z) x)").arg
        linked = Ar(arg, env, MT)
        assert live_locations(linked) == frozenset({FreshA(1)})
        threaded = Ar(arg, env, FreshA(9))
        assert live_locations(threaded) == frozenset({FreshA(1), FreshA(9)})

    def test_thunk_frames_keep_their_targets(self):
        env = FrozenMap({"x": FreshA(1)})
        assert live_locations(Delayed(parse("((lambda (z) z) x)").arg, env)) == frozenset({FreshA(1)})
        assert live_locations(UpdateK(FreshA(4), FreshA(9))) == frozenset({FreshA(4), FreshA(9)})

    def test_unknown_storable_is_an_error(self):
        with pytest.raises(TypeError):
            live_locations(object())

    def test_dangling_live_address_is_an_error_only_concretely(self):
        with pytest.raises(StoreError):
            gc_reachable([FreshA(0)], EMPTY_MAP)
        assert gc_reachable([FreshA(0)], EMPTY_MAP, abstract=True) == frozenset({FreshA(0)})

    def test_collect_is_idempotent(self):
        for e in terminating_corpus()[:5]:
            t = run_trace("ceskstar", e, 1000)
            for s in t.states:
                once = collect(s)
                assert collect(once) == once
                assert set(once.store) <= set(s.store)

    def test_collecting_a_fully_live_store_returns_the_state(self):
        for e in terminating_corpus()[:5]:
            for s in run_trace("ceskstar", e, 1000).states:
                once = collect(s)
                assert collect(once) is once
            for s in explore(e, KCFAPolicy(1)).states:
                once = collect(s, abstract=True)
                assert collect(once, abstract=True) is once

    def test_an_unmapped_live_address_does_not_hide_a_dead_one(self):
        # The root x is live but unmapped; the one entry the store holds is
        # dead, so the live set is as large as the store and still drops it.
        lam = parse("(lambda (y) (x y))")
        dead = {MonoBindA("d"): frozenset({Closure(parse("(lambda (z) z)"), EMPTY_MAP)})}
        s = CESKtState(lam, FrozenMap({"x": MonoBindA("x")}), FrozenMap(dead), MT, Contour(()))
        out = collect(s, abstract=True)
        assert out is not s
        assert len(out.store) == 0

    def test_a_collected_ceskt_run_keeps_its_allocation_mark(self, monkeypatch):
        counts = count_scans(monkeypatch)
        t = trace_from(collecting_step(step_ceskt), collect(inject_ceskt(CHURCH_ADD_3_3)), 10_000)
        assert t.outcome == "final"
        # Only a store that a collection shrank lacks the mark and is
        # scanned; a collection that drops nothing keeps the step's store.
        assert 0 < counts["scans"] < counts["calls"]

    def test_liveness_never_exceeds_structural_reachability(self):
        for e in terminating_corpus()[:8]:
            t = run_trace("ceskt", e, 1000, policy=TIME_KEYED_POLICY)
            for s in t.states:
                assert set(collect(s).store) <= reflective_closure(s)
        for e in extended_corpus()[:8]:
            t = trace_from(
                lambda s: step_extended(s, TIME_KEYED_POLICY),
                inject_extended(e, TIME_KEYED_POLICY),
                2000,
            )
            for s in t.states:
                assert set(collect(s).store) <= reflective_closure(s)


class TestBehaviorPreservation:
    def trace_pair(self, machine, e):
        inject, step = MACHINES[machine]
        initial = inject(e, TIME_KEYED_POLICY) if machine == "ceskt" else inject(e)
        plain = trace_from(lambda s: step(s, TIME_KEYED_POLICY), initial, 2000)
        wrapped = collecting_step(lambda s: step(s, TIME_KEYED_POLICY))
        coll = trace_from(wrapped, initial, 2000)
        return plain, coll

    def test_tower_machines_are_unchanged(self):
        for e in terminating_corpus()[:20]:
            for machine in ("cesk", "ceskstar", "ceskt"):
                plain, coll = self.trace_pair(machine, e)
                assert plain.outcome == coll.outcome == "final"
                assert [s.ctrl.label for s in plain.states] == [
                    s.ctrl.label for s in coll.states
                ]
                a = store_value_term(plain.value, plain.states[-1].store)
                b = store_value_term(coll.value, coll.states[-1].store)
                assert unparse(a) == unparse(b)

    def test_collected_stores_shrink_pointwise(self):
        for e in terminating_corpus()[:10]:
            plain, coll = self.trace_pair("ceskt", e)
            for sp, sc in zip(plain.states, coll.states):
                assert set(sc.store) <= set(sp.store)
                for a in sc.store:
                    assert sc.store[a] == sp.store[a]

    def test_lazy_machine_is_unchanged(self):
        for e in terminating_corpus()[:15]:
            initial = inject_lk_star(e, TIME_KEYED_POLICY)
            plain = trace_from(
                lambda s: step_lk_star(s, TIME_KEYED_POLICY), initial, 4000
            )
            coll = trace_from(
                collecting_step(lambda s: step_lk_star(s, TIME_KEYED_POLICY)),
                initial,
                4000,
            )
            assert plain.outcome == coll.outcome == "final"
            assert [s.ctrl.label for s in plain.states] == [
                s.ctrl.label for s in coll.states
            ]
            assert plain.value.lam.label == coll.value.lam.label

    def test_extended_machine_is_unchanged(self):
        for e in extended_corpus():
            initial = inject_extended(e, TIME_KEYED_POLICY)
            plain = trace_from(
                lambda s: step_extended(s, TIME_KEYED_POLICY), initial, 4000
            )
            coll = trace_from(
                collecting_step(lambda s: step_extended(s, TIME_KEYED_POLICY)),
                initial,
                4000,
            )
            assert plain.outcome == coll.outcome
            assert len(plain.states) == len(coll.states)

    def test_mark_machine_is_unchanged(self):
        for e in security_corpus():
            initial = inject_cm_star(e, UNIVERSE, TIME_KEYED_POLICY)
            plain = trace_from(
                lambda s: step_cm_star(s, UNIVERSE, TIME_KEYED_POLICY), initial, 4000
            )
            coll = trace_from(
                collecting_step(lambda s: step_cm_star(s, UNIVERSE, TIME_KEYED_POLICY)),
                initial,
                4000,
            )
            assert plain.outcome == coll.outcome
            assert len(plain.states) == len(coll.states)


class TestAbstractCollection:
    def x_reads(self, graph):
        reads = []
        for s in graph.states:
            if isinstance(s.ctrl, Ref) and s.ctrl.name == "x":
                vals = sorted(
                    unparse(v.lam)
                    for v in astore_get(s.store, MonoBindA("x"))
                    if isinstance(v, Closure)
                )
                reads.append(vals)
        return sorted(reads)

    def test_collection_sharpens_the_duplicated_binding(self):
        pol = KCFAPolicy(0)
        plain = explore(GC_FIXTURE, pol)
        coll = explore_states(
            inject_abstract(GC_FIXTURE, pol),
            collecting_successors(lambda s: step_abstract(s, pol)),
            is_final_abstract,
        )
        assert self.x_reads(plain) == [
            ["(lambda (a) a)"],
            ["(lambda (a) a)", "(lambda (b) b)"],
        ]
        assert self.x_reads(coll) == [["(lambda (a) a)"], ["(lambda (b) b)"]]
        plain_finals = {unparse(plain.states[i].ctrl) for i in plain.finals}
        coll_finals = {unparse(coll.states[i].ctrl) for i in coll.finals}
        assert plain_finals == {"(lambda (a) a)", "(lambda (b) b)"}
        assert coll_finals == {"(lambda (b) b)"}

    def test_collection_never_grows_the_state_space(self):
        for e in terminating_corpus()[:15]:
            pol = KCFAPolicy(0)
            plain = explore(e, pol)
            coll = explore_states(
                inject_abstract(e, pol),
                collecting_successors(lambda s: step_abstract(s, pol)),
                is_final_abstract,
            )
            assert len(coll.states) <= len(plain.states)

    def test_monovariant_machine_supports_collection(self):
        g = explore_states(
            inject_0cfa(GC_FIXTURE),
            collecting_successors(step_0cfa),
            is_final_0cfa,
        )
        assert g.finals
