"""Abstract exploration, the truncation map, widening, the monovariant
machine, and the sharing of stores that a step or a join leaves unchanged."""

from __future__ import annotations

import dataclasses

import pytest

from corpus import UNIVERSE, divergent_corpus, extended_corpus, security_corpus, terminating_corpus
from oracles import CopyingStore, alpha_simulated, copying_astore_join, mini_0cfa
from aam import analysis
from aam.analysis import (
    KCFAPolicy,
    abstraction_map,
    alpha_addr,
    alpha_env,
    alpha_fields,
    alpha_time,
    analyze_widened,
    analyze_widened_0cfa,
    explore,
    explore_0cfa,
    explore_states,
    inject_abstract,
    is_final_abstract,
    monovariant_iteration_bound,
    state_leq,
    step_abstract,
    strip_store,
    widened_fixpoint,
)
from aam.extended import EXTENDED, inject_aext, step_extended_abstract
from aam.inspection import SECURITY, inject_acm, step_cm_abstract
from aam.lazy import LAZY, VARIANTS, inject_alk, step_lk_star_abstract
from aam.machines import CORE, TIME_KEYED_POLICY, Closure, run_trace
from aam.pushdown import (
    PUSHDOWN_MONO,
    PUSHDOWN_VALUE,
    reachable_pushdown,
    reachable_pushdown_widened,
    step_pushdown,
)
from aam.store import (
    ABSTRACT_STORE,
    BindA,
    Contour,
    FreshA,
    KontA,
    MonoBindA,
    MonoKontA,
    MonoUpdateA,
    TAG_KONT,
    TAG_REIFY,
    TAG_THUNK,
    Tick,
    astore_leq,
)
from aam.syntax import Lam, parse, unparse

OMEGA = parse("((lambda (w) (w w)) (lambda (w) (w w)))")
P_PRECISION = parse("((lambda (f) ((f (lambda (a) a)) (f (lambda (b) b)))) (lambda (x) x))")


class TestTruncation:
    def test_alpha_time_truncates(self):
        t = Contour((7, 3, 1))
        assert alpha_time(t, 0) == Contour(())
        assert alpha_time(t, 2) == Contour((7, 3))
        assert alpha_time(t, 9) == t

    def test_alpha_time_rejects_ticks(self):
        with pytest.raises(TypeError):
            alpha_time(Tick(3), 1)

    def test_alpha_addr_families(self):
        t = Contour((7, 3))
        assert alpha_addr(BindA("x", t), 0) == MonoBindA("x")
        assert alpha_addr(BindA("x", t), 1) == BindA("x", Contour((7,)))
        assert alpha_addr(KontA(4, t), 0) == MonoKontA(4)
        assert alpha_addr(KontA(4, t, "thunk"), 0) == MonoKontA(4, "thunk")

    def test_alpha_addr_rejects_numeric(self):
        with pytest.raises(TypeError):
            alpha_addr(FreshA(0), 1)

    def test_abstraction_map_accepts_time_keyed_states(self):
        e = parse("((lambda (x) x) (lambda (y) y))")
        t = run_trace("ceskt", e, 100, policy=TIME_KEYED_POLICY)
        for s in t.states:
            for k in (0, 1, 2):
                a = abstraction_map(s, k)
                assert a.ctrl is s.ctrl
                assert len(a.time.labels) <= k

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_allocation_commutes_with_truncation(self, k):
        """The soundness lemma: allocate with the unbounded policy and then
        truncate, or truncate and then allocate with the bounded one."""
        keyed, bounded = TIME_KEYED_POLICY, KCFAPolicy(k)
        for e in terminating_corpus():
            for s in run_trace("ceskt", e, 1000, policy=keyed).states:
                a, site = alpha_fields(s, k), s.ctrl.label
                assert alpha_time(keyed.tick(s, s.kont), k) == bounded.tick(a, a.kont)
                assert alpha_addr(keyed.alloc_bind("x", s, s.kont), k) == bounded.alloc_bind("x", a, a.kont)
                assert alpha_addr(keyed.alloc_update("x", s, s.kont), k) == bounded.alloc_update("x", a, a.kont)
                for tag in (TAG_KONT, TAG_THUNK, TAG_REIFY):
                    assert alpha_addr(keyed.alloc_kont(site, s, s.kont, tag), k) == bounded.alloc_kont(
                        site, a, a.kont, tag
                    )


class TestSimulation:
    """Sample-level checks; the acceptance suite runs the full corpus."""

    def test_fixture_programs(self):
        for e in (P_PRECISION, parse("((lambda (x) x) (lambda (y) y))")):
            tr = run_trace("ceskt", e, 1000, policy=TIME_KEYED_POLICY)
            for k in (0, 1):
                pol = KCFAPolicy(k)
                g = explore(e, pol)
                assert alpha_simulated(
                    tr.states,
                    lambda s: abstraction_map(s, k),
                    g,
                    lambda s: step_abstract(s, pol),
                )

    def test_higher_k_also_simulates(self):
        for e in terminating_corpus()[:6]:
            tr = run_trace("ceskt", e, 1000, policy=TIME_KEYED_POLICY)
            pol = KCFAPolicy(2)
            g = explore(e, pol)
            assert alpha_simulated(
                tr.states,
                lambda s: abstraction_map(s, 2),
                g,
                lambda s: step_abstract(s, pol),
            )


class TestExplore:
    def test_schedule_independence(self):
        for e in terminating_corpus()[:20]:
            for k in (0, 1):
                bfs = explore(e, KCFAPolicy(k), order="bfs")
                dfs = explore(e, KCFAPolicy(k), order="dfs")
                assert frozenset(bfs.states) == frozenset(dfs.states)
                bfs_pairs = {(bfs.states[i], bfs.states[j]) for i, j in bfs.edges}
                dfs_pairs = {(dfs.states[i], dfs.states[j]) for i, j in dfs.edges}
                assert bfs_pairs == dfs_pairs

    def test_an_unknown_order_is_refused(self):
        with pytest.raises(ValueError, match="'BFS'"):
            explore(P_PRECISION, KCFAPolicy(1), order="BFS")
        pol = KCFAPolicy(0)
        with pytest.raises(ValueError, match="'lifo'"):
            explore_states(inject_abstract(P_PRECISION, pol), lambda s: step_abstract(s, pol),
                           is_final_abstract, order="lifo")

    def test_same_process_determinism(self):
        e = P_PRECISION
        g1, g2 = explore(e, KCFAPolicy(1)), explore(e, KCFAPolicy(1))
        assert g1 == g2

    def test_finals_flag_matches_predicate(self):
        for e in terminating_corpus()[:10]:
            g = explore(e, KCFAPolicy(0))
            for i, s in enumerate(g.states):
                assert (i in g.finals) == is_final_abstract(s)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            KCFAPolicy(-1)

    def test_omega_terminates_without_finals(self):
        for k in (0, 1):
            g = explore(OMEGA, KCFAPolicy(k))
            assert g.finals == ()
            assert len(g.states) < 50

    def test_divergent_corpus_terminates(self):
        for e in divergent_corpus():
            for k in (0, 1):
                explore(e, KCFAPolicy(k))


class TestWidening:
    def test_widened_covers_explore(self):
        for e in terminating_corpus()[:15]:
            g = explore(e, KCFAPolicy(0))
            w = analyze_widened_0cfa(e)
            z = explore_0cfa(e)
            for s in z.states:
                assert strip_store(s) in w.contexts
                assert astore_leq(s.store, w.store)

    def test_widened_k1_covers_explore(self):
        for e in terminating_corpus()[:8]:
            pol = KCFAPolicy(1)
            g = explore(e, pol)
            w = analyze_widened(e, pol)
            for s in g.states:
                assert strip_store(s) in w.contexts
                assert astore_leq(s.store, w.store)

    def test_iteration_bound_on_sample(self):
        for e in terminating_corpus()[:15] + [OMEGA]:
            w = analyze_widened_0cfa(e)
            assert w.iterations <= monovariant_iteration_bound(e)

    def test_widened_store_is_join_closed(self):
        w = analyze_widened_0cfa(P_PRECISION)
        assert all(vs for vs in w.store.values())


def stepped_edges(system, successors) -> frozenset:
    """The edges as the command line used to find them: every context
    stepped once more against the final store."""
    edges = set()
    for ctx in system.contexts:
        for t in successors(dataclasses.replace(ctx, store=system.store)):
            if strip_store(t) in system.contexts:
                edges.add((ctx, strip_store(t)))
    return frozenset(edges)


WIDENED_MACHINES = {
    "kcfa0": (0, inject_abstract, step_abstract),
    "kcfa1": (1, inject_abstract, step_abstract),
    "alk": (0, inject_alk, step_lk_star_abstract),
    "aext": (0, inject_aext, step_extended_abstract),
    "acm": (
        0,
        lambda e, p: inject_acm(e, frozenset(), p),
        lambda s, p: step_cm_abstract(s, frozenset(), p),
    ),
}


class TestWidenedEdges:
    @pytest.mark.parametrize("machine", sorted(WIDENED_MACHINES))
    def test_fixpoint_edges_are_the_last_round_stepped_again(self, machine):
        k, inject, step = WIDENED_MACHINES[machine]
        for e in terminating_corpus() + divergent_corpus():
            policy = KCFAPolicy(k)
            successors = lambda s: step(s, policy)
            system = widened_fixpoint(inject(e, policy), successors)
            assert system.edges == stepped_edges(system, successors), unparse(e)
            assert all(s in system.contexts and t in system.contexts for s, t in system.edges)


class TestMonovariantMachine:
    def test_control_sets_match_k0_on_sample(self):
        for e in terminating_corpus()[:20]:
            k0 = {s.ctrl.label for s in explore(e, KCFAPolicy(0)).states}
            z = {s.ctrl.label for s in explore_0cfa(e).states}
            assert k0 == z, unparse(e)

    def test_0cfa_is_explore_under_the_k0_policy(self):
        for e in terminating_corpus()[:10] + divergent_corpus()[:5]:
            assert explore_0cfa(e) == explore(e, KCFAPolicy(0)), unparse(e)

    def test_finals_are_lambdas(self):
        g = explore_0cfa(P_PRECISION)
        assert g.finals
        for i in g.finals:
            assert isinstance(g.states[i].ctrl, Lam)

    def test_constraint_solver_over_approximates_machine(self):
        compared = 0
        for e in terminating_corpus():
            w = analyze_widened_0cfa(e)
            mini = mini_0cfa(e)
            for a, vs in w.store.items():
                if isinstance(a, MonoBindA):
                    machine = {v.lam.label for v in vs if isinstance(v, Closure)}
                    assert machine <= mini.get(a.var, frozenset()), unparse(e)
                    compared += bool(machine)
        assert compared


class UninternedPolicy(KCFAPolicy):
    """The bounded policy building a new time and address on every tick
    and allocation."""

    def tick(self, state, kont):
        return dataclasses.replace(super().tick(state, kont))

    def alloc_bind(self, var, state, kont):
        return dataclasses.replace(super().alloc_bind(var, state, kont))

    def alloc_kont(self, site, state, kont, tag=TAG_KONT):
        return dataclasses.replace(super().alloc_kont(site, state, kont, tag))

    def alloc_update(self, var, state, kont):
        return dataclasses.replace(super().alloc_update(var, state, kont))


class TestMonovariantAddresses:
    def test_one_name_allocates_one_address(self):
        policy = KCFAPolicy(0)
        assert policy.alloc_bind("x", None, None) is policy.alloc_bind("x", None, None)
        assert policy.alloc_update("x", None, None) is policy.alloc_update("x", None, None)
        assert policy.alloc_kont(3, None, None) is policy.alloc_kont(3, None, None)
        thunk = policy.alloc_kont(3, None, None, TAG_THUNK)
        assert thunk is policy.alloc_kont(3, None, None, TAG_THUNK)
        assert thunk == MonoKontA(3, TAG_THUNK) != policy.alloc_kont(3, None, None)
        assert policy.alloc_bind("y", None, None) == MonoBindA("y")

    def test_a_bounded_policy_makes_each_time_and_address_once(self):
        e = parse("((lambda (x) x) (lambda (y) y))")
        for k in (1, 2):
            policy = KCFAPolicy(k)
            s = inject_abstract(e, policy)
            t = policy.tick(s, None)
            assert t is policy.tick(s, None) and t == Contour((e.label,))
            assert policy.alloc_bind("x", s, None) is policy.alloc_bind("x", s, None)
            assert policy.alloc_update("x", s, None) is policy.alloc_update("x", s, None)
            assert policy.alloc_kont(3, s, None) is policy.alloc_kont(3, s, None)
            assert policy.alloc_kont(3, s, None).time is t
        s = inject_abstract(e, TIME_KEYED_POLICY)
        assert TIME_KEYED_POLICY.alloc_bind("x", s, None) is not TIME_KEYED_POLICY.alloc_bind("x", s, None)

    def test_interning_leaves_the_graphs_unchanged(self):
        """The graphs are those of a policy that makes nothing once,
        searched by value (``explore`` refuses such a policy)."""
        for e in terminating_corpus() + divergent_corpus():
            for k in (0, 1):
                pol = UninternedPolicy(k)
                interned = explore(e, KCFAPolicy(k))
                fresh = explore_states(inject_abstract(e, pol), lambda s: step_abstract(s, pol),
                                       is_final_abstract)
                assert interned.states == fresh.states
                assert interned.edges == fresh.edges
                assert interned.finals == fresh.finals


class TestStateOrder:
    def test_reflexive_and_store_monotone(self):
        g = explore(P_PRECISION, KCFAPolicy(0))
        w = analyze_widened_0cfa(P_PRECISION)
        import dataclasses

        for s in g.states:
            assert state_leq(s, s)
            bigger = dataclasses.replace(s, store=w.store)
            if astore_leq(s.store, w.store):
                assert state_leq(s, bigger)
                if s.store != w.store:
                    assert not state_leq(bigger, s)

    def test_differing_control_is_incomparable(self):
        g = explore(P_PRECISION, KCFAPolicy(0))
        a, b = g.states[0], g.states[1]
        assert not state_leq(a, b)
        assert not state_leq(b, a)


# ---------------------------------------------------------------------------
# Stores a step or a join leaves unchanged are shared, not copied
# ---------------------------------------------------------------------------

# (language, k, language argument) of every abstract machine with
# per-state stores.
SHARING_MACHINES = {
    "kcfa0": (CORE, 0, None),
    "kcfa1": (CORE, 1, None),
    **{f"alk-{v}": (LAZY, 0, v) for v in VARIANTS},
    "aext": (EXTENDED, 0, None),
    "acm": (SECURITY, 0, UNIVERSE),
}
OWN_CORPUS = {"aext": extended_corpus, "acm": security_corpus}


def _programs(machine: str) -> list:
    own = OWN_CORPUS.get(machine)
    return terminating_corpus() + divergent_corpus() + (own() if own else [])


def _search(machine: str, e, sem, widened: bool = False):
    lang, k, arg = SHARING_MACHINES[machine]
    policy = KCFAPolicy(k)
    initial = lang.inject(e, arg, policy.t0)
    successors = lambda s: lang.rules(s, sem, policy, arg)
    if widened:
        return widened_fixpoint(initial, successors)
    return explore_states(initial, successors, lang.final)


class TestStoreSharing:
    @pytest.mark.parametrize("machine", sorted(SHARING_MACHINES))
    def test_a_step_that_writes_nothing_new_keeps_its_store(self, machine):
        """For every state of the graph and every successor, an equal store
        is the same object."""
        lang, k, arg = SHARING_MACHINES[machine]
        policy = KCFAPolicy(k)
        shared = 0

        def successors(s):
            nonlocal shared
            succs = lang.rules(s, ABSTRACT_STORE, policy, arg)
            for t in succs:
                if t.store is s.store:
                    shared += 1
                else:
                    assert t.store != s.store, (machine, s)
            return succs

        for e in _programs(machine):
            explore_states(lang.inject(e, arg, policy.t0), successors, lang.final)
        assert shared

    def test_a_pushdown_bind_already_made_keeps_its_store(self):
        """A pop whose closure the bound address already holds keeps its
        node's store object, per node and against the widened store."""
        rebinds = 0
        for e in terminating_corpus() + divergent_corpus():
            for policy in (PUSHDOWN_MONO, PUSHDOWN_VALUE):
                graphs = (reachable_pushdown(e, policy), reachable_pushdown_widened(e, policy).graph)
                for n in {n for g in graphs for n in g.nodes}:
                    store = n.control.store
                    for ctrl2, action, _frame in step_pushdown(n.control, n.top, policy):
                        if action == "pop" and ctrl2.store == store:
                            assert ctrl2.store is store, unparse(e)
                            rebinds += 1
        assert rebinds

    @pytest.mark.parametrize("machine", sorted(SHARING_MACHINES))
    def test_sharing_leaves_the_graphs_and_widened_systems_unchanged(self, machine, monkeypatch):
        """Against stores that copy on every write and join: the same
        states in the same order, edges and finals, and the same widened
        contexts, store, iterations and edges."""
        programs = terminating_corpus() + divergent_corpus()
        graphs = [_search(machine, e, ABSTRACT_STORE) for e in _programs(machine)]
        systems = [_search(machine, e, ABSTRACT_STORE, widened=True) for e in programs]
        monkeypatch.setattr(analysis, "astore_join", copying_astore_join)
        copying = CopyingStore()
        for e, g in zip(_programs(machine), graphs):
            ref = _search(machine, e, copying)
            assert (g.states, g.edges, g.finals) == (ref.states, ref.edges, ref.finals), unparse(e)
        for e, w in zip(programs, systems):
            ref = _search(machine, e, copying, widened=True)
            assert (w.contexts, w.store, w.iterations, w.edges) == (
                ref.contexts, ref.store, ref.iterations, ref.edges), unparse(e)
