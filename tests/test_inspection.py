"""Stack inspection: continuation marks, the OK predicate and its two
store-path approximations, annotation, and the abstract machine."""

from __future__ import annotations

import random

import pytest

from corpus import SEED, UNIVERSE, security_corpus, terminating_corpus
from oracles import alpha_simulated, kont_paths, ok_path
from aam.analysis import KCFAPolicy, explore_states, inject_abstract, is_final_abstract, step_abstract
from aam.gc import collecting_successors
from aam.inspection import (
    DENY,
    EMPTY_MARKS,
    GRANT,
    MTM,
    ArM,
    CMStarState,
    FnM,
    MtM,
    alpha_cm_state,
    annotate,
    fails_hat,
    inject_acm,
    inject_cm,
    inject_cm_star,
    is_fail_acm,
    is_final_acm,
    ok,
    ok_hat,
    step_cm,
    step_cm_abstract,
    step_cm_star,
)
from aam.machines import FRESH_POLICY, MT, TIME_KEYED_POLICY, Ar, CESKtState, Fn, run_trace, trace_from
from aam.store import EMPTY_MAP, FrozenMap, MonoKontA
from aam.syntax import (
    Fail,
    FeatureError,
    Frame,
    Grant,
    Lam,
    check_labels,
    iter_nodes,
    parse,
    unparse,
)

P = frozenset({"p"})
PQ = frozenset({"p", "q"})

FIX_NO_FRAME = "(test (p) (lambda (a) a) (lambda (b) b))"
FIX_DENY = "(frame () (test (p) (lambda (a) a) (lambda (b) b)))"
FIX_REGRANT = "(frame () (grant (p) (test (p) (lambda (a) a) (lambda (b) b))))"


def run_cm(e, universe=UNIVERSE, fuel=4000):
    return trace_from(lambda s: step_cm(s, universe), inject_cm(e, universe), fuel)


def run_cm_star(e, universe=UNIVERSE, fuel=4000, policy=TIME_KEYED_POLICY):
    return trace_from(
        lambda s: step_cm_star(s, universe, policy),
        inject_cm_star(e, universe, policy),
        fuel,
    )


def marked(kont_cls, marks, tail, exp=None, env=EMPTY_MAP):
    lam = parse("(lambda (z) z)")
    if kont_cls is ArM:
        return ArM(exp if exp is not None else lam, env, marks=FrozenMap(marks), tail=tail)
    return FnM(lam, env, marks=FrozenMap(marks), tail=tail)


class TestOkPredicate:
    def test_empty_permissions_always_pass(self):
        denying = MtM(FrozenMap({"p": DENY}))
        assert ok(frozenset(), denying)

    def test_unmarked_stack_passes(self):
        k = marked(ArM, {}, marked(FnM, {}, MTM))
        assert ok(P, k)

    def test_denial_anywhere_refutes(self):
        assert not ok(P, marked(ArM, {"p": DENY}, MTM))
        assert not ok(P, marked(ArM, {}, MtM(FrozenMap({"p": DENY}))))

    def test_grant_shields_deeper_denial(self):
        k = marked(ArM, {"p": GRANT}, MtM(FrozenMap({"p": DENY})))
        assert ok(P, k)

    def test_partial_grant_does_not_shield_the_rest(self):
        k = marked(ArM, {"p": GRANT}, MtM(FrozenMap({"q": DENY})))
        assert not ok(PQ, k)

    def test_address_tails_need_a_store(self):
        k = marked(ArM, {}, MonoKontA(3))
        with pytest.raises(ValueError):
            ok(P, k)
        assert ok(P, k, FrozenMap({MonoKontA(3): MTM}))
        with pytest.raises(ValueError):
            ok(P, k, EMPTY_MAP)


class TestValidation:
    def test_permissions_outside_the_universe_are_rejected(self):
        with pytest.raises(ValueError, match="universe"):
            inject_cm(parse(FIX_NO_FRAME), frozenset({"q"}))
        with pytest.raises(ValueError, match="universe"):
            inject_cm_star(parse(FIX_DENY), frozenset())
        with pytest.raises(ValueError, match="universe"):
            inject_acm(parse(FIX_REGRANT), frozenset(), KCFAPolicy(0))

    def test_non_security_forms_are_rejected(self):
        with pytest.raises(FeatureError):
            inject_cm(parse("(if #f (lambda (a) a) (lambda (b) b))"), UNIVERSE)


class TestAnnotate:
    def test_every_lambda_body_gains_a_frame(self):
        e = annotate(terminating_corpus()[0], P)
        for node in iter_nodes(e):
            if isinstance(node, Lam):
                assert isinstance(node.body, Frame)
                assert node.body.perms == P

    def test_grants_are_intersected_with_the_policy(self):
        e = annotate(parse("(grant (p q) (test (q) (lambda (a) a) fail))"), P)
        grants = [n for n in iter_nodes(e) if isinstance(n, Grant)]
        assert grants and all(g.perms == P for g in grants)

    def test_labels_are_regenerated_uniquely(self):
        e = annotate(parse(FIX_REGRANT), PQ)
        check_labels(e)
        assert unparse(parse(unparse(e))) == unparse(e)

    def test_annotated_programs_still_run(self):
        for e in security_corpus()[:8]:
            t = run_cm(annotate(e, P))
            assert t.outcome in ("final", "fail")


class TestLockStep:
    def test_linked_and_store_allocated_machines_agree(self):
        for e in security_corpus():
            a = run_cm(e)
            b = run_cm_star(e)
            assert a.outcome == b.outcome
            assert len(a.states) == len(b.states)
            for sa, sb in zip(a.states, b.states):
                assert sa.ctrl.label == sb.ctrl.label
            if a.outcome == "final":
                assert a.value.lam.label == b.value.lam.label

    def test_corpus_exercises_both_outcomes(self):
        outcomes = {run_cm(e).outcome for e in security_corpus()}
        assert outcomes == {"final", "fail"}

    def test_argument_frames_hand_their_marks_to_call_frames(self):
        seen = 0
        for e in security_corpus():
            t = run_cm(e)
            for a, b in zip(t.states, t.states[1:]):
                if isinstance(a.kont, ArM) and isinstance(b.kont, FnM):
                    seen += 1
                    assert b.kont.marks == a.kont.marks
                    assert b.kont.tail == a.kont.tail
        assert seen > 0


class TestStorePathPredicates:
    def random_store(self, rng):
        """A small abstract continuation store with possible merging."""
        lam = parse("(lambda (z) z)")
        addrs = [MonoKontA(i) for i in range(rng.randint(1, 4))]

        def rand_marks():
            marks = {}
            for perm in PQ:
                roll = rng.random()
                if roll < 0.25:
                    marks[perm] = DENY
                elif roll < 0.5:
                    marks[perm] = GRANT
            return FrozenMap(marks)

        def rand_kont(depth_from):
            tails = addrs[depth_from:] + [None]
            tail = rng.choice(tails)
            if tail is None:
                return MtM(rand_marks())
            cls = rng.choice((ArM, FnM))
            if cls is ArM:
                return ArM(lam, EMPTY_MAP, marks=rand_marks(), tail=tail)
            return FnM(lam, EMPTY_MAP, marks=rand_marks(), tail=tail)

        entries = {}
        for i, a in enumerate(addrs):
            konts = frozenset(rand_kont(i + 1) for _ in range(rng.randint(1, 3)))
            entries[a] = konts
        top = rand_kont(0)
        return top, FrozenMap(entries)

    def test_path_oracle_battery(self):
        rng = random.Random(SEED)
        trials = 0
        while trials < 300:
            top, store = self.random_store(rng)
            paths, overflowed = kont_paths(top, store)
            if overflowed:
                continue
            trials += 1
            perms = frozenset(p for p in PQ if rng.random() < 0.6)
            assert ok_hat(perms, top, store) == any(ok_path(perms, f) for f in paths)
            if perms:
                assert fails_hat(perms, top, store) == any(
                    not ok_path(perms, f) for f in paths
                )
            else:
                assert not fails_hat(perms, top, store)

    def test_cyclic_store_terminates_with_no_witnesses(self):
        a = MonoKontA(0)
        looped = marked(ArM, {}, a)
        store = FrozenMap({a: frozenset({looped})})
        assert not ok_hat(P, looped, store)
        assert not fails_hat(P, looped, store)

    def test_merged_store_can_witness_both(self):
        a = MonoKontA(0)
        top = marked(ArM, {}, a)
        store = FrozenMap({a: frozenset({MTM, MtM(FrozenMap({"p": DENY}))})})
        assert ok_hat(P, top, store)
        assert fails_hat(P, top, store)

    def test_singleton_stores_agree_with_the_exact_predicate(self):
        rng = random.Random(SEED + 1)
        checked = 0
        for e in security_corpus():
            t = run_cm_star(e)
            for s in t.states:
                astore = FrozenMap(
                    {addr: frozenset({v}) for addr, v in s.store.items()}
                )
                perms = frozenset(p for p in UNIVERSE if rng.random() < 0.5)
                want = ok(perms, s.kont, s.store)
                assert ok_hat(perms, s.kont, astore) == want
                if perms:
                    assert fails_hat(perms, s.kont, astore) == (not want)
                checked += 1
        assert checked > 50


class TestAbstract:
    """Sample-level soundness; the acceptance suite runs the full corpus."""

    def acm_graph(self, e, pol, universe=UNIVERSE):
        return explore_states(
            inject_acm(e, universe, pol),
            lambda s: step_cm_abstract(s, universe, pol),
            lambda s: is_final_acm(s) or is_fail_acm(s),
        )

    def test_dual_witness_fans_both_test_branches(self):
        e = parse(FIX_NO_FRAME)
        pol = KCFAPolicy(0)
        a = MonoKontA(0)
        store = FrozenMap({a: frozenset({MTM, MtM(FrozenMap({"p": DENY}))})})
        s = CMStarState(e, EMPTY_MAP, store, marked(ArM, {}, a), pol.t0)
        succs = step_cm_abstract(s, P, pol)
        assert {x.ctrl for x in succs} == {e.then, e.other}

    def test_fixture_finals(self):
        for src, expect in (
            (FIX_NO_FRAME, "(lambda (a) a)"),
            (FIX_DENY, "(lambda (b) b)"),
            (FIX_REGRANT, "(lambda (a) a)"),
        ):
            g = self.acm_graph(parse(src), KCFAPolicy(0), P)
            finals = {unparse(g.states[i].ctrl) for i in g.finals}
            assert finals == {expect}, src

    def test_simulation_on_sample(self):
        for e in security_corpus()[:8]:
            tr = run_cm_star(e)
            for k in (0, 1):
                pol = KCFAPolicy(k)
                g = self.acm_graph(e, pol)
                assert alpha_simulated(
                    tr.states,
                    lambda s: alpha_cm_state(s, k),
                    g,
                    lambda s: step_cm_abstract(s, UNIVERSE, pol),
                )


class TestFailSemantics:
    def test_bare_fail_halts_distinctly(self):
        t = run_cm(parse("fail"))
        assert t.outcome == "fail"

    def test_fail_under_a_frame_unwinds_first(self):
        t = run_cm(parse("(frame (p) fail)"), universe=P)
        assert t.outcome == "fail"
        assert any(isinstance(s.ctrl, Fail) and s.kont == MTM for s in t.states)

    def test_fail_discards_pending_frames(self):
        t = run_cm(parse("((lambda (x) x) fail)"))
        assert t.outcome == "fail"
        assert any(
            isinstance(a.kont, FnM) and isinstance(a.ctrl, Fail) for a in t.states
        )


def unmarked(x):
    """``x`` with every marked frame, in its registers and its store, read
    as the core frame it marks; every mark must be empty."""
    if isinstance(x, (MtM, ArM, FnM)):
        assert x.marks == EMPTY_MARKS, x
        if isinstance(x, MtM):
            return MT
        if isinstance(x, ArM):
            return Ar(x.exp, x.env, unmarked(x.tail))
        return Fn(x.lam, x.env, unmarked(x.tail))
    if isinstance(x, CESKtState):
        return CESKtState(x.ctrl, x.env, unmarked(x.store), unmarked(x.kont), x.time)
    if isinstance(x, FrozenMap):
        return FrozenMap({a: unmarked(v) for a, v in x.items()})
    if isinstance(x, frozenset):
        return frozenset(map(unmarked, x))
    return x


class TestCoreMachineWithMarks:
    """The security machine is the core machine with marks on its frames: on
    a program with no security form, under an empty universe, every mark
    stays empty and each run is the core machine's run, state for state."""

    NONE = frozenset()

    def test_cm_is_cesk(self):
        for e in terminating_corpus():
            cm, core = run_cm(e, self.NONE), run_trace("cesk", e, 4000)
            assert cm.outcome == core.outcome == "final" and cm.value == core.value
            assert [unmarked(s) for s in cm.states] == core.states

    @pytest.mark.parametrize("policy", [FRESH_POLICY, TIME_KEYED_POLICY], ids=["fresh", "time-keyed"])
    def test_cm_star_is_ceskt(self, policy):
        for e in terminating_corpus():
            cm, core = run_cm_star(e, self.NONE, policy=policy), run_trace("ceskt", e, 4000, policy)
            assert cm.outcome == core.outcome == "final" and cm.value == core.value
            assert [unmarked(s) for s in cm.states] == core.states

    @pytest.mark.parametrize("gc", [False, True], ids=["plain", "gc"])
    @pytest.mark.parametrize("k", [0, 1])
    def test_acm_is_kcfa(self, k, gc):
        wrap = collecting_successors if gc else (lambda successors: successors)
        for e in terminating_corpus():
            pol = KCFAPolicy(k)
            cm = explore_states(inject_acm(e, self.NONE, pol),
                                wrap(lambda s: step_cm_abstract(s, self.NONE, pol)), is_final_acm)
            core = explore_states(inject_abstract(e, pol), wrap(lambda s: step_abstract(s, pol)),
                                  is_final_abstract)
            assert [unmarked(s) for s in cm.states] == list(core.states)
            assert (cm.edges, cm.finals) == (core.edges, core.finals)
            assert cm.finals
