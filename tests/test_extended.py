"""Extended control: conditionals, assignment, first-class continuations,
and handler-based exceptions, concrete and abstract."""

from __future__ import annotations

import pytest

from corpus import divergent_corpus, extended_corpus, terminating_corpus
from oracles import alpha_simulated
from aam.analysis import KCFAPolicy, explore, explore_rules, explore_states
from aam.extended import (
    EXTENDED,
    MTH,
    ExtState,
    FalseV,
    HandlerPair,
    Hn,
    IfK,
    KontV,
    MtH,
    SetK,
    alpha_ext_state,
    control_value,
    inject_aext,
    inject_extended,
    is_final_ext,
    step_extended,
    step_extended_abstract,
)
from aam.machines import (
    MT,
    FRESH_POLICY,
    TIME_KEYED_POLICY,
    Closure,
    Stuck,
    inject_ceskt,
    step_ceskt,
    trace_from,
)
from aam.store import EMPTY_MAP, MonoBindA, astore_get
from aam.syntax import Catch, FeatureError, Lam, Throw, iter_nodes, parse, unparse

F_IF = "(if #f (lambda (a) a) (lambda (b) b))"
F_SET = "((lambda (x) (set! x (lambda (b) b))) (lambda (a) a))"
F_CC = "((lambda (t) t) (callcc (lambda (k) ((k (lambda (a) a)) (lambda (b) b)))))"
F_CATCH = "(catch ((lambda (x) (throw (lambda (a) a))) (lambda (b) b)) (lambda (y) y))"


def run_ext(e, fuel=2000, policy=FRESH_POLICY):
    return trace_from(lambda s: step_extended(s, policy), inject_extended(e, policy), fuel)


def value_key(v):
    """Policy-independent identity of a final value."""
    if isinstance(v, Closure):
        return ("closure", v.lam.label)
    return (type(v).__name__,)


def handler_depth(eta, store):
    n = 0
    while isinstance(eta, Hn):
        n += 1
        pair = store.get(eta.saved)
        assert isinstance(pair, HandlerPair)
        eta = pair.handler
    return n


class TestFixtures:
    @pytest.mark.parametrize(
        "src,expect",
        [
            (F_IF, "(lambda (b) b)"),
            (F_SET, "(lambda (a) a)"),
            (F_CC, "(lambda (a) a)"),
            (F_CATCH, "(lambda (a) a)"),
            ("(if (lambda (z) z) (lambda (a) a) (lambda (b) b))", "(lambda (a) a)"),
            ("(if callcc (lambda (a) a) (lambda (b) b))", "(lambda (a) a)"),
        ],
    )
    def test_final_values(self, src, expect):
        t = run_ext(parse(src))
        assert t.outcome == "final"
        assert unparse(t.value.lam) == expect

    def test_assignment_updates_the_binding(self):
        t = run_ext(parse(F_SET))
        addr = next(s.env.get("x") for s in t.states if s.env.get("x") is not None)
        final_cell = t.states[-1].store.get(addr)
        assert isinstance(final_cell, Closure)
        assert unparse(final_cell.lam) == "(lambda (b) b)"

    def test_captured_continuation_appears_as_a_value(self):
        t = run_ext(parse(F_CC))
        assert any(isinstance(s.ctrl, KontV) for s in t.states)


class TestStuckShapes:
    def test_applying_false_is_stuck(self):
        t = run_ext(parse("(#f (lambda (a) a))"))
        assert t.outcome == "stuck"
        assert "not applicable" in t.reason

    def test_throw_without_handler_is_stuck(self):
        t = run_ext(parse("(throw #f)"))
        assert t.outcome == "stuck"
        assert "no handler" in t.reason

    def test_assignment_to_unbound_variable_is_stuck(self):
        setbang = parse(F_SET).fun.body
        s = ExtState(setbang, EMPTY_MAP, EMPTY_MAP, MTH, MT, FRESH_POLICY.t0)
        out = step_extended(s)
        assert isinstance(out, Stuck) and "unbound" in out.reason

    def test_security_forms_are_rejected(self):
        with pytest.raises(FeatureError):
            inject_extended(parse("(frame (p) (lambda (a) a))"))


class TestCorpusRuns:
    def test_every_program_reaches_a_final_state(self):
        for e in extended_corpus():
            t = run_ext(e, fuel=4000)
            assert t.outcome == "final", unparse(e)
            assert is_final_ext(t.states[-1])

    def test_time_keyed_policy_agrees(self):
        for e in extended_corpus():
            a = run_ext(e, fuel=4000)
            b = run_ext(e, fuel=4000, policy=TIME_KEYED_POLICY)
            assert a.outcome == b.outcome == "final"
            assert len(a.states) == len(b.states)
            assert value_key(a.value) == value_key(b.value)


class TestCoreMachine:
    """On a core program the extended machine is the time-stamped core
    machine: its frames carry a call site (``ArX``) or an operator value
    (``FnX``) where the core ones carry syntax, and its handler register
    stays ``MtH``, but every state has the same control, environment,
    time and store addresses, and every abstract graph the same shape."""

    def test_ext_is_ceskt(self):
        for e in terminating_corpus() + divergent_corpus():
            ext = trace_from(step_extended, inject_extended(e), 300)
            core = trace_from(step_ceskt, inject_ceskt(e, FRESH_POLICY), 300)
            assert (ext.outcome, len(ext.states)) == (core.outcome, len(core.states)), unparse(e)
            for x, c in zip(ext.states, core.states):
                assert x.handler == MTH
                assert (x.ctrl, x.env, x.time) == (c.ctrl, c.env, c.time), unparse(e)
                assert set(x.store) == set(c.store), unparse(e)

    @pytest.mark.parametrize("k", [0, 1])
    def test_aext_is_kcfa(self, k):
        for e in terminating_corpus() + divergent_corpus():
            pol = KCFAPolicy(k)
            ext, core = explore_rules(EXTENDED, inject_aext(e, pol), pol), explore(e, KCFAPolicy(k))
            shape = lambda g: (len(g.states), len(g.edges), len(g.finals))  # noqa: E731
            assert shape(ext) == shape(core), unparse(e)
            assert [ext.states[i].ctrl for i in ext.finals] == [core.states[i].ctrl for i in core.finals]


class TestInvariants:
    def test_conditionals_are_total(self):
        for e in extended_corpus():
            t = run_ext(e, fuel=4000)
            for a, b in zip(t.states, t.states[1:]):
                if isinstance(a.kont, IfK) and control_value(a.ctrl, a.env) is not None:
                    v = control_value(a.ctrl, a.env)
                    expect = a.kont.other if isinstance(v, FalseV) else a.kont.then
                    assert b.ctrl is expect

    def test_assignment_returns_the_old_value(self):
        seen = 0
        for e in extended_corpus() + [parse(F_SET)]:
            t = run_ext(e, fuel=4000)
            for a, b in zip(t.states, t.states[1:]):
                if isinstance(a.kont, SetK) and control_value(a.ctrl, a.env) is not None:
                    seen += 1
                    old = a.store.get(a.kont.target)
                    assert b.store.get(a.kont.target) == control_value(a.ctrl, a.env)
                    if isinstance(old, Closure):
                        assert b.ctrl is old.lam and b.env == old.env
                    else:
                        assert b.ctrl == old
        assert seen > 0

    def test_handler_chain_discipline(self):
        for e in extended_corpus():
            t = run_ext(e, fuel=4000)
            for a, b in zip(t.states, t.states[1:]):
                da = handler_depth(a.handler, a.store)
                db = handler_depth(b.handler, b.store)
                if db == da + 1:
                    assert isinstance(a.ctrl, Catch)
                elif db == da - 1:
                    popped_normally = (
                        control_value(a.ctrl, a.env) is not None
                        and isinstance(a.kont, type(MT))
                        and isinstance(a.handler, Hn)
                    )
                    assert isinstance(a.ctrl, Throw) or popped_normally
                else:
                    assert db == da
            if t.outcome == "final":
                assert isinstance(t.states[-1].handler, MtH)


class TestAbstract:
    """Sample-level soundness; the acceptance suite runs the full corpus."""

    def test_false_test_reaches_only_the_else_branch(self):
        e = parse(F_IF)
        then_label = e.then.label
        pol = KCFAPolicy(0)
        g = explore_states(
            inject_aext(e, pol), lambda s: step_extended_abstract(s, pol), is_final_ext
        )
        assert all(getattr(s.ctrl, "label", None) != then_label for s in g.states)
        finals = {unparse(g.states[i].ctrl) for i in g.finals}
        assert finals == {"(lambda (b) b)"}

    def test_assignment_joins_at_the_monovariant_address(self):
        e = parse(F_SET)
        labels = {
            lam.param: lam.label for lam in iter_nodes(e) if isinstance(lam, Lam)
        }
        pol = KCFAPolicy(0)
        g = explore_states(
            inject_aext(e, pol), lambda s: step_extended_abstract(s, pol), is_final_ext
        )
        joined = set()
        for s in g.states:
            for v in astore_get(s.store, MonoBindA("x")):
                if isinstance(v, Closure):
                    joined.add(v.lam.label)
        assert joined == {labels["a"], labels["b"]}

    def test_uncaught_throw_has_no_final_states(self):
        pol = KCFAPolicy(0)
        g = explore_states(
            inject_aext(parse("(throw #f)"), pol),
            lambda s: step_extended_abstract(s, pol),
            is_final_ext,
        )
        assert g.finals == ()

    def test_simulation_on_the_fixtures(self):
        for src in (F_IF, F_SET, F_CC, F_CATCH):
            e = parse(src)
            tr = run_ext(e, policy=TIME_KEYED_POLICY)
            assert tr.outcome == "final"
            for k in (0, 1):
                pol = KCFAPolicy(k)
                g = explore_states(
                    inject_aext(e, pol),
                    lambda s: step_extended_abstract(s, pol),
                    is_final_ext,
                )
                assert alpha_simulated(
                    tr.states,
                    lambda s: alpha_ext_state(s, k),
                    g,
                    lambda s: step_extended_abstract(s, pol),
                )
