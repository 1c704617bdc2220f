"""The concrete machine tower: CEK, CESK, CESK*, CESK*t."""

from __future__ import annotations

import dataclasses

import pytest

from corpus import divergent_corpus, terminating_corpus
from oracles import (
    alpha_equal,
    cbv_normalize,
    cek_value_term,
    store_value_term,
    to_cek_state,
)
from aam.extended import ArX, FnX, IfK, SetK
from aam.inspection import EMPTY_MARKS, ArM, FnM, MtM
from aam.lazy import ApplyExpK, ApplyK, UpdateK
from aam.machines import (
    FRESH_POLICY,
    MACHINES,
    MT,
    TIME_KEYED_POLICY,
    Ar,
    Closure,
    Fn,
    FreshTickPolicy,
    Final,
    Kont,
    Next,
    Value,
    inject_ceskt,
    run_trace,
    step_cek,
    step_ceskt,
    trace_from,
)
from aam.store import (
    EMPTY_MAP,
    BindA,
    Contour,
    FreshA,
    KontA,
    Tick,
    cached_repr,
    time_strictly_precedes,
)
from aam.syntax import parse, unparse

TOWER = ("cek", "cesk", "ceskstar", "ceskt")


class TestAgainstSubstitution:
    def test_cek_matches_textual_beta(self):
        for e in terminating_corpus():
            t = run_trace("cek", e, 1000)
            assert t.outcome == "final"
            assert alpha_equal(cek_value_term(t.value), cbv_normalize(e)), unparse(e)

    def test_store_machines_match_textual_beta(self):
        for e in terminating_corpus()[:12]:
            want = cbv_normalize(e)
            for m in ("cesk", "ceskstar", "ceskt"):
                t = run_trace(m, e, 1000)
                assert t.outcome == "final"
                got = store_value_term(t.value, t.states[-1].store)
                assert alpha_equal(got, want), (m, unparse(e))


class TestLockStep:
    def test_traces_relate_index_wise(self):
        for e in terminating_corpus():
            ref = run_trace("cek", e, 1000)
            for m in ("cesk", "ceskstar", "ceskt"):
                t = run_trace(m, e, 1000)
                assert t.outcome == "final"
                assert len(t.states) == len(ref.states), (m, unparse(e))
                for a, b in zip(ref.states, t.states):
                    assert to_cek_state(b) == a, (m, unparse(e))

    def test_final_values_relate(self):
        for e in terminating_corpus():
            ref = run_trace("cek", e, 1000)
            want = cek_value_term(ref.value)
            for m in ("cesk", "ceskstar", "ceskt"):
                t = run_trace(m, e, 1000)
                got = store_value_term(t.value, t.states[-1].store)
                assert alpha_equal(got, want), (m, unparse(e))

    def test_time_keyed_policy_locks_step_too(self):
        for e in terminating_corpus()[:15]:
            ref = run_trace("cek", e, 1000)
            t = run_trace("ceskt", e, 1000, policy=TIME_KEYED_POLICY)
            assert len(t.states) == len(ref.states)
            for a, b in zip(ref.states, t.states):
                assert to_cek_state(b) == a


class TestTimeAndAddresses:
    def test_fresh_policy_times_ascend(self):
        for e in terminating_corpus()[:10]:
            t = run_trace("ceskt", e, 1000)
            for a, b in zip(t.states, t.states[1:]):
                assert time_strictly_precedes(a.time, b.time)
                assert isinstance(b.time, Tick)

    def test_time_keyed_times_ascend_and_record_labels(self):
        for e in terminating_corpus()[:10]:
            t = run_trace("ceskt", e, 1000, policy=TIME_KEYED_POLICY)
            for a, b in zip(t.states, t.states[1:]):
                assert time_strictly_precedes(a.time, b.time)
                assert isinstance(b.time, Contour)
                assert len(b.time.labels) == len(a.time.labels) + 1

    def test_address_families_per_policy(self):
        e = parse("((lambda (x) (x x)) (lambda (y) y))")
        t = run_trace("ceskt", e, 100)
        assert all(isinstance(a, FreshA) for a in t.states[-1].store)
        t = run_trace("ceskt", e, 100, policy=TIME_KEYED_POLICY)
        assert all(isinstance(a, (BindA, KontA)) for a in t.states[-1].store)


class TestStepDiscipline:
    def test_deterministic(self):
        for e in terminating_corpus()[:10]:
            t = run_trace("cek", e, 1000)
            for s in t.states[:-1]:
                assert step_cek(s) == step_cek(s)

    def test_every_non_last_state_steps(self):
        for e in terminating_corpus()[:10]:
            for m in TOWER:
                t = run_trace(m, e, 1000)
                _, step = MACHINES[m]
                for s in t.states[:-1]:
                    assert isinstance(step(s, FRESH_POLICY), Next)
                assert isinstance(step(t.states[-1], FRESH_POLICY), Final)

    def test_open_program_gets_stuck(self):
        e = parse("(x (lambda (y) y))")
        for m in TOWER:
            t = run_trace(m, e, 100)
            assert t.outcome == "stuck"
            assert "unbound" in t.reason

    def test_unknown_machine_rejected(self):
        with pytest.raises(ValueError):
            run_trace("seck", parse("(lambda (x) x)"), 10)


class TestFuel:
    def test_divergent_terms_exhaust_fuel(self):
        for e in divergent_corpus():
            t = run_trace("cek", e, 300)
            assert t.outcome == "fuel"
            assert len(t.states) == 301

    def test_divergence_is_machine_independent(self):
        for e in divergent_corpus()[:5]:
            for m in TOWER:
                assert run_trace(m, e, 200).outcome == "fuel"


class TestPolicyAsserts:
    def test_stale_allocation_is_caught(self):
        class Rebinder(FreshTickPolicy):
            def alloc_kont(self, site, state, kont, tag="kont"):
                return FreshA(0)

        e = parse("((lambda (x) (x x)) (lambda (y) y))")
        with pytest.raises(AssertionError, match="fresh"):
            trace_from(
                lambda s: step_ceskt(s, Rebinder()), inject_ceskt(e, Rebinder()), 100
            )

    def test_non_advancing_tick_is_caught(self):
        class Stutter(FreshTickPolicy):
            def tick(self, state, kont):
                return state.time

        e = parse("((lambda (x) x) (lambda (y) y))")
        with pytest.raises(AssertionError, match="advance"):
            trace_from(
                lambda s: step_ceskt(s, Stutter()), inject_ceskt(e, Stutter()), 100
            )


LAM = parse("(lambda (x) (x x))")
ENV = EMPTY_MAP.set("y", FreshA(0))
# name -> (make a fresh object, a field to replace, a value to replace it with),
# for every class that renders through ``cached_repr``
RENDERED = {
    "Closure": (lambda: Closure(LAM, ENV), "env", EMPTY_MAP),
    "Ar": (lambda: Ar(LAM.body, ENV, FreshA(1)), "tail", FreshA(2)),
    "Fn": (lambda: Fn(LAM, ENV, MT), "env", EMPTY_MAP),
    "UpdateK": (lambda: UpdateK(FreshA(1), MT), "target", FreshA(2)),
    "ApplyK": (lambda: ApplyK(FreshA(1), MT), "arg", FreshA(2)),
    "ApplyExpK": (lambda: ApplyExpK(LAM.body, ENV, MT), "env", EMPTY_MAP),
    "ArX": (lambda: ArX(LAM.body, ENV, 3, FreshA(1)), "site", 4),
    "FnX": (lambda: FnX(Closure(LAM, ENV), 3, FreshA(1)), "op", Closure(LAM, EMPTY_MAP)),
    "IfK": (lambda: IfK(LAM.body, LAM, ENV, 4, FreshA(1)), "site", 5),
    "SetK": (lambda: SetK(FreshA(0), 3, FreshA(1)), "target", FreshA(2)),
    "MtM": (lambda: MtM(EMPTY_MARKS.set("p", True)), "marks", EMPTY_MARKS),
    "ArM": (lambda: ArM(LAM.body, ENV, marks=EMPTY_MARKS.set("p", True), tail=MT), "marks", EMPTY_MARKS),
    "FnM": (lambda: FnM(LAM, ENV, marks=EMPTY_MARKS, tail=MT), "tail", FreshA(1)),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestReprCache:
    """Closures and frames keep their text once rendered; the kept text is
    not a field."""

    def test_every_cached_repr_class_is_covered(self):
        cached = cached_repr(repr).__qualname__
        classes = {c.__name__ for base in (Value, Kont) for c in _subclasses(base)
                   if c.__repr__.__qualname__ == cached}
        assert classes == set(RENDERED)

    @pytest.mark.parametrize("name", RENDERED)
    def test_a_rendered_object_is_a_fresh_copy_rendered_once(self, name):
        make, _field, _value = RENDERED[name]
        rendered = make()
        text = repr(rendered)
        fresh = make()
        assert rendered == fresh and hash(rendered) == hash(fresh)
        assert repr(fresh) == text
        assert repr(rendered) is text

    @pytest.mark.parametrize("name", RENDERED)
    def test_a_replaced_object_renders_its_own_fields(self, name):
        make, field, value = RENDERED[name]
        rendered = make()
        text = repr(rendered)
        replaced = dataclasses.replace(rendered, **{field: value})
        assert repr(replaced) != text
        assert repr(replaced) == repr(dataclasses.replace(make(), **{field: value}))

    def test_a_linked_continuation_renders_as_if_uncached(self):
        def uncached(k):
            if isinstance(k, Ar):
                return f"Ar({k.exp!r} {k.env!r} {uncached(k.tail)})"
            if isinstance(k, Fn):
                return f"Fn({k.lam!r} {k.env!r} {uncached(k.tail)})"
            return repr(k)

        def depth(k):
            return 0 if k is MT else 1 + depth(k.tail)

        e = parse("((((lambda (a) a) (lambda (b) b)) ((lambda (c) c) (lambda (d) d))) (lambda (e) e))")
        trace = run_trace("cesk", e, 100)
        assert trace.outcome == "final"
        konts = [s.kont for s in trace.states]
        assert max(map(depth, konts)) >= 3
        # The last states first: an earlier state's frame is then read back
        # from the text kept when it was rendered as a later frame's tail.
        rendered = [repr(k) for k in reversed(konts)][::-1]
        assert rendered == [uncached(k) for k in konts]
        assert [repr(k) for k in konts] == rendered
