"""Liveness soundness against structural reachability, and exactness
against the reference collector.

For every machine that supports ``--gc``, run on the seeded corpora (bounded
by fuel for concrete machines, exhaustively for the desk-scale abstract
graphs), every address the collector keeps must be reachable from the
state's registers by the reflective walk of ``tests/oracles.py``, closed
through the store.  The collector may keep fewer addresses (it trims
environments to free variables), never more.

The collector keeps each storable's liveness on the object and closes
reachability by frontiers.  On the same states it must reach exactly what
``oracles.reference_gc_reachable`` reaches, recomputing every liveness
from the fields by a worklist, and every kept liveness must equal a fresh
computation.  With the reference collector patched into ``aam.gc``, the
collecting traces and collected graphs must come out the same, state for
state and edge for edge.

``0cfa`` is the ``kcfa`` machine at k = 0, so the ``kcfa`` runs at k = 0
cover it.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from corpus import UNIVERSE, divergent_corpus, extended_corpus, security_corpus, terminating_corpus
from oracles import reference_gc_reachable, reference_live_locations, reflective_addresses
from aam import gc
from aam.analysis import KCFAPolicy, explore_states, inject_abstract, is_final_abstract, step_abstract
from aam.extended import inject_aext, inject_extended, is_final_ext, step_extended, step_extended_abstract
from aam.gc import _roots, collect, collecting_step, collecting_successors, gc_reachable
from aam.inspection import (
    inject_acm,
    inject_cm,
    inject_cm_star,
    is_final_acm,
    step_cm,
    step_cm_abstract,
    step_cm_star,
)
from aam.lazy import (
    VARIANTS,
    inject_alk,
    inject_lk,
    inject_lk_star,
    is_final_alk,
    step_lk,
    step_lk_star,
    step_lk_star_abstract,
)
from aam.machines import TIME_KEYED_POLICY, inject_ceskt, run_trace, step_ceskt, trace_from

FUEL = 300
PROGRAMS = 12


def core_programs():
    return terminating_corpus()[:PROGRAMS] + divergent_corpus()[:4]


def structural_closure(state) -> set:
    """Addresses written anywhere in the state outside its store, closed
    through the store."""
    registers = tuple(getattr(state, f.name) for f in fields(state) if f.name != "store")
    seen: set = set()
    work = list(reflective_addresses(registers))
    while work:
        a = work.pop()
        if a in seen:
            continue
        seen.add(a)
        work.extend(reflective_addresses(state.store.get(a)))
    return seen


def concrete_traces():
    for e in core_programs():
        for machine in ("cesk", "ceskstar", "ceskt"):
            yield machine, run_trace(machine, e, FUEL).states
        yield "ceskt-time", run_trace("ceskt", e, FUEL, policy=TIME_KEYED_POLICY).states
        for v in VARIANTS:
            yield f"lk-{v}", trace_from(lambda s: step_lk(s, v), inject_lk(e), FUEL).states
            yield f"lk*-{v}", trace_from(lambda s: step_lk_star(s, variant=v), inject_lk_star(e), FUEL).states
    for e in extended_corpus()[:PROGRAMS]:
        yield "ext", trace_from(step_extended, inject_extended(e), FUEL).states
    for e in security_corpus()[:PROGRAMS]:
        yield "cm", trace_from(lambda s: step_cm(s, UNIVERSE), inject_cm(e, UNIVERSE), FUEL).states
        yield "cm*", trace_from(
            lambda s: step_cm_star(s, UNIVERSE), inject_cm_star(e, UNIVERSE), FUEL
        ).states


def abstract_graphs():
    for k in (0, 1):
        p = KCFAPolicy(k)
        for e in core_programs():
            yield f"kcfa{k}", explore_states(
                inject_abstract(e, p), lambda s: step_abstract(s, p), is_final_abstract
            ).states
            yield f"alk{k}", explore_states(
                inject_alk(e, p), lambda s: step_lk_star_abstract(s, p), is_final_alk
            ).states
        for e in extended_corpus()[:PROGRAMS]:
            yield f"aext{k}", explore_states(
                inject_aext(e, p), lambda s: step_extended_abstract(s, p), is_final_ext
            ).states
        for e in security_corpus()[:PROGRAMS]:
            yield f"acm{k}", explore_states(
                inject_acm(e, UNIVERSE, p), lambda s: step_cm_abstract(s, UNIVERSE, p), is_final_acm
            ).states


def runs(abstract: bool):
    return abstract_graphs() if abstract else concrete_traces()


@pytest.mark.parametrize("abstract", [False, True], ids=["concrete", "abstract"])
def test_collector_keeps_only_structurally_reachable_addresses(abstract):
    machines = set()
    for machine, states in runs(abstract):
        machines.add(machine)
        for s in states:
            live = gc_reachable(_roots(s), s.store, abstract)
            assert live <= structural_closure(s), (machine, s)
    assert len(machines) == (8 if abstract else 13)


def kept(x):
    """``x`` and the objects in its fields, recursively, that keep their
    liveness (a ``_live`` slot that is filled)."""
    out = []
    work = [x]
    while work:
        o = work.pop()
        if not hasattr(o, "__dataclass_fields__"):
            continue
        if getattr(o, "_live", None) is not None:
            out.append(o)
        work.extend(getattr(o, f.name) for f in fields(o) if f.name not in ("env", "store", "time"))
    return out


@pytest.mark.parametrize("abstract", [False, True], ids=["concrete", "abstract"])
def test_collector_reaches_exactly_what_the_reference_reaches(abstract):
    machines, checked = set(), 0
    for machine, states in runs(abstract):
        machines.add(machine)
        for s in states:
            roots = _roots(s)
            live = gc_reachable(roots, s.store, abstract)
            assert roots == reference_live_locations(s), (machine, s)
            assert live == reference_gc_reachable(roots, s.store, abstract), (machine, s)
            for a in live:
                stored = s.store.get(a, frozenset())
                for v in stored if abstract else (stored,):
                    for o in kept(v):
                        assert o._live == reference_live_locations(o), (machine, o)
                        checked += 1
    assert len(machines) == (8 if abstract else 13)
    assert checked


# ---------------------------------------------------------------------------
# The collecting runs are the same under the reference collector
# ---------------------------------------------------------------------------


def collecting_traces():
    """(machine, run) for every collecting concrete machine and program;
    ``run()`` traces with collection after every step."""
    for e in core_programs():
        yield "ceskt-gc", lambda e=e: trace_from(
            collecting_step(step_ceskt), collect(inject_ceskt(e)), FUEL)
        for v in VARIANTS:
            yield f"lk-{v}-gc", lambda e=e, v=v: trace_from(
                collecting_step(lambda s: step_lk(s, v)), collect(inject_lk(e)), FUEL)
            yield f"lk*-{v}-gc", lambda e=e, v=v: trace_from(
                collecting_step(lambda s: step_lk_star(s, variant=v)), collect(inject_lk_star(e)), FUEL)
    for e in extended_corpus()[:PROGRAMS]:
        yield "ext-gc", lambda e=e: trace_from(
            collecting_step(step_extended), collect(inject_extended(e)), FUEL)
    for e in security_corpus()[:PROGRAMS]:
        yield "cm*-gc", lambda e=e: trace_from(
            collecting_step(lambda s: step_cm_star(s, UNIVERSE)), collect(inject_cm_star(e, UNIVERSE)), FUEL)


def collected_graphs():
    """(machine, run) for every collected abstract search and program."""
    def search(initial, successors, is_final):
        return explore_states(collect(initial, abstract=True), collecting_successors(successors), is_final)

    for k in (0, 1):
        p = KCFAPolicy(k)
        for e in core_programs():
            yield f"kcfa{k}-gc", lambda e=e, p=p: search(
                inject_abstract(e, p), lambda s: step_abstract(s, p), is_final_abstract)
            yield f"alk{k}-gc", lambda e=e, p=p: search(
                inject_alk(e, p), lambda s: step_lk_star_abstract(s, p), is_final_alk)
        for e in extended_corpus()[:PROGRAMS]:
            yield f"aext{k}-gc", lambda e=e, p=p: search(
                inject_aext(e, p), lambda s: step_extended_abstract(s, p), is_final_ext)
        for e in security_corpus()[:PROGRAMS]:
            yield f"acm{k}-gc", lambda e=e, p=p: search(
                inject_acm(e, UNIVERSE, p), lambda s: step_cm_abstract(s, UNIVERSE, p), is_final_acm)


def _reference_collector(monkeypatch) -> list:
    """Patch the reference liveness and closure into ``aam.gc``; the
    returned list counts the reference closures run."""
    calls = []

    def reachable(*args, **kwargs):
        calls.append(None)
        return reference_gc_reachable(*args, **kwargs)

    monkeypatch.setattr(gc, "gc_reachable", reachable)
    monkeypatch.setattr(gc, "_roots", reference_live_locations)
    return calls


def test_collecting_traces_are_the_same_under_the_reference_collector(monkeypatch):
    cases = list(collecting_traces())
    traces = [run() for _machine, run in cases]
    calls = _reference_collector(monkeypatch)
    for (machine, run), t in zip(cases, traces):
        ref = run()
        assert (t.states, t.outcome, t.steps) == (ref.states, ref.outcome, ref.steps), machine
    assert len(calls) == sum(len(t.states) for t in traces)
    assert {m for m, _ in cases} == {
        "ceskt-gc", "ext-gc", "cm*-gc", *(f"{lk}-{v}-gc" for lk in ("lk", "lk*") for v in VARIANTS)}


def test_collected_graphs_are_the_same_under_the_reference_collector(monkeypatch):
    cases = list(collected_graphs())
    graphs = [run() for _machine, run in cases]
    calls = _reference_collector(monkeypatch)
    for (machine, run), g in zip(cases, graphs):
        ref = run()
        assert (g.states, g.edges, g.finals) == (ref.states, ref.edges, ref.finals), machine
    assert calls
    assert len({m for m, _ in cases}) == 8
