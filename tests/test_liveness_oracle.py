"""Liveness soundness against structural reachability.

For every machine that supports ``--gc``, run on the seeded corpora (bounded
by fuel for concrete machines, exhaustively for the desk-scale abstract
graphs), every address the collector keeps must be reachable from the
state's registers by the reflective walk of ``tests/oracles.py``, closed
through the store.  The collector may keep fewer addresses (it trims
environments to free variables), never more.

``0cfa`` is the ``kcfa`` machine at k = 0, so the ``kcfa`` runs at k = 0
cover it.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from corpus import UNIVERSE, divergent_corpus, extended_corpus, security_corpus, terminating_corpus
from oracles import reflective_addresses
from aam.analysis import KCFAPolicy, explore_states, inject_abstract, is_final_abstract, step_abstract
from aam.extended import inject_aext, inject_extended, is_final_ext, step_extended, step_extended_abstract
from aam.gc import _roots, gc_reachable
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
from aam.machines import TIME_KEYED_POLICY, run_trace, trace_from

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


@pytest.mark.parametrize("abstract", [False, True], ids=["concrete", "abstract"])
def test_collector_keeps_only_structurally_reachable_addresses(abstract):
    runs = abstract_graphs() if abstract else concrete_traces()
    machines = set()
    for machine, states in runs:
        machines.add(machine)
        for s in states:
            live = gc_reachable(_roots(s), s.store, abstract)
            assert live <= structural_closure(s), (machine, s)
    assert len(machines) == (8 if abstract else 13)
