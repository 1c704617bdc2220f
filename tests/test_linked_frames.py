"""Where each concrete machine keeps its frames.

The linked machines (``cesk``, the three ``lk`` variants and ``cm``) hold
the whole continuation in the ``kont`` register: it is a chain of frames
ending in the empty continuation, and no frame is ever written to the
store.  So do the timed machines (``ceskt``, ``lk*`` and ``cm*``) under
``LinkedPolicy(TIME_KEYED_POLICY)``: linking frames is independent of how
times and bindings are allocated.  The store-allocated machines
(``ceskstar``, ``ceskt``, ``lk*`` and ``cm*``) hold one frame in the
register and the rest in the store: every frame's tail, in the register or
in the store, is an address.

Checked on every state of every trace over the seeded corpora; divergent
programs run on a small fuel.
"""

from __future__ import annotations

import pytest

from corpus import UNIVERSE, divergent_corpus, security_corpus, terminating_corpus
from aam.inspection import MtM, inject_cm, inject_cm_star, step_cm, step_cm_star
from aam.lazy import VARIANTS, inject_lk, inject_lk_star, step_lk, step_lk_star
from aam.machines import (
    TIME_KEYED_POLICY,
    Kont,
    LinkedPolicy,
    Mt,
    inject_ceskt,
    run_trace,
    step_ceskt,
    trace_from,
)
from aam.store import Addr

FUEL = 1000
DIVERGENT_FUEL = 60
EMPTY = (Mt, MtM)


def core_runs():
    """(program, fuel) over the terminating and divergent corpora."""
    return [(e, FUEL) for e in terminating_corpus()] + [
        (e, DIVERGENT_FUEL) for e in divergent_corpus()
    ]


def linked_traces():
    for e, fuel in core_runs():
        yield "cesk", run_trace("cesk", e, fuel)
        for v in VARIANTS:
            yield f"lk-{v}", trace_from(lambda s: step_lk(s, v), inject_lk(e), fuel)
    for e in security_corpus():
        yield "cm", trace_from(lambda s: step_cm(s, UNIVERSE), inject_cm(e, UNIVERSE), FUEL)


def linked_time_keyed_traces():
    policy = LinkedPolicy(TIME_KEYED_POLICY)
    for e, fuel in core_runs():
        yield "ceskt", trace_from(lambda s: step_ceskt(s, policy), inject_ceskt(e, policy), fuel)
        for v in VARIANTS:
            yield f"lk*-{v}", trace_from(
                lambda s: step_lk_star(s, policy, v), inject_lk_star(e, policy), fuel
            )
    for e in security_corpus():
        yield "cm*", trace_from(
            lambda s: step_cm_star(s, UNIVERSE, policy), inject_cm_star(e, UNIVERSE, policy), FUEL
        )


def stored_traces():
    for e, fuel in core_runs():
        yield "ceskstar", run_trace("ceskstar", e, fuel)
        yield "ceskt", run_trace("ceskt", e, fuel)
        for v in VARIANTS:
            yield f"lk*-{v}", trace_from(lambda s: step_lk_star(s, variant=v), inject_lk_star(e), fuel)
    for e in security_corpus():
        yield "cm*", trace_from(
            lambda s: step_cm_star(s, UNIVERSE), inject_cm_star(e, UNIVERSE), FUEL
        )


def linked_chain_problem(kont) -> str | None:
    """Why ``kont`` is not a chain of frames ending in an empty
    continuation, or None."""
    k = kont
    while not isinstance(k, EMPTY):
        if not isinstance(k, Kont):
            return f"chain reaches the non-frame {k!r}"
        k = k.tail
    return None


RUNS = {
    "linked": linked_traces,
    "stored": stored_traces,
    "linked-time-keyed": linked_time_keyed_traces,
}


@pytest.mark.parametrize("kind", list(RUNS))
def test_frames_live_where_the_machine_says(kind):
    linked = kind != "stored"
    runs = RUNS[kind]()
    machines = set()
    for machine, trace in runs:
        machines.add(machine)
        assert len(trace.states) >= 1
        for s in trace.states:
            if linked:
                problem = linked_chain_problem(s.kont)
                assert problem is None, (machine, problem, s)
                stored = [v for v in s.store.values() if isinstance(v, Kont)]
                assert not stored, (machine, stored, s)
            else:
                frames = [s.kont] + [v for v in s.store.values() if isinstance(v, Kont)]
                for f in frames:
                    if not isinstance(f, EMPTY):
                        assert isinstance(f.tail, Addr), (machine, f, s)
    assert len(machines) == (5 if linked else 6)
