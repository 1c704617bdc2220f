"""Garbage collection for store-based machines.

A machine step never deletes store entries, so stores grow monotonically
and abstract stores accumulate flow facts for bindings that can no longer
influence the result.  Collection computes the set of addresses reachable
from a state's roots (its control, environment, continuation, and handler
register) and restricts the store to them.

In a concrete machine this is a space optimisation that leaves the trace's
controls untouched.  In an abstract machine it is a precision improvement:
dead bindings joined at a reused address would otherwise flow into later
lookups, so collecting between steps yields fewer states and smaller value
sets.

Liveness is one walk over any machine's objects, so it knows no machine:
an address is live where it is written; an expression field is trimmed to
the bindings of its free variables in the object's ``env`` field (every
object that holds syntax also holds the environment closing it); other
fields are walked in turn.  ``collect`` applies the same walk to a state,
with its store left out, to find the roots.

An object's liveness depends on its own fields alone, and they never
change, so a storable computes it once and keeps it in the ``_live`` slot
of its base (``Value``, ``Kont``, ``Storable``, ``Handler``), the way
``syntax.free_vars`` keeps a node's free variables.  A linked continuation
is therefore walked once per frame object, not once per collection.
Reachability closes by frontiers: each round takes the union of the
liveness of the addresses first reached in the round before, as C set
operations over those kept sets.
"""

from __future__ import annotations

from dataclasses import fields, replace
from functools import cache
from typing import Callable, Iterable

from .store import _ABSENT, Addr, Env, FrozenMap, StoreError
from .syntax import Exp, free_vars


def live_exp(e: Exp, env: Env) -> frozenset[Addr]:
    """Addresses the expression can touch: its free variables' bindings."""
    return frozenset(env[x] for x in free_vars(e))


@cache
def _walked_fields(cls) -> tuple[str, ...]:
    """Fields that can mention addresses: all but the environment, which
    only counts through the expressions it closes, the store, and the
    time."""
    return tuple(f.name for f in fields(cls) if f.name not in ("env", "store", "time"))


def live_locations(v) -> frozenset[Addr]:
    """Addresses directly mentioned by an address, expression, storable,
    value, frame, handler or (store aside) state.  An object whose base
    has a ``_live`` slot computes them once and keeps them there; a state
    or an address computes them on every call."""
    try:
        return v._live
    except AttributeError:
        pass
    if isinstance(v, Addr):
        return frozenset((v,))
    try:
        names = _walked_fields(type(v))
    except TypeError:
        raise TypeError(f"no liveness rule for {v!r}") from None
    live: set[Addr] = set()
    for name in names:
        x = getattr(v, name)
        if isinstance(x, Addr):
            live.add(x)
        elif isinstance(x, Exp):
            live |= live_exp(x, v.env)
        elif hasattr(x, "__dataclass_fields__"):
            live |= live_locations(x)
    kept = frozenset(live)
    try:
        v._live = kept
    except AttributeError:  # no slot for it
        pass
    return kept


def gc_reachable(
    roots: Iterable[Addr],
    store: FrozenMap,
    abstract: bool = False,
    live_fn: Callable = live_locations,
) -> frozenset[Addr]:
    """Transitive closure of liveness through the store, by frontiers:
    each round adds what the addresses reached in the round before make
    live and were not reached yet.

    Concrete stores must resolve every reached address, so a concrete
    live set holds only mapped addresses; abstract stores may leave an
    address unmapped (bottom), which contributes nothing.
    """
    frontier = reached = set(roots)
    while frontier:
        found: set[Addr] = set()
        for a in frontier:
            v = store.get(a, _ABSENT)
            if v is _ABSENT:
                if not abstract:
                    raise StoreError(f"live address {a!r} is unmapped")
            elif abstract:
                for x in v:
                    found.update(live_fn(x))
            else:
                found.update(live_fn(v))
        frontier = found - reached
        reached |= frontier
    return frozenset(reached)


def _roots(state) -> frozenset[Addr]:
    return live_locations(state)


def collect(state, abstract: bool = False, sem=None):
    """Restrict the state's store to the addresses reachable from its
    roots.  When every address is live the state itself is returned, so
    its store keeps its hash and allocation mark.  An interning store
    semantics ``sem`` gives the collected store its canonical copy.

    A concrete live set holds only mapped addresses, so equal lengths mean
    nothing is dead.  An abstract live set may name unmapped addresses, so
    abstract collection tests that it covers the store."""
    store = state.store
    live = gc_reachable(_roots(state), store, abstract)
    if (live.issuperset(store) if abstract else len(live) == len(store)):
        return state
    store = store.restrict(live)
    return replace(state, store=store if sem is None else sem.canonical(store))


def collecting_step(step: Callable) -> Callable:
    """Wrap a concrete step function so every successor state is collected.
    An outcome whose successor has nothing dead is returned as it is."""

    def wrapped(state, *args, **kwargs):
        out = step(state, *args, **kwargs)
        successor = getattr(out, "state", None)  # only a Next outcome has one
        if successor is None:
            return out
        collected = collect(successor)
        return out if collected is successor else type(out)(collected)

    return wrapped


def collecting_successors(successors: Callable, sem=None) -> Callable:
    """Wrap an abstract successor function so every successor is
    collected (through ``sem``, as ``collect`` says)."""

    def wrapped(state, *args, **kwargs) -> list:
        return [collect(s, True, sem) for s in successors(state, *args, **kwargs)]

    return wrapped
