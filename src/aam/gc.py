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
the bindings of its free variables in the object's ``env`` field, or, in
an object with no environment (the monovariant machine), to the
variable-named ``MonoBindA`` addresses; other fields are walked in turn.
``collect`` applies the same walk to a state, with its store left out, to
find the roots.
"""

from __future__ import annotations

from dataclasses import fields, replace
from functools import cache
from typing import Callable, Iterable

from .store import Addr, Env, FrozenMap, MonoBindA, StoreError, astore_get
from .syntax import Exp, free_vars


def live_exp(e: Exp, env: Env) -> frozenset[Addr]:
    """Addresses the expression can touch: its free variables' bindings."""
    return frozenset(env[x] for x in free_vars(e))


def live_mono(e: Exp) -> frozenset[Addr]:
    """Monovariant liveness: the machine without environments binds each
    variable at the address named after it."""
    return frozenset(MonoBindA(x) for x in free_vars(e))


@cache
def _walked_fields(cls) -> tuple[str, ...]:
    """Fields that can mention addresses: all but the environment, which
    only counts through the expressions it closes, the store, and the
    time."""
    return tuple(f.name for f in fields(cls) if f.name not in ("env", "store", "time"))


def live_locations(v) -> frozenset[Addr]:
    """Addresses directly mentioned by an address, expression, storable,
    value, frame, handler or (store aside) state."""
    if isinstance(v, Addr):
        return frozenset((v,))
    if isinstance(v, Exp):
        return live_mono(v)
    try:
        names = _walked_fields(type(v))
    except TypeError:
        raise TypeError(f"no liveness rule for {v!r}") from None
    env = getattr(v, "env", None)
    live: set[Addr] = set()
    for name in names:
        x = getattr(v, name)
        if isinstance(x, Addr):
            live.add(x)
        elif isinstance(x, Exp):
            live |= live_mono(x) if env is None else live_exp(x, env)
        elif hasattr(x, "__dataclass_fields__"):
            live |= live_locations(x)
    return frozenset(live)


def gc_reachable(
    roots: Iterable[Addr],
    store: FrozenMap,
    abstract: bool = False,
    live_fn: Callable = live_locations,
) -> frozenset[Addr]:
    """Transitive closure of liveness through the store.

    Concrete stores must resolve every reached address; abstract stores may
    leave an address unmapped (bottom), which contributes nothing.
    """
    reached: set[Addr] = set()
    work = list(roots)
    while work:
        a = work.pop()
        if a in reached:
            continue
        reached.add(a)
        if abstract:
            for v in astore_get(store, a):
                work.extend(live_fn(v))
        else:
            if a not in store:
                raise StoreError(f"live address {a!r} is unmapped")
            work.extend(live_fn(store[a]))
    return frozenset(reached)


def _roots(state) -> frozenset[Addr]:
    return live_locations(state)


def collect(state, abstract: bool = False):
    """Restrict the state's store to the addresses reachable from its
    roots."""
    live = gc_reachable(_roots(state), state.store, abstract)
    return replace(state, store=state.store.restrict(live))


def collecting_step(step: Callable) -> Callable:
    """Wrap a concrete step function so every successor state is collected."""

    def wrapped(state, *args, **kwargs):
        out = step(state, *args, **kwargs)
        successor = getattr(out, "state", None)  # only a Next outcome has one
        return out if successor is None else type(out)(collect(successor))

    return wrapped


def collecting_successors(successors: Callable) -> Callable:
    """Wrap an abstract successor function so every successor is
    collected."""

    def wrapped(state, *args, **kwargs) -> list:
        return [collect(s, abstract=True) for s in successors(state, *args, **kwargs)]

    return wrapped
