"""Abstract interpretation of the core language.

The abstract machine is the time-stamped star machine re-read over an
abstract store: ``step_abstract`` fires the same ``machines._core_rules``
as ``step_ceskt``, with ``ABSTRACT_STORE`` in place of ``CONCRETE_STORE``,
so addresses hold non-empty sets of storables, store update joins, and
lookups fan out into one successor per storable.  Termination is by
exhaustion of the finite state space, never by fuel.

There are two ways to explore:

* ``explore``          breadth-first reachable-state graph, per-state stores
* ``analyze_widened``  single-threaded global store: the system is a set of
                       store-less contexts plus one store, iterated to a
                       fixed point

``explore_states`` is the graph search for any successor function, and
indexes states by value.  ``explore_rules``, behind ``explore``,
``explore_0cfa`` and the command line's per-state searches, runs the same
loop over a language's rules read through an ``interning.InterningStore``
made for that one search, which builds each frame, closure, environment
and store once; the policy makes each time and address once.  So the
search indexes a state by the identities of its parts
(``CESKtState.part_ids``) and hashes no state; the store's tables die
with the search.

The policy is ``machines.KCFAPolicy`` at a bound k: the allocator of the
concrete time-keyed machine, ``KCFAPolicy(None)``, with every contour cut to
its first k labels.  0CFA is not a separate machine: ``explore_0cfa``,
``analyze_widened_0cfa`` and ``step_0cfa`` read the same rules under
``MONOVARIANT``, the k = 0 policy, whose addresses are variable names and
site labels.

``abstraction_map`` sends states of the concrete time-keyed machine into
the k-bounded abstract state space by truncating every contour (in the time
and inside every address) to its first k entries, and ``state_leq`` is the
induced order: identical up to the store, stores ordered pointwise.  The
truncation is one field-walking map, ``alpha_fields``, shared by every
language's states, frames and storables.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass

from .gc import collect, collecting_successors
from .machines import (
    CESKtState,
    CORE,
    KCFAPolicy,
    Language,
    _core_rules,
    is_final_abstract,
)
from .store import (
    ABSTRACT_STORE,
    Addr,
    BindA,
    Contour,
    EMPTY_ASTORE,
    Env,
    FrozenMap,
    KontA,
    MonoBindA,
    MonoKontA,
    MonoUpdateA,
    Time,
    UpdateA,
    astore_join,
    astore_leq,
    sort_key,  # no caller here; bench/test_bench.py checks the tracer rebinds it
)
from .syntax import Exp, _field_names

# Abstract states have the concrete time-stamped machine's fields; only the
# store they carry is read differently.
AbstractState = CESKtState


def inject_abstract(e: Exp, policy: KCFAPolicy) -> CESKtState:
    return CORE.inject(e, None, policy.t0)


def step_abstract(s: CESKtState, policy: KCFAPolicy) -> list[CESKtState]:
    """All one-step successors, in a deterministic order."""
    return _core_rules(s, ABSTRACT_STORE, policy)


# ---------------------------------------------------------------------------
# Reachable-state graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateGraph:
    """States in first-discovery order (index 0 is the initial state)."""

    states: tuple
    edges: frozenset  # of (source index, target index)
    finals: tuple
    initial: int = 0


def explore_states(initial, successors, is_final, order: str = "bfs") -> StateGraph:
    """Generic graph search; the seen set is checked before enqueueing, so
    any worklist discipline yields the same state and edge sets.  Each
    successor is hashed once: a single ``setdefault`` both looks it up and,
    if it is new, numbers it, and the worklist holds indices."""
    return _search(initial, successors, is_final, order, None)


def _search(initial, successors, is_final, order: str, key) -> StateGraph:
    """The one search loop.  ``key`` is None to index states by value, or
    the states' ``part_ids`` when equal parts are one object
    (``explore_rules``)."""
    if order not in ("bfs", "dfs"):
        raise ValueError(f"unknown search order {order!r}: 'bfs' or 'dfs'")
    index = {initial if key is None else key(initial): 0}
    states = [initial]
    edges: set[tuple[int, int]] = set()
    finals: list[int] = []
    if is_final(initial):
        finals.append(0)
    queue = deque([0])
    pop = queue.popleft if order == "bfs" else queue.pop
    while queue:
        i = pop()
        for t in successors(states[i]):
            j = index.setdefault(t if key is None else key(t), len(states))
            if j == len(states):
                states.append(t)
                if is_final(t):
                    finals.append(j)
                queue.append(j)
            edges.add((i, j))
    return StateGraph(tuple(states), frozenset(edges), tuple(sorted(finals)))


def explore_rules(lang: Language, initial, policy, arg=None, order: str = "bfs",
                  collecting: bool = False) -> StateGraph:
    """The per-state graph of ``lang``'s rules from ``initial`` under
    ``policy``, a ``KCFAPolicy``, over an ``InterningStore`` made for this
    search alone.  Every part of every successor the rules build is
    canonical, so states are indexed by the identities of their parts and
    none is hashed; the store's tables die with the search.  With
    ``collecting``, every state's store is first restricted to what it can
    reach (``gc.collect``) and made canonical.  The graph equals
    ``explore_states`` over ``ABSTRACT_STORE``.  Any other policy class,
    which may build a second time or address equal to one it made, would
    make the search run forever, so it is refused: search with it through
    ``explore_states``."""
    if type(policy) is not KCFAPolicy:
        raise TypeError(f"explore_rules needs a KCFAPolicy, not {type(policy).__name__}; "
                        "search with other policies through explore_states")
    from .interning import InterningStore

    sem = InterningStore()
    rules = lang.rules

    def successors(s):
        return rules(s, sem, policy, arg)

    initial = sem.state(initial)
    if collecting:
        initial = collect(initial, True, sem)
        successors = collecting_successors(successors, sem)
    return _search(initial, successors, lang.final, order, type(initial).part_ids)


def explore(e: Exp, policy: KCFAPolicy, order: str = "bfs") -> StateGraph:
    return explore_rules(CORE, inject_abstract(e, policy), policy, None, order)


# ---------------------------------------------------------------------------
# The truncation map and the state order
# ---------------------------------------------------------------------------


def alpha_time(t: Time, k: int) -> Contour:
    if not isinstance(t, Contour):
        raise TypeError("only contour times abstract by truncation")
    return Contour(t.labels[:k])


def alpha_addr(a: Addr, k: int) -> Addr:
    if isinstance(a, BindA):
        return MonoBindA(a.var) if k == 0 else BindA(a.var, alpha_time(a.time, k))
    if isinstance(a, KontA):
        return MonoKontA(a.site, a.tag) if k == 0 else KontA(a.site, alpha_time(a.time, k), a.tag)
    if isinstance(a, UpdateA):
        return MonoUpdateA(a.var) if k == 0 else UpdateA(a.var, alpha_time(a.time, k))
    raise TypeError(f"address {a!r} is not in the truncation map's domain")


def alpha_env(env: Env, k: int) -> Env:
    return FrozenMap({x: alpha_addr(a, k) for x, a in env.items()})


def alpha_fields(x, k: int):
    """Truncate every contour inside a state, frame, value, handler or
    storable of any language: addresses and times are truncated, the
    ``store`` field goes through ``alpha_store``, maps (environments, marks)
    and other dataclasses are walked field by field, syntax is kept."""
    if isinstance(x, Addr):
        return alpha_addr(x, k)
    if isinstance(x, Time):
        return alpha_time(x, k)
    if isinstance(x, FrozenMap):
        return FrozenMap({key: alpha_fields(v, k) for key, v in x.items()})
    if isinstance(x, Exp) or not dataclasses.is_dataclass(x):
        return x
    return type(x)(*(
        alpha_store(getattr(x, name), k) if name == "store" else alpha_fields(getattr(x, name), k)
        for name in _field_names(type(x))
    ))


def alpha_storable_core(v, k: int):
    """The truncation of one storable; storables of every language take the
    same field walk."""
    return alpha_fields(v, k)


def alpha_store(store: FrozenMap, k: int, alpha_storable=alpha_storable_core) -> FrozenMap:
    grouped: dict[Addr, set] = {}
    for a, v in store.items():
        grouped.setdefault(alpha_addr(a, k), set()).add(alpha_storable(v, k))
    return FrozenMap({a: frozenset(vs) for a, vs in grouped.items()})


def abstraction_map(s: CESKtState, k: int) -> CESKtState:
    """Truncate a concrete time-keyed state to the k-bounded space."""
    return alpha_fields(s, k)


def state_leq(s1, s2) -> bool:
    """Pointwise order: equal everywhere except the store, stores ordered
    by pointwise subset.  Applies to any state type with a store field."""
    if type(s1) is not type(s2):
        return False
    if dataclasses.replace(s1, store=EMPTY_ASTORE) != dataclasses.replace(s2, store=EMPTY_ASTORE):
        return False
    return astore_leq(s1.store, s2.store)


# ---------------------------------------------------------------------------
# Store widening
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WidenedSystem:
    """Contexts are states with the store stripped (set to the empty
    abstract store); one global store serves all of them.  ``edges`` holds
    each (context, successor context) pair that stepping a context against
    the final store yields."""

    contexts: frozenset
    store: FrozenMap
    iterations: int
    edges: frozenset


def strip_store(state):
    return dataclasses.replace(state, store=EMPTY_ASTORE)


def widened_fixpoint(initial, successors) -> WidenedSystem:
    """Kleene iteration from the empty system.  Each round steps every
    context against the global store, joins all produced stores, and adds
    the injected context; ``iterations`` counts the strictly-growing
    rounds.  The last round changes nothing, so the steps it took are the
    system's edges.  A step that wrote nothing new returns the round's
    store itself (see ``store.astore_add``), which the round's join already
    holds, so it is not joined again."""
    contexts: set = set()
    store = EMPTY_ASTORE
    inj = strip_store(initial)
    iterations = 0
    while True:
        new_contexts = set(contexts)
        new_store = store
        edges = []
        for ctx in contexts:
            for t in successors(dataclasses.replace(ctx, store=store)):
                succ = strip_store(t)
                new_contexts.add(succ)
                edges.append((ctx, succ))
                if t.store is not store:
                    new_store = astore_join(new_store, t.store)
        new_contexts.add(inj)
        if new_contexts == contexts and new_store == store:
            return WidenedSystem(frozenset(contexts), store, iterations, frozenset(edges))
        contexts, store = new_contexts, new_store
        iterations += 1


def analyze_widened(e: Exp, policy: KCFAPolicy) -> WidenedSystem:
    return widened_fixpoint(
        inject_abstract(e, policy), lambda s: step_abstract(s, policy)
    )


# ---------------------------------------------------------------------------
# 0CFA: the same machine under the monovariant policy
# ---------------------------------------------------------------------------

MONOVARIANT = KCFAPolicy(0)


def inject_0cfa(e: Exp) -> CESKtState:
    return inject_abstract(e, MONOVARIANT)


def step_0cfa(s: CESKtState) -> list[CESKtState]:
    return step_abstract(s, MONOVARIANT)


is_final_0cfa = is_final_abstract


def explore_0cfa(e: Exp, order: str = "bfs") -> StateGraph:
    return explore(e, MONOVARIANT, order)


def analyze_widened_0cfa(e: Exp) -> WidenedSystem:
    return analyze_widened(e, MONOVARIANT)


def monovariant_iteration_bound(e: Exp) -> int:
    """Worst-case number of strictly-growing widened rounds, from the sizes
    of the monovariant state space: one new context or one new store entry
    per round."""
    from .syntax import lam_count, node_count, var_names

    n_exp = node_count(e)
    n_var = len(var_names(e))
    n_lam = lam_count(e)
    return n_exp * (1 + 2 * n_exp**2) + (n_var + n_exp) * (n_lam + 1 + 2 * n_exp**2)
