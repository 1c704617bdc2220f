"""Abstract interpretation of the core language.

The abstract machine is the time-stamped star machine re-read over an
abstract store: ``step_abstract`` fires the same ``machines._core_rules``
as ``step_ceskt``, with ``ABSTRACT_STORE`` in place of ``CONCRETE_STORE``,
so addresses hold non-empty sets of storables, store update joins, and
lookups fan out into one successor per storable.  Termination is by
exhaustion of the finite state space, never by fuel.

Three drivers are provided:

* ``explore``          breadth-first reachable-state graph, per-state stores
* ``explore_0cfa``     a specialized monovariant machine with no environment
                       (addresses are variable names and site labels)
* ``analyze_widened``  single-threaded global store: the system is a set of
                       store-less contexts plus one store, iterated to a
                       fixed point

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
from functools import cache

from .machines import (
    CESKtState,
    Kont,
    MT,
    Mt,
    _core_rules,
    is_final_abstract,
    tick_label,
)
from .store import (
    ABSTRACT_STORE,
    Addr,
    BindA,
    Contour,
    EMPTY_ASTORE,
    EMPTY_MAP,
    Env,
    FrozenMap,
    KontA,
    MonoBindA,
    MonoKontA,
    MonoUpdateA,
    TAG_KONT,
    Time,
    UpdateA,
    astore_add,
    astore_get,
    astore_join,
    astore_leq,
    sort_key,
)
from .syntax import App, CORE_FORMS, Exp, Lam, Ref, check_closed, check_features

# Abstract states have the concrete time-stamped machine's fields; only the
# store they carry is read differently.
AbstractState = CESKtState


class KCFAPolicy:
    """Contours of the last k control labels; k=0 degenerates to the
    time-free monovariant address families."""

    concrete = False

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("k must be non-negative")
        self.k = k
        self.t0 = Contour(())

    def tick(self, state, kont) -> Contour:
        return Contour(((tick_label(state.ctrl),) + state.time.labels)[: self.k])

    def alloc_bind(self, var: str, state, kont) -> Addr:
        if self.k == 0:
            return MonoBindA(var)
        return BindA(var, self.tick(state, kont))

    def alloc_kont(self, site: int, state, kont, tag: str = TAG_KONT) -> Addr:
        if self.k == 0:
            return MonoKontA(site, tag)
        return KontA(site, self.tick(state, kont), tag)

    def alloc_update(self, var: str, state, kont) -> Addr:
        if self.k == 0:
            return MonoUpdateA(var)
        return UpdateA(var, self.tick(state, kont))


def inject_abstract(e: Exp, policy: KCFAPolicy) -> CESKtState:
    check_closed(e)
    check_features(e, CORE_FORMS, "core")
    return CESKtState(e, EMPTY_MAP, EMPTY_ASTORE, MT, policy.t0)


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

    def successors_of(self, i: int) -> list[int]:
        return sorted(j for (src, j) in self.edges if src == i)


def explore_states(initial, successors, is_final, order: str = "bfs") -> StateGraph:
    """Generic graph search; the seen set is checked before enqueueing, so
    any worklist discipline yields the same state and edge sets."""
    index = {initial: 0}
    states = [initial]
    edges: set[tuple[int, int]] = set()
    finals: list[int] = []
    if is_final(initial):
        finals.append(0)
    queue = deque([initial])
    pop = queue.popleft if order == "bfs" else queue.pop
    while queue:
        s = pop()
        i = index[s]
        for t in successors(s):
            j = index.get(t)
            if j is None:
                j = len(states)
                index[t] = j
                states.append(t)
                if is_final(t):
                    finals.append(j)
                queue.append(t)
            edges.add((i, j))
    return StateGraph(tuple(states), frozenset(edges), tuple(sorted(finals)))


def explore(e: Exp, policy: KCFAPolicy, order: str = "bfs") -> StateGraph:
    return explore_states(
        inject_abstract(e, policy),
        lambda s: step_abstract(s, policy),
        is_final_abstract,
        order,
    )


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


@cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


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
# The specialized monovariant machine (no environments)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ar0(Kont):
    exp: Exp
    tail: Addr

    def __repr__(self) -> str:
        return f"Ar0({self.exp!r} {self.tail!r})"


@dataclass(frozen=True)
class Fn0(Kont):
    lam: Lam
    tail: Addr

    def __repr__(self) -> str:
        return f"Fn0({self.lam!r} {self.tail!r})"


@dataclass(frozen=True)
class ZState:
    """Monovariant machine state: bindings key on the variable itself, so
    no environment is needed; stored values are bare lambda nodes."""

    ctrl: Exp
    store: FrozenMap
    kont: Kont


def inject_0cfa(e: Exp) -> ZState:
    check_closed(e)
    check_features(e, CORE_FORMS, "core")
    return ZState(e, EMPTY_ASTORE, MT)


def is_final_0cfa(s: ZState) -> bool:
    return isinstance(s.ctrl, Lam) and isinstance(s.kont, Mt)


def step_0cfa(s: ZState) -> list[ZState]:
    c, store, k = s.ctrl, s.store, s.kont
    succs: list[ZState] = []
    if isinstance(c, Ref):
        for v in sorted(astore_get(store, MonoBindA(c.name)), key=sort_key):
            if isinstance(v, Lam):
                succs.append(ZState(v, store, k))
    elif isinstance(c, App):
        addr = MonoKontA(c.label)
        store2 = astore_add(store, addr, [k])
        succs.append(ZState(c.fun, store2, Ar0(c.arg, addr)))
    elif isinstance(c, Lam):
        if isinstance(k, Ar0):
            succs.append(ZState(k.exp, store, Fn0(c, k.tail)))
        elif isinstance(k, Fn0):
            for popped in sorted(astore_get(store, k.tail), key=sort_key):
                if not isinstance(popped, Kont):
                    continue
                store2 = astore_add(store, MonoBindA(k.lam.param), [c])
                succs.append(ZState(k.lam.body, store2, popped))
    return succs


def explore_0cfa(e: Exp, order: str = "bfs") -> StateGraph:
    return explore_states(inject_0cfa(e), step_0cfa, is_final_0cfa, order)


# ---------------------------------------------------------------------------
# Store widening
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WidenedSystem:
    """Contexts are states with the store stripped (set to the empty
    abstract store); one global store serves all of them."""

    contexts: frozenset
    store: FrozenMap
    iterations: int


def strip_store(state):
    return dataclasses.replace(state, store=EMPTY_ASTORE)


def widened_fixpoint(initial, successors) -> WidenedSystem:
    """Kleene iteration from the empty system.  Each round steps every
    context against the global store, joins all produced stores, and adds
    the injected context; ``iterations`` counts the strictly-growing
    rounds."""
    contexts: set = set()
    store = EMPTY_ASTORE
    inj = strip_store(initial)
    iterations = 0
    while True:
        new_contexts = set(contexts)
        new_store = store
        for ctx in contexts:
            for t in successors(dataclasses.replace(ctx, store=store)):
                new_contexts.add(strip_store(t))
                new_store = astore_join(new_store, t.store)
        new_contexts.add(inj)
        if new_contexts == contexts and new_store == store:
            return WidenedSystem(frozenset(contexts), store, iterations)
        contexts, store = new_contexts, new_store
        iterations += 1


def analyze_widened(e: Exp, policy: KCFAPolicy) -> WidenedSystem:
    return widened_fixpoint(
        inject_abstract(e, policy), lambda s: step_abstract(s, policy)
    )


def analyze_widened_0cfa(e: Exp) -> WidenedSystem:
    return widened_fixpoint(inject_0cfa(e), step_0cfa)


def monovariant_iteration_bound(e: Exp) -> int:
    """Worst-case number of strictly-growing widened rounds, from the sizes
    of the monovariant state space: one new context or one new store entry
    per round."""
    from .syntax import lam_count, node_count, var_names

    n_exp = node_count(e)
    n_var = len(var_names(e))
    n_lam = lam_count(e)
    return n_exp * (1 + 2 * n_exp**2) + (n_var + n_exp) * (n_lam + 1 + 2 * n_exp**2)
