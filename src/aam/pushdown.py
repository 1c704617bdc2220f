"""Pushdown reachability: exact call/return matching.

The finite-state analyses store continuations and join them at reused
addresses, so a function's return can flow to every call site that ever
pushed a frame at the same address.  Keeping the continuation as a native
stack instead removes that merge: the machine below stores only bindings,
and its stack is exact.

The state space is then infinite (stacks are unbounded), but the finite
part of a state, here called a node, is the control expression with its
environment and store plus the topmost frame.  Reachability of nodes is
computed by worklist saturation over three constraint rules:

* a push edge from n to n' makes n a parent of n' (popping n'.top will
  reveal n.top)
* an edge that leaves the top frame in place, or swaps it, passes the
  parent set along
* a pop at n returns, for every parent p, to the node (c', p.top) and
  passes p's parents along; the derived edge from p to that node is a
  summary edge, standing for the whole balanced call/return segment

Binding addresses must come from a finite set.  The default policy keys a
binding by the bound value's label (a one-deep contour), which keeps
rebound variables at different call sites apart; a monovariant policy is
also provided.  A concrete companion machine with an explicit stack and
freshly allocated bindings is included for differential tests, along with
a bounded-depth explicit-stack enumerator that validates the saturation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Union

from .machines import (
    Closure,
    FRESH_POLICY,
    Final,
    Next,
    StepOutcome,
    Stuck,
    Trace,
    trace_from,
)
from .store import (
    Addr,
    BindA,
    CONCRETE_STORE,
    Contour,
    EMPTY_ASTORE,
    EMPTY_MAP,
    Env,
    FrozenMap,
    MonoBindA,
    astore_add,
    astore_get,
    astore_join,
    sort_key,
    store_get,
)
from .syntax import App, CORE_FORMS, Exp, Lam, Ref, check_closed, check_features


@dataclass(frozen=True)
class PdPolicy:
    """Binding-address policy.  depth 0 keys a binding by its variable
    alone; depth 1 adds the bound value's label, separating bindings made
    with syntactically different arguments."""

    depth: int

    def bind_addr(self, var: str, value: Lam) -> Addr:
        if self.depth == 0:
            return MonoBindA(var)
        return BindA(var, Contour((value.label,)))


PUSHDOWN_MONO = PdPolicy(0)
PUSHDOWN_VALUE = PdPolicy(1)


@dataclass(frozen=True)
class ArP:
    exp: Exp
    env: Env

    def __repr__(self) -> str:
        return f"ArP({self.exp!r} {self.env!r})"


@dataclass(frozen=True)
class FnP:
    lam: Lam
    env: Env

    def __repr__(self) -> str:
        return f"FnP({self.lam!r} {self.env!r})"


PdFrame = Union[ArP, FnP]


@dataclass(frozen=True)
class PdControl:
    """The finite part of a pushdown configuration."""

    exp: Exp
    env: Env
    store: FrozenMap

    def __repr__(self) -> str:
        return f"<{self.exp!r} {self.env!r} {self.store!r}>"


@dataclass(frozen=True)
class PdNode:
    control: PdControl
    top: Optional[PdFrame]

    def __repr__(self) -> str:
        return f"({self.control!r} . {self.top!r})"


def inject_pushdown(e: Exp) -> PdNode:
    check_closed(e)
    check_features(e, CORE_FORMS, "core")
    return PdNode(PdControl(e, EMPTY_MAP, EMPTY_ASTORE), None)


def is_final_node(n: PdNode) -> bool:
    return isinstance(n.control.exp, Lam) and n.top is None


def step_pushdown(
    control: PdControl, top: Optional[PdFrame], policy: PdPolicy = PUSHDOWN_VALUE
) -> list[tuple[PdControl, str, Optional[PdFrame]]]:
    """Successors of a node as (control, stack action, frame).

    The action is "push" or "swap" with the frame to install, or "none" or
    "pop" with no frame.  A pop is only offered when the top frame is a
    call frame.
    """
    e, env, store = control.exp, control.env, control.store
    succs: list[tuple[PdControl, str, Optional[PdFrame]]] = []
    if isinstance(e, Ref):
        addr = env.get(e.name)
        if addr is not None:
            for v in sorted(astore_get(store, addr), key=sort_key):
                if isinstance(v, Closure):
                    succs.append((PdControl(v.lam, v.env, store), "none", None))
    elif isinstance(e, App):
        succs.append((PdControl(e.fun, env, store), "push", ArP(e.arg, env)))
    elif isinstance(e, Lam):
        if isinstance(top, ArP):
            succs.append((PdControl(top.exp, top.env, store), "swap", FnP(e, env)))
        elif isinstance(top, FnP):
            a = policy.bind_addr(top.lam.param, e)
            store2 = astore_add(store, a, [Closure(e, env)])
            ctrl2 = PdControl(top.lam.body, top.env.set(top.lam.param, a), store2)
            succs.append((ctrl2, "pop", None))
    return succs


@dataclass(frozen=True)
class PushdownGraph:
    """Saturation result: nodes in discovery order, edges as index pairs
    tagged push/eps/pop/summary, and final node indices."""

    nodes: tuple[PdNode, ...]
    edges: frozenset[tuple[int, int, str]]
    initial: int
    finals: tuple[int, ...]

    def final_controls(self) -> frozenset[Lam]:
        return frozenset(self.nodes[i].control.exp for i in self.finals)

    def edge_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i, j, _kind in self.edges)


def _saturate(
    init: PdNode, policy: PdPolicy, global_store: Optional[FrozenMap]
) -> tuple[PushdownGraph, FrozenMap]:
    """Run the constraint solver.  With a global store, node stores are
    held constant and binds are collected for the caller to iterate on."""
    order: list[PdNode] = []
    index: dict[PdNode, int] = {}
    parents: dict[PdNode, set[PdNode]] = {}
    eps_out: dict[PdNode, set[PdNode]] = {}
    pops: dict[PdNode, set[PdControl]] = {}
    edges: set[tuple[int, int, str]] = set()
    collected = global_store if global_store is not None else EMPTY_ASTORE
    work: deque[tuple] = deque()

    def add_node(n: PdNode) -> None:
        if n not in index:
            index[n] = len(order)
            order.append(n)
            parents[n] = set()
            eps_out[n] = set()
            pops[n] = set()
            work.append(("node", n))

    def add_parent(n: PdNode, p: PdNode) -> None:
        if p not in parents[n]:
            parents[n].add(p)
            work.append(("parent", n, p))

    def add_eps(src: PdNode, dst: PdNode) -> None:
        if dst not in eps_out[src]:
            eps_out[src].add(dst)
            for p in sorted(parents[src], key=repr):
                add_parent(dst, p)

    def fire_pop(n: PdNode, ctrl2: PdControl, p: PdNode) -> None:
        ret = PdNode(ctrl2, p.top)
        add_node(ret)
        edges.add((index[n], index[ret], "pop"))
        edges.add((index[p], index[ret], "summary"))
        add_eps(p, ret)

    add_node(init)
    while work:
        event = work.popleft()
        if event[0] == "node":
            n = event[1]
            for ctrl2, action, frame in step_pushdown(n.control, n.top, policy):
                if global_store is not None and ctrl2.store is not n.control.store:
                    collected = astore_join(collected, ctrl2.store)
                    ctrl2 = PdControl(ctrl2.exp, ctrl2.env, n.control.store)
                if action == "push":
                    n2 = PdNode(ctrl2, frame)
                    add_node(n2)
                    edges.add((index[n], index[n2], "push"))
                    add_parent(n2, n)
                elif action == "swap":
                    n2 = PdNode(ctrl2, frame)
                    add_node(n2)
                    edges.add((index[n], index[n2], "eps"))
                    add_eps(n, n2)
                elif action == "none":
                    n2 = PdNode(ctrl2, n.top)
                    add_node(n2)
                    edges.add((index[n], index[n2], "eps"))
                    add_eps(n, n2)
                else:
                    pops[n].add(ctrl2)
                    for p in sorted(parents[n], key=repr):
                        fire_pop(n, ctrl2, p)
        else:
            _tag, n, p = event
            for dst in sorted(eps_out[n], key=repr):
                add_parent(dst, p)
            for ctrl2 in sorted(pops[n], key=repr):
                fire_pop(n, ctrl2, p)

    finals = tuple(i for i, n in enumerate(order) if is_final_node(n))
    graph = PushdownGraph(tuple(order), frozenset(edges), 0, finals)
    return graph, collected


def reachable_pushdown(e: Exp, policy: PdPolicy = PUSHDOWN_VALUE) -> PushdownGraph:
    """Saturate from the initial node with per-node stores."""
    graph, _ = _saturate(inject_pushdown(e), policy, None)
    return graph


@dataclass(frozen=True)
class WidenedPushdown:
    graph: PushdownGraph
    store: FrozenMap
    iterations: int


def reachable_pushdown_widened(e: Exp, policy: PdPolicy = PUSHDOWN_VALUE) -> WidenedPushdown:
    """Saturate against one global store, iterating until the store is
    stable.  Within a round binds do not take effect; growth triggers the
    next round, so the result is the least mutual fixpoint."""
    init = inject_pushdown(e)
    store = EMPTY_ASTORE
    iterations = 0
    while True:
        seeded = PdNode(PdControl(init.control.exp, init.control.env, store), None)
        graph, collected = _saturate(seeded, policy, store)
        if collected == store:
            return WidenedPushdown(graph, store, iterations)
        store = collected
        iterations += 1


# ---------------------------------------------------------------------------
# Bounded explicit-stack enumeration, for validating the saturation
# ---------------------------------------------------------------------------


def enumerate_bounded(
    e: Exp, max_depth: int, policy: PdPolicy = PUSHDOWN_VALUE
) -> tuple[frozenset[PdNode], bool]:
    """Explore (control, stack) states breadth-first, refusing to grow any
    stack beyond max_depth.  Returns the nodes seen and whether some state
    was cut off; when nothing was cut off the node set is exactly the
    reachable one."""
    init = inject_pushdown(e)
    start = (init.control, ())
    seen: set[tuple[PdControl, tuple]] = {start}
    nodes: set[PdNode] = set()
    overflowed = False
    work: deque[tuple[PdControl, tuple]] = deque([start])
    while work:
        control, stack = work.popleft()
        top = stack[-1] if stack else None
        nodes.add(PdNode(control, top))
        if len(stack) > max_depth:
            overflowed = True
            continue
        for ctrl2, action, frame in step_pushdown(control, top, policy):
            if action == "push":
                stack2 = stack + (frame,)
            elif action == "swap":
                stack2 = stack[:-1] + (frame,)
            elif action == "pop":
                stack2 = stack[:-1]
            else:
                stack2 = stack
            nxt = (ctrl2, stack2)
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return frozenset(nodes), overflowed


# ---------------------------------------------------------------------------
# Concrete companion machine: explicit stack, fresh bindings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PdTraceState:
    ctrl: Exp
    env: Env
    store: FrozenMap
    stack: tuple
    time: object


def inject_pd_trace(e: Exp, policy=FRESH_POLICY) -> PdTraceState:
    check_closed(e)
    check_features(e, CORE_FORMS, "core")
    return PdTraceState(e, EMPTY_MAP, EMPTY_MAP, (), policy.t0)


def step_pd_trace(s: PdTraceState, policy=FRESH_POLICY) -> StepOutcome:
    c, env, store, stack = s.ctrl, s.env, s.store, s.stack

    def advance():
        return CONCRETE_STORE.tick(policy, s, None)

    if isinstance(c, Ref):
        addr = env.get(c.name)
        if addr is None:
            return Stuck(f"unbound variable {c.name}")
        clo = store_get(store, addr)
        if not isinstance(clo, Closure):
            return Stuck(f"address {addr!r} does not hold a closure")
        return Next(PdTraceState(clo.lam, clo.env, store, stack, advance()))
    if isinstance(c, App):
        return Next(PdTraceState(c.fun, env, store, stack + (ArP(c.arg, env),), advance()))
    if isinstance(c, Lam):
        if not stack:
            return Final(Closure(c, env))
        top = stack[-1]
        if isinstance(top, ArP):
            stack2 = stack[:-1] + (FnP(c, env),)
            return Next(PdTraceState(top.exp, top.env, store, stack2, advance()))
        u = advance()
        addr = policy.alloc_bind(top.lam.param, s, None)
        store2 = CONCRETE_STORE.alloc(store, addr, Closure(c, env))
        env2 = top.env.set(top.lam.param, addr)
        return Next(PdTraceState(top.lam.body, env2, store2, stack[:-1], u))
    return Stuck(f"no rule for control {c!r}")


def run_pd_trace(e: Exp, fuel: int = 10000, policy=FRESH_POLICY) -> Trace:
    return trace_from(lambda s: step_pd_trace(s, policy), inject_pd_trace(e, policy), fuel)


def alpha_pd_node(s: PdTraceState, depth: int) -> PdNode:
    """Truncate a concrete companion state into the node space at the
    given binding-contour depth."""
    from .analysis import alpha_fields

    top = s.stack[-1] if s.stack else None
    return alpha_fields(PdNode(PdControl(s.ctrl, s.env, s.store), top), depth)
