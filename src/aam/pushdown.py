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

The solver numbers each node when it first meets it, and its tables hold
node numbers: a node is hashed by value only when a step or a return
builds it and the numbering looks it up.  Fan-outs are ordered by the nodes'
``sort_key``, rendered once per node and kept, which makes the worklist
order, and with it the numbering, the same in every process.

Binding addresses must come from a finite set.  The default policy keys a
binding by the bound value's label (a one-deep contour), which keeps
rebound variables at different call sites apart; a monovariant policy is
also provided.  The concrete companion the differential tests run is the
``ceskt`` rules with linked frames, read as an explicit stack; a
bounded-depth explicit-stack enumerator validates the saturation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Union

from .machines import (
    Ar,
    CORE,
    Closure,
    FRESH_POLICY,
    LinkedPolicy,
    Mt,
    Trace,
    step_ceskt,
    trace_from,
)
from .store import (
    Addr,
    BindA,
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
    value_class,
)
from .syntax import App, Exp, Lam, Ref


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


@value_class
class ArP:
    exp: Exp
    env: Env

    def __repr__(self) -> str:
        return f"ArP({self.exp!r} {self.env!r})"


@value_class
class FnP:
    lam: Lam
    env: Env

    def __repr__(self) -> str:
        return f"FnP({self.lam!r} {self.env!r})"


PdFrame = Union[ArP, FnP]


@value_class
class PdControl:
    """The finite part of a pushdown configuration."""

    exp: Exp
    env: Env
    store: FrozenMap

    def __repr__(self) -> str:
        return f"<{self.exp!r} {self.env!r} {self.store!r}>"


@value_class
class PdNode:
    control: PdControl
    top: Optional[PdFrame]

    def __repr__(self) -> str:
        return f"({self.control!r} . {self.top!r})"


def inject_pushdown(e: Exp) -> PdNode:
    CORE.check(e)
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
    held constant and binds are collected for the caller to iterate on.

    A node is numbered once, when it is discovered: ``index`` hashes it by
    value there and nowhere else, and every other table holds numbers.
    ``parents[i]`` and ``eps_out[i]`` are sets of node numbers, and
    ``pops[i]`` maps the ``sort_key`` of each control node ``i`` pops to
    onto the control.  A node's ``sort_key`` is rendered at discovery and
    kept in ``keys``; each fan-out sorts numbers by the kept keys, which is
    the order of the nodes themselves, as no two nodes of a graph render
    alike."""
    nodes: list[PdNode] = []
    keys: list[str] = []
    index: dict[PdNode, int] = {}
    parents: list[set[int]] = []
    eps_out: list[set[int]] = []
    pops: list[dict[str, PdControl]] = []
    edges: set[tuple[int, int, str]] = set()
    collected = global_store if global_store is not None else EMPTY_ASTORE
    work: deque[tuple] = deque()
    key_of = keys.__getitem__

    def add_node(n: PdNode) -> int:
        """The node's number, numbering it first if it is new."""
        i = index.setdefault(n, len(nodes))
        if i == len(nodes):
            nodes.append(n)
            keys.append(sort_key(n))
            parents.append(set())
            eps_out.append(set())
            pops.append({})
            work.append(("node", i))
        return i

    def add_parent(i: int, p: int) -> None:
        if p not in parents[i]:
            parents[i].add(p)
            work.append(("parent", i, p))

    def add_eps(src: int, dst: int) -> None:
        if dst not in eps_out[src]:
            eps_out[src].add(dst)
            for p in sorted(parents[src], key=key_of):
                add_parent(dst, p)

    def fire_pop(i: int, ctrl2: PdControl, p: int) -> None:
        r = add_node(PdNode(ctrl2, nodes[p].top))
        edges.add((i, r, "pop"))
        edges.add((p, r, "summary"))
        add_eps(p, r)

    add_node(init)
    while work:
        event = work.popleft()
        if event[0] == "node":
            i = event[1]
            n = nodes[i]
            for ctrl2, action, frame in step_pushdown(n.control, n.top, policy):
                if global_store is not None and ctrl2.store is not n.control.store:
                    collected = astore_join(collected, ctrl2.store)
                    ctrl2 = PdControl(ctrl2.exp, ctrl2.env, n.control.store)
                if action == "push":
                    j = add_node(PdNode(ctrl2, frame))
                    edges.add((i, j, "push"))
                    add_parent(j, i)
                elif action == "pop":
                    pops[i][sort_key(ctrl2)] = ctrl2
                    for p in sorted(parents[i], key=key_of):
                        fire_pop(i, ctrl2, p)
                else:
                    j = add_node(PdNode(ctrl2, frame if action == "swap" else n.top))
                    edges.add((i, j, "eps"))
                    add_eps(i, j)
        else:
            _tag, i, p = event
            for dst in sorted(eps_out[i], key=key_of):
                add_parent(dst, p)
            for _key, ctrl2 in sorted(pops[i].items()):
                fire_pop(i, ctrl2, p)

    finals = tuple(i for i, n in enumerate(nodes) if is_final_node(n))
    graph = PushdownGraph(tuple(nodes), frozenset(edges), 0, finals)
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
# Concrete companion machine: the ceskt rules with linked frames
# ---------------------------------------------------------------------------


@value_class
class PdTraceState:
    ctrl: Exp
    env: Env
    store: FrozenMap
    stack: tuple
    time: object


def _pd_stack(kont) -> tuple:
    frames = []
    while not isinstance(kont, Mt):
        frames.append(ArP(kont.exp, kont.env) if isinstance(kont, Ar) else FnP(kont.lam, kont.env))
        kont = kont.tail
    return tuple(reversed(frames))


def run_pd_trace(e: Exp, fuel: int = 10000, policy=FRESH_POLICY) -> Trace:
    """Run the companion, laying each state's frames out as a ``stack`` of
    ``ArP``/``FnP``, bottom first."""
    linked = LinkedPolicy(policy)
    trace = trace_from(lambda s: step_ceskt(s, linked), CORE.inject(e, None, policy.t0), fuel)
    trace.states = [
        PdTraceState(s.ctrl, s.env, s.store, _pd_stack(s.kont), s.time) for s in trace.states
    ]
    return trace


def alpha_pd_node(s: PdTraceState, depth: int) -> PdNode:
    """Truncate a concrete companion state into the node space at the
    given binding-contour depth."""
    from .analysis import alpha_fields

    top = s.stack[-1] if s.stack else None
    return alpha_fields(PdNode(PdControl(s.ctrl, s.env, s.store), top), depth)
