"""Independent reference implementations the tests check the package against.

Each oracle recomputes its answer from first principles (textual
substitution, constraint solving, reflective traversal, exhaustive path
enumeration) so agreement with the package is meaningful evidence.  The
module also carries the simulation harness shared by the per-machine
soundness tests.
"""

from __future__ import annotations

import itertools
from dataclasses import fields, is_dataclass

from aam.inspection import DENY, GRANT, MtM
from aam.machines import Ar, CEKState, Closure, Fn, Kont, Mt, MT
from aam.store import AbstractStore, Addr, FrozenMap, StoreError, astore_get, sort_key
from aam.syntax import App, Exp, Lam, Ref, free_vars, iter_nodes


class OracleFuelError(Exception):
    """The substitution evaluator ran past its step budget."""


# ---------------------------------------------------------------------------
# Free variables, worklist formulation
# ---------------------------------------------------------------------------


def free_vars_oracle(e: Exp) -> frozenset[str]:
    out: set[str] = set()
    work: list[tuple[Exp, frozenset[str]]] = [(e, frozenset())]
    while work:
        node, bound = work.pop()
        if isinstance(node, Ref):
            if node.name not in bound:
                out.add(node.name)
        elif isinstance(node, Lam):
            work.append((node.body, bound | {node.param}))
        elif isinstance(node, App):
            work.append((node.fun, bound))
            work.append((node.arg, bound))
        else:
            if type(node).__name__ == "SetBang" and node.name not in bound:
                out.add(node.name)
            for f in fields(node):
                v = getattr(node, f.name)
                if isinstance(v, Exp):
                    work.append((v, bound))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Capture-avoiding substitution and a call-by-value normalizer
# ---------------------------------------------------------------------------

_fresh = itertools.count()


def _rename(name: str) -> str:
    return f"{name}%{next(_fresh)}"


def subst(e: Exp, x: str, v: Exp) -> Exp:
    """e[x := v] on core terms, renaming binders that would capture."""
    if isinstance(e, Ref):
        return v if e.name == x else e
    if isinstance(e, Lam):
        if e.param == x:
            return e
        if e.param in free_vars_oracle(v) and x in free_vars_oracle(e.body):
            fresh = _rename(e.param)
            body = subst(e.body, e.param, Ref(0, fresh))
            return Lam(e.label, fresh, subst(body, x, v))
        return Lam(e.label, e.param, subst(e.body, x, v))
    if isinstance(e, App):
        return App(e.label, subst(e.fun, x, v), subst(e.arg, x, v))
    raise TypeError(f"not a core term: {e!r}")


def cbv_normalize(e: Exp, fuel: int = 10000) -> Exp:
    """Evaluate a closed core term to its value by textual beta steps,
    operator before operand.  Raises OracleFuelError past ``fuel`` betas."""
    budget = [fuel]

    def ev(t: Exp) -> Exp:
        if isinstance(t, Lam):
            return t
        if isinstance(t, App):
            f = ev(t.fun)
            a = ev(t.arg)
            budget[0] -= 1
            if budget[0] < 0:
                raise OracleFuelError
            return ev(subst(f.body, f.param, a))
        raise TypeError(f"open or non-core term: {t!r}")

    return ev(e)


# ---------------------------------------------------------------------------
# Alpha-equivalence via de Bruijn skeletons
# ---------------------------------------------------------------------------


def debruijn(e: Exp, scope: tuple[str, ...] = ()) -> tuple:
    if isinstance(e, Ref):
        for i, name in enumerate(reversed(scope)):
            if name == e.name:
                return ("v", i)
        return ("free", e.name)
    if isinstance(e, Lam):
        return ("l", debruijn(e.body, scope + (e.param,)))
    if isinstance(e, App):
        return ("a", debruijn(e.fun, scope), debruijn(e.arg, scope))
    raise TypeError(f"not a core term: {e!r}")


def alpha_equal(a: Exp, b: Exp) -> bool:
    return debruijn(a) == debruijn(b)


# ---------------------------------------------------------------------------
# Resolving machine values back to closed terms
# ---------------------------------------------------------------------------


def cek_value_term(v: Closure, depth: int = 0) -> Exp:
    """Flatten a CEK closure (environments map to closures) to a term."""
    assert depth < 500, "runaway closure resolution"
    t: Exp = v.lam
    for x in sorted(free_vars_oracle(t)):
        t = subst(t, x, cek_value_term(v.env[x], depth + 1))
    return t


def store_value_term(v: Closure, store: FrozenMap, depth: int = 0) -> Exp:
    """Flatten a store-machine closure (environments map to addresses)."""
    assert depth < 500, "runaway closure resolution"
    t: Exp = v.lam
    for x in sorted(free_vars_oracle(t)):
        w = store.get(v.env[x])
        assert isinstance(w, Closure), f"binding of {x} is {w!r}"
        t = subst(t, x, store_value_term(w, store, depth + 1))
    return t


# ---------------------------------------------------------------------------
# Relating maps: store machines back into CEK states
# ---------------------------------------------------------------------------


def _cek_env(env: FrozenMap, store: FrozenMap, memo: dict) -> FrozenMap:
    hit = memo.get(env)
    if hit is not None:
        return hit
    out = {}
    for x, a in env.items():
        w = store.get(a)
        assert isinstance(w, Closure), f"binding of {x} is {w!r}"
        out[x] = Closure(w.lam, _cek_env(w.env, store, memo))
    r = FrozenMap(out)
    memo[env] = r
    return r


def _cek_kont(k, store: FrozenMap, memo: dict) -> Kont:
    if isinstance(k, Mt):
        return MT
    tail = k.tail
    if isinstance(tail, Addr):
        tail = store.get(tail)
        assert isinstance(tail, Kont), f"dangling continuation {k.tail!r}"
    rt = _cek_kont(tail, store, memo)
    if isinstance(k, Ar):
        return Ar(k.exp, _cek_env(k.env, store, memo), rt)
    if isinstance(k, Fn):
        return Fn(k.lam, _cek_env(k.env, store, memo), rt)
    raise TypeError(f"not a core frame: {k!r}")


def to_cek_state(s) -> CEKState:
    """Collapse a CESK, CESK*, or time-stamped state onto the CEK space by
    chasing every address through its own store."""
    memo: dict = {}
    return CEKState(
        s.ctrl, _cek_env(s.env, s.store, memo), _cek_kont(s.kont, s.store, memo)
    )


# ---------------------------------------------------------------------------
# Constraint-based monovariant flow analysis
# ---------------------------------------------------------------------------


def mini_0cfa(e: Exp) -> dict[str, frozenset[int]]:
    """Flow-insensitive subset-constraint solver.  Returns, per variable,
    the set of lambda labels that may bind to it.  Dead code contributes
    constraints too, so this over-approximates any reachability-based
    analysis."""
    nodes = list(iter_nodes(e))
    node_flow: dict[int, set[Lam]] = {n.label: set() for n in nodes}
    var_flow: dict[str, set[Lam]] = {}
    for n in nodes:
        if isinstance(n, Lam):
            var_flow.setdefault(n.param, set())
        if isinstance(n, Ref):
            var_flow.setdefault(n.name, set())

    changed = True
    while changed:
        changed = False

        def pour(src: set, dst: set) -> None:
            nonlocal changed
            if not src <= dst:
                dst |= src
                changed = True

        for n in nodes:
            if isinstance(n, Lam):
                pour({n}, node_flow[n.label])
            elif isinstance(n, Ref):
                pour(var_flow[n.name], node_flow[n.label])
            elif isinstance(n, App):
                for lam in list(node_flow[n.fun.label]):
                    pour(node_flow[n.arg.label], var_flow[lam.param])
                    pour(node_flow[lam.body.label], node_flow[n.label])
    return {x: frozenset(l.label for l in lams) for x, lams in var_flow.items()}


# ---------------------------------------------------------------------------
# Reflective address collection
# ---------------------------------------------------------------------------


def reflective_addresses(obj) -> frozenset[Addr]:
    """Every address syntactically reachable from ``obj`` through dataclass
    fields, maps, sets, and tuples.  Ignores expression nodes (they carry no
    addresses) but keeps whole environments, so this is a superset of any
    free-variable-trimmed liveness."""
    out: set[Addr] = set()
    stack = [obj]
    seen: set[int] = set()
    while stack:
        o = stack.pop()
        if isinstance(o, Addr):
            out.add(o)
        elif isinstance(o, Exp) or isinstance(o, (str, int, bool, type(None))):
            continue
        elif isinstance(o, FrozenMap):
            if id(o) in seen:
                continue
            seen.add(id(o))
            stack.extend(o.keys())
            stack.extend(o.values())
        elif isinstance(o, (tuple, list, set, frozenset)):
            stack.extend(o)
        elif is_dataclass(o):
            if id(o) in seen:
                continue
            seen.add(id(o))
            stack.extend(getattr(o, f.name) for f in fields(o))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Garbage-collection reachability, worklist formulation
# ---------------------------------------------------------------------------


def reference_live_locations(v) -> frozenset[Addr]:
    """The addresses an object mentions, recomputed on every call and never
    read from or written to an object: its address fields, the bindings of
    its expressions' free variables in its ``env``, and the same of its
    other dataclass fields in turn (environment, store and time aside).  A
    linked continuation is walked to its end each time."""
    if isinstance(v, Addr):
        return frozenset((v,))
    if not is_dataclass(v):
        raise TypeError(f"no liveness rule for {v!r}")
    live: set[Addr] = set()
    for f in fields(v):
        if f.name in ("env", "store", "time"):
            continue
        x = getattr(v, f.name)
        if isinstance(x, Addr):
            live.add(x)
        elif isinstance(x, Exp):
            live.update(v.env[name] for name in free_vars(x))
        elif is_dataclass(x):
            live |= reference_live_locations(x)
    return frozenset(live)


def reference_gc_reachable(roots, store: FrozenMap, abstract: bool = False,
                           live_fn=reference_live_locations) -> frozenset[Addr]:
    """The closure of liveness through the store, one address at a time
    from a worklist.  A concrete store must map every reached address."""
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


# ---------------------------------------------------------------------------
# Exhaustive path enumeration for the inspection predicates
# ---------------------------------------------------------------------------


def kont_paths(kont: Kont, store: FrozenMap, bound: int = 16):
    """All store-resolved frame paths from ``kont`` to an empty frame, as
    lists.  Returns (paths, overflowed); when overflowed is False the list
    is the complete path set."""
    paths: list[list[Kont]] = []
    overflowed = [False]

    def go(k: Kont, acc: list[Kont]) -> None:
        if len(acc) > bound:
            overflowed[0] = True
            return
        acc2 = acc + [k]
        if isinstance(k, MtM):
            paths.append(acc2)
            return
        tail = k.tail
        if isinstance(tail, Addr):
            for nxt in sorted(astore_get(store, tail), key=sort_key):
                if isinstance(nxt, Kont):
                    go(nxt, acc2)
        else:
            go(tail, acc2)

    go(kont, [])
    return paths, overflowed[0]


def ok_path(perms: frozenset[str], frames: list[Kont]) -> bool:
    """The inspection predicate over one explicit frame path."""
    r = frozenset(perms)
    for fr in frames:
        if not r:
            return True
        if any(fr.marks.get(p) == DENY for p in r):
            return False
        if isinstance(fr, MtM):
            return True
        r = frozenset(p for p in r if fr.marks.get(p) != GRANT)
    raise AssertionError("path did not end at an empty frame")


# ---------------------------------------------------------------------------
# Simulation harness
# ---------------------------------------------------------------------------


def alpha_simulated(states, alpha, graph, successors) -> bool:
    """Check the simulation property for one concrete trace: the truncation
    of every concrete state is covered (equal up to a larger store) by some
    graph state, and each concrete step's target is covered by an abstract
    successor of a covering state."""
    from aam.analysis import state_leq, strip_store

    bucket: dict = {}
    for g in graph.states:
        bucket.setdefault(strip_store(g), []).append(g)

    def covering(x):
        return [g for g in bucket.get(strip_store(x), ()) if state_leq(x, g)]

    if not covering(alpha(states[0])):
        return False
    for a, b in zip(states, states[1:]):
        aa, ab = alpha(a), alpha(b)
        cov = covering(aa)
        if not cov:
            return False
        if not any(state_leq(ab, t) for g in cov for t in successors(g)):
            return False
    return True


def pd_node_covered(image, nodes) -> bool:
    """Node-space coverage: same expression, environment, and stack top,
    with the image's store below the graph node's."""
    from aam.store import astore_leq

    return any(
        n.top == image.top
        and n.control.exp == image.control.exp
        and n.control.env == image.control.env
        and astore_leq(image.control.store, n.control.store)
        for n in nodes
    )


# ---------------------------------------------------------------------------
# Abstract stores that copy on every write and join
# ---------------------------------------------------------------------------


def copying_astore_add(store: FrozenMap, addr, values) -> FrozenMap:
    """Join storables into one address, always as a new map."""
    return FrozenMap({**store, addr: store.get(addr, frozenset()) | frozenset(values)})


def copying_astore_join(a: FrozenMap, b: FrozenMap) -> FrozenMap:
    """The pointwise union, always as a new map."""
    d = dict(a.items())
    for addr, vals in b.items():
        d[addr] = d.get(addr, frozenset()) | vals
    return FrozenMap(d)


class CopyingStore(AbstractStore):
    """The abstract store semantics with every write building a new map,
    even one that adds nothing."""

    def alloc(self, store: FrozenMap, addr, value) -> FrozenMap:
        return copying_astore_add(store, addr, (value,))

    update = alloc


__all__ = [
    "CopyingStore",
    "OracleFuelError",
    "alpha_equal",
    "alpha_simulated",
    "cbv_normalize",
    "cek_value_term",
    "copying_astore_add",
    "copying_astore_join",
    "debruijn",
    "free_vars_oracle",
    "kont_paths",
    "mini_0cfa",
    "ok_path",
    "pd_node_covered",
    "reference_gc_reachable",
    "reference_live_locations",
    "reflective_addresses",
    "store_value_term",
    "subst",
    "to_cek_state",
]
