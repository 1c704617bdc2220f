"""Stack inspection: continuation marks and the security machine.

Each frame carries a marks table mapping permissions to "grant" or "deny".
The security forms rewrite the top frame's marks:

* ``(frame (R) e)``  marks everything *outside* R denied: code only passes
  through the permissions it was granted statically
* ``(grant (R) e)``  marks R granted on the current frame
* ``(test (R) e0 e1)``  branches on the inspection predicate OK
* ``fail``           halts with a distinguished security failure

OK(R, κ) walks the continuation: it fails on a frame denying any member of
R, drops granted permissions, and succeeds at the empty continuation (or
once nothing is left to justify).  Pushed frames start with empty marks;
refocusing an argument frame into a call frame preserves its marks.

The machine with store-allocated continuations is written once, in
``_cm_rules``, against a store semantics: ``step_cm_star`` fires it over
exact stores and ``step_cm_abstract`` over abstract ones.  Its inspection
predicate is one search over the store-resolved continuation paths: a test
takes its true branch if some path satisfies OK and its false branch if
some path refutes OK.  An exact store has one path, so exactly one branch
is taken; with a merged store both can be.

``annotate`` applies the static policy: every lambda body is wrapped in a
frame carrying the given permission set and every grant is intersected
with it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Union

from .machines import (
    Closure,
    FRESH_POLICY,
    FailFinal,
    Final,
    Kont,
    Next,
    StepOutcome,
    Stuck,
    _concrete_step,
)
from .store import (
    ABSTRACT_STORE,
    Addr,
    EMPTY_ASTORE,
    EMPTY_MAP,
    Env,
    FrozenMap,
    Time,
    fresh_addr,
)
from .syntax import (
    App,
    Exp,
    Fail,
    Frame,
    Grant,
    Lam,
    Ref,
    SECURITY_FORMS,
    Test,
    check_closed,
    check_features,
    permissions_used,
)

GRANT = "grant"
DENY = "deny"

Marks = FrozenMap  # permission -> GRANT | DENY
EMPTY_MARKS = EMPTY_MAP


@dataclass(frozen=True)
class MtM(Kont):
    marks: Marks = EMPTY_MARKS

    def __repr__(self) -> str:
        return f"Mt^{self.marks!r}"


@dataclass(frozen=True)
class ArM(Kont):
    exp: Exp
    env: Env
    marks: Marks
    tail: Union[Kont, Addr]

    def __repr__(self) -> str:
        return f"Ar^{self.marks!r}({self.exp!r} {self.env!r} {self.tail!r})"


@dataclass(frozen=True)
class FnM(Kont):
    lam: Lam
    env: Env
    marks: Marks
    tail: Union[Kont, Addr]

    def __repr__(self) -> str:
        return f"Fn^{self.marks!r}({self.lam!r} {self.env!r} {self.tail!r})"


MTM = MtM()


def mark(kont: Kont, perms: frozenset[str], value: str) -> Kont:
    """Rewrite the top frame's marks for every permission in perms."""
    if not perms:
        return kont
    return dataclasses.replace(kont, marks=kont.marks.update({p: value for p in perms}))


@dataclass(frozen=True)
class CMState:
    ctrl: Exp
    env: Env
    store: FrozenMap
    kont: Kont


@dataclass(frozen=True)
class CMStarState:
    ctrl: Exp
    env: Env
    store: FrozenMap
    kont: Kont
    time: Time


def _validate(e: Exp, universe: frozenset[str]) -> None:
    check_closed(e)
    check_features(e, SECURITY_FORMS, "security")
    extra = permissions_used(e) - universe
    if extra:
        raise ValueError(f"permissions {sorted(extra)} are outside the declared universe")


def inject_cm(e: Exp, universe: frozenset[str]) -> CMState:
    _validate(e, universe)
    return CMState(e, EMPTY_MAP, EMPTY_MAP, MTM)


def inject_cm_star(e: Exp, universe: frozenset[str], policy=FRESH_POLICY) -> CMStarState:
    _validate(e, universe)
    return CMStarState(e, EMPTY_MAP, EMPTY_MAP, MTM, policy.t0)


def inject_acm(e: Exp, universe: frozenset[str], policy) -> CMStarState:
    _validate(e, universe)
    return CMStarState(e, EMPTY_MAP, EMPTY_ASTORE, MTM, policy.t0)


# ---------------------------------------------------------------------------
# The inspection predicate
# ---------------------------------------------------------------------------


def _denied(marks: Marks, perms: frozenset[str]) -> bool:
    return any(marks.get(p) == DENY for p in perms)


def _drop_granted(marks: Marks, perms: frozenset[str]) -> frozenset[str]:
    return frozenset(p for p in perms if marks.get(p) != GRANT)


def ok(perms: frozenset[str], kont: Kont, store: FrozenMap | None = None) -> bool:
    """The concrete predicate; pass the store when frame tails are addresses."""
    while True:
        if not perms:
            return True
        if _denied(kont.marks, perms):
            return False
        if isinstance(kont, MtM):
            return True
        perms = _drop_granted(kont.marks, perms)
        tail = kont.tail
        if isinstance(tail, Addr):
            if store is None:
                raise ValueError("address-tailed continuation needs a store")
            tail = store.get(tail)
            if not isinstance(tail, Kont):
                raise ValueError(f"dangling continuation address {kont.tail!r}")
        kont = tail


def _inspect(perms: frozenset[str], kont: Kont, store: FrozenMap, sem) -> tuple[bool, bool]:
    """(some store-resolved continuation path satisfies OK, some path
    refutes OK), resolving frame tails through store semantics ``sem``."""
    if not perms:
        return True, False
    some_ok = some_fail = False
    work: list[tuple[frozenset[str], Kont]] = [(perms, kont)]
    visited: set[tuple[frozenset[str], Addr]] = set()
    while work and not (some_ok and some_fail):
        r, k = work.pop()
        if _denied(k.marks, r):
            some_fail = True
            continue
        r2 = _drop_granted(k.marks, r)
        if isinstance(k, MtM) or not r2:
            some_ok = True
            continue
        key = (r2, k.tail)
        if key in visited:
            continue
        visited.add(key)
        work.extend((r2, nxt) for nxt in sem.fetch(store, k.tail, Kont, "continuation address"))
    return some_ok, some_fail


def ok_hat(perms: frozenset[str], kont: Kont, store: FrozenMap) -> bool:
    """True iff some store-resolved continuation path satisfies OK."""
    return _inspect(perms, kont, store, ABSTRACT_STORE)[0]


def fails_hat(perms: frozenset[str], kont: Kont, store: FrozenMap) -> bool:
    """True iff some store-resolved continuation path refutes OK."""
    return _inspect(perms, kont, store, ABSTRACT_STORE)[1]


# ---------------------------------------------------------------------------
# Annotation: push the static policy into the program text
# ---------------------------------------------------------------------------


def annotate(e: Exp, perms: frozenset[str]) -> Exp:
    """Wrap every lambda body in a frame for perms; intersect grants with
    perms.  Labels are regenerated in preorder."""
    from .syntax import relabel

    def go(node: Exp) -> Exp:
        if isinstance(node, Ref):
            return node
        if isinstance(node, Lam):
            return Lam(0, node.param, Frame(0, perms, go(node.body)))
        if isinstance(node, App):
            return App(0, go(node.fun), go(node.arg))
        if isinstance(node, Fail):
            return node
        if isinstance(node, Frame):
            return Frame(0, node.perms, go(node.body))
        if isinstance(node, Grant):
            return Grant(0, node.perms & perms, go(node.body))
        if isinstance(node, Test):
            return Test(0, node.perms, go(node.then), go(node.other))
        raise TypeError(f"not a security-language form: {node!r}")

    return relabel(go(e))


# ---------------------------------------------------------------------------
# Concrete machines
# ---------------------------------------------------------------------------


def _is_fail_halt(c: Exp, kont: Kont) -> bool:
    return isinstance(c, Fail) and kont == MTM


def step_cm(s: CMState, universe: frozenset[str]) -> StepOutcome:
    c, env, store, k = s.ctrl, s.env, s.store, s.kont
    if isinstance(c, Ref):
        addr = env.get(c.name)
        if addr is None:
            return Stuck(f"unbound variable {c.name}")
        clo = store.get(addr)
        if not isinstance(clo, Closure):
            return Stuck(f"dangling address {addr!r}")
        return Next(CMState(clo.lam, clo.env, store, k))
    if isinstance(c, App):
        return Next(CMState(c.fun, env, store, ArM(c.arg, env, EMPTY_MARKS, k)))
    if isinstance(c, Lam):
        if isinstance(k, ArM):
            return Next(CMState(k.exp, k.env, store, FnM(c, env, k.marks, k.tail)))
        if isinstance(k, FnM):
            addr = fresh_addr(store)
            store2 = store.set(addr, Closure(c, env))
            return Next(CMState(k.lam.body, k.env.set(k.lam.param, addr), store2, k.tail))
        if isinstance(k, MtM):
            return Final(Closure(c, env))
    if isinstance(c, Fail):
        if _is_fail_halt(c, k):
            return FailFinal()
        return Next(CMState(c, env, store, MTM))
    if isinstance(c, Frame):
        return Next(CMState(c.body, env, store, mark(k, universe - c.perms, DENY)))
    if isinstance(c, Grant):
        return Next(CMState(c.body, env, store, mark(k, c.perms, GRANT)))
    if isinstance(c, Test):
        branch = c.then if ok(c.perms, k) else c.other
        return Next(CMState(branch, env, store, k))
    return Stuck(f"no rule for control {c!r}")


# ---------------------------------------------------------------------------
# Store-allocated continuations, concrete and abstract
# ---------------------------------------------------------------------------


def is_final_acm(s: CMStarState) -> bool:
    return isinstance(s.ctrl, Lam) and isinstance(s.kont, MtM)


def is_fail_acm(s: CMStarState) -> bool:
    return _is_fail_halt(s.ctrl, s.kont)


def _cm_rules(s: CMStarState, sem, universe: frozenset[str], policy) -> list:
    """The security machine's transitions with store-allocated frames, over
    store semantics ``sem``."""
    c, env, store, k = s.ctrl, s.env, s.store, s.kont
    if isinstance(c, Ref):
        addr = env.get(c.name)
        if addr is None:
            return sem.stuck("unbound variable {}", c.name)
        clos = sem.fetch(store, addr, Closure, "address")
        u = sem.tick(policy, s, k)
        return [CMStarState(v.lam, v.env, store, k, u) for v in clos]
    if isinstance(c, App):
        u = sem.tick(policy, s, k)
        addr = policy.alloc_kont(c.label, s, k)
        frame = ArM(c.arg, env, EMPTY_MARKS, addr)
        return [CMStarState(c.fun, env, sem.alloc(store, addr, k), frame, u)]
    if isinstance(c, Lam):
        if isinstance(k, ArM):
            frame = FnM(c, env, k.marks, k.tail)
            return [CMStarState(k.exp, k.env, store, frame, sem.tick(policy, s, k))]
        if isinstance(k, FnM):
            succs = []
            for popped in sem.fetch(store, k.tail, Kont, "continuation address"):
                u = sem.tick(policy, s, popped)
                addr = policy.alloc_bind(k.lam.param, s, popped)
                store2 = sem.alloc(store, addr, Closure(c, env))
                succs.append(CMStarState(k.lam.body, k.env.set(k.lam.param, addr), store2, popped, u))
            return succs
        return sem.stuck("no rule for control {!r}", c)
    if isinstance(c, Fail):
        if _is_fail_halt(c, k):
            return []
        return [CMStarState(c, env, store, MTM, sem.tick(policy, s, MTM))]
    if isinstance(c, Frame):
        return [CMStarState(c.body, env, store, mark(k, universe - c.perms, DENY), sem.tick(policy, s, k))]
    if isinstance(c, Grant):
        return [CMStarState(c.body, env, store, mark(k, c.perms, GRANT), sem.tick(policy, s, k))]
    if isinstance(c, Test):
        some_ok, some_fail = _inspect(c.perms, k, store, sem)
        u = sem.tick(policy, s, k)
        branches = [b for b, taken in ((c.then, some_ok), (c.other, some_fail)) if taken]
        return [CMStarState(b, env, store, k, u) for b in branches]
    return sem.stuck("no rule for control {!r}", c)


def step_cm_star(s: CMStarState, universe: frozenset[str], policy=FRESH_POLICY) -> StepOutcome:
    if is_fail_acm(s):
        return FailFinal()
    if is_final_acm(s):
        return Final(Closure(s.ctrl, s.env))
    return _concrete_step(_cm_rules, s, universe, policy)


def step_cm_abstract(s: CMStarState, universe: frozenset[str], policy) -> list[CMStarState]:
    return _cm_rules(s, ABSTRACT_STORE, universe, policy)


# ---------------------------------------------------------------------------
# Truncation into the abstract space
# ---------------------------------------------------------------------------


def alpha_cm_state(s: CMStarState, k: int) -> CMStarState:
    from .analysis import alpha_fields

    return alpha_fields(s, k)
