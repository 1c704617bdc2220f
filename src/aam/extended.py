"""The extended machine: conditionals, assignment, first-class
continuations, and exception handlers over the star machine.

Values extend closures with ``FalseV``, the ``CallccV`` operator, and
``KontV(addr)`` — a reified continuation living in the store.  The control
register holds either an expression or one of these values; syntactic value
forms are converted at frame-matching time, so no administrative steps are
added.  A handler register rides along: ``MtH`` means no handler, and
``Hn(lam, env, addr)`` saves the handler body with the address of the
handler/continuation pair to reinstate on return or throw.

Rule highlights:

* ``(set! x e)`` returns the *old* value; the concrete store overwrites,
  the abstract store joins (so the old value is never lost abstractly).
* applying ``callcc`` to a closure binds the parameter to the current
  continuation frame, stored at the binding address.
* applying ``callcc`` to a continuation value reifies the *current* frame
  (the pending callcc application) as the captured continuation — invoking
  it later re-enters that application.
* applying a continuation value discards the current continuation.
* a value returning to ``Mt`` under an installed handler pops the handler;
  returning under ``MtH`` is final.

The rules are written once, in ``_ext_rules``, against a store semantics:
``step_extended`` fires them over exact stores, ``step_extended_abstract``
over abstract ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .machines import (
    Closure,
    FRESH_POLICY,
    Final,
    Kont,
    MT,
    Mt,
    StepOutcome,
    Value,
    _concrete_step,
)
from .store import (
    ABSTRACT_STORE,
    Addr,
    EMPTY_ASTORE,
    EMPTY_MAP,
    Env,
    FrozenMap,
    TAG_REIFY,
    Time,
)
from .syntax import (
    App,
    Callcc,
    Catch,
    EXTENDED_FORMS,
    Exp,
    FalseLit,
    If,
    Lam,
    Ref,
    SetBang,
    Throw,
    check_closed,
    check_features,
)


@dataclass(frozen=True)
class FalseV(Value):
    tick_label = -2

    def __repr__(self) -> str:
        return "#f"


@dataclass(frozen=True)
class CallccV(Value):
    tick_label = -3

    def __repr__(self) -> str:
        return "callcc"


@dataclass(frozen=True)
class KontV(Value):
    addr: Addr
    tick_label = -4

    def __repr__(self) -> str:
        return f"kont@{self.addr!r}"


FALSE = FalseV()
CALLCC = CallccV()


@dataclass(frozen=True)
class Handler:
    pass


@dataclass(frozen=True)
class MtH(Handler):
    def __repr__(self) -> str:
        return "MtH"


@dataclass(frozen=True)
class Hn(Handler):
    lam: Lam
    env: Env
    saved: Addr

    def __repr__(self) -> str:
        return f"Hn({self.lam!r} {self.env!r} {self.saved!r})"


MTH = MtH()


@dataclass(frozen=True)
class HandlerPair:
    """Storable snapshot of (handler register, continuation register)."""

    handler: Handler
    kont: Kont

    def __repr__(self) -> str:
        return f"pair[{self.handler!r} {self.kont!r}]"


# Frames.  Each records the label of the node that pushed it; the reified
# continuation address produced when callcc meets a continuation value is
# keyed by that site.
@dataclass(frozen=True)
class ArX(Kont):
    exp: Exp
    env: Env
    site: int
    tail: Addr

    def __repr__(self) -> str:
        return f"Ar({self.exp!r} {self.env!r} #{self.site} {self.tail!r})"


@dataclass(frozen=True)
class FnX(Kont):
    op: Value
    site: int
    tail: Addr

    def __repr__(self) -> str:
        return f"Fn({self.op!r} #{self.site} {self.tail!r})"


@dataclass(frozen=True)
class IfK(Kont):
    then: Exp
    other: Exp
    env: Env
    site: int
    tail: Addr

    def __repr__(self) -> str:
        return f"If({self.then!r} {self.other!r} {self.env!r} #{self.site} {self.tail!r})"


@dataclass(frozen=True)
class SetK(Kont):
    target: Addr
    site: int
    tail: Addr

    def __repr__(self) -> str:
        return f"Set({self.target!r} #{self.site} {self.tail!r})"


@dataclass(frozen=True)
class ExtState:
    ctrl: Union[Exp, Value]
    env: Env
    store: FrozenMap
    handler: Handler
    kont: Kont
    time: Time


def inject_extended(e: Exp, policy=FRESH_POLICY) -> ExtState:
    check_closed(e)
    check_features(e, EXTENDED_FORMS, "extended")
    return ExtState(e, EMPTY_MAP, EMPTY_MAP, MTH, MT, policy.t0)


def inject_aext(e: Exp, policy) -> ExtState:
    check_closed(e)
    check_features(e, EXTENDED_FORMS, "extended")
    return ExtState(e, EMPTY_MAP, EMPTY_ASTORE, MTH, MT, policy.t0)


def control_value(ctrl, env: Env):
    """The value a control represents, or None for a non-value expression."""
    if isinstance(ctrl, Value):
        return ctrl
    if isinstance(ctrl, Lam):
        return Closure(ctrl, env)
    if isinstance(ctrl, FalseLit):
        return FALSE
    if isinstance(ctrl, Callcc):
        return CALLCC
    return None


def _resume(w, env: Env):
    """Control/environment pair for re-entering a stored value."""
    if isinstance(w, Closure):
        return w.lam, w.env
    return w, env


def is_final_ext(s: ExtState) -> bool:
    return (
        control_value(s.ctrl, s.env) is not None
        and isinstance(s.kont, Mt)
        and isinstance(s.handler, MtH)
    )


# ---------------------------------------------------------------------------
# Transition rules, concrete and abstract
# ---------------------------------------------------------------------------


def _ext_rules(s: ExtState, sem, policy) -> list:
    """The extended machine's transitions over store semantics ``sem``."""
    c, env, store, eta, k = s.ctrl, s.env, s.store, s.handler, s.kont

    v = control_value(c, env)
    if v is None:
        if isinstance(c, Ref):
            addr = env.get(c.name)
            if addr is None:
                return sem.stuck("unbound variable {}", c.name)
            ws = sem.fetch(store, addr, object, "address")
            u = sem.tick(policy, s, k)
            succs = []
            seen_kont = False
            for w in ws:
                if isinstance(w, Kont):
                    # a continuation value names its address, so all frames there give one
                    if not seen_kont:
                        seen_kont = True
                        succs.append(ExtState(KontV(addr), env, store, eta, k, u))
                else:
                    ctrl2, env2 = _resume(w, env)
                    succs.append(ExtState(ctrl2, env2, store, eta, k, u))
            return succs
        if isinstance(c, (App, If, SetBang, Catch)):
            if isinstance(c, SetBang):
                target = env.get(c.name)
                if target is None:
                    return sem.stuck("unbound variable {}", c.name)
            u = sem.tick(policy, s, k)
            addr = policy.alloc_kont(c.label, s, k)
            if isinstance(c, App):
                return [ExtState(c.fun, env, sem.alloc(store, addr, k), eta,
                                 ArX(c.arg, env, c.label, addr), u)]
            if isinstance(c, If):
                return [ExtState(c.test, env, sem.alloc(store, addr, k), eta,
                                 IfK(c.then, c.other, env, c.label, addr), u)]
            if isinstance(c, SetBang):
                return [ExtState(c.value, env, sem.alloc(store, addr, k), eta,
                                 SetK(target, c.label, addr), u)]
            store2 = sem.alloc(store, addr, HandlerPair(eta, k))
            return [ExtState(c.body, env, store2, Hn(c.handler, env, addr), MT, u)]
        if isinstance(c, Throw):
            w = control_value(c.value, env)
            if not isinstance(eta, Hn):
                return sem.stuck("throw with no handler installed")
            succs = []
            for pair in sem.fetch(store, eta.saved, HandlerPair, "handler address"):
                u = sem.tick(policy, s, pair.kont)
                addr = policy.alloc_bind(eta.lam.param, s, pair.kont)
                store2 = sem.alloc(store, addr, w)
                succs.append(ExtState(eta.lam.body, eta.env.set(eta.lam.param, addr), store2,
                                      pair.handler, pair.kont, u))
            return succs
        return sem.stuck("no rule for control {!r}", c)

    # value rules
    if isinstance(k, Mt):
        if not isinstance(eta, Hn):
            return []  # final
        pairs = sem.fetch(store, eta.saved, HandlerPair, "handler address")
        return [ExtState(c, env, store, p.handler, p.kont, sem.tick(policy, s, p.kont))
                for p in pairs]
    if isinstance(k, ArX):
        return [ExtState(k.exp, k.env, store, eta, FnX(v, k.site, k.tail), sem.tick(policy, s, k))]
    if not isinstance(k, (FnX, IfK, SetK)):
        return sem.stuck("no rule for continuation {!r}", k)
    popped_all = sem.fetch(store, k.tail, Kont, "continuation address")
    succs = []
    if isinstance(k, FnX):
        op = k.op
        for popped in popped_all:
            if isinstance(op, Closure):
                u = sem.tick(policy, s, popped)
                addr = policy.alloc_bind(op.lam.param, s, popped)
                store2 = sem.alloc(store, addr, v)
                succs.append(ExtState(op.lam.body, op.env.set(op.lam.param, addr), store2,
                                      eta, popped, u))
            elif isinstance(op, CallccV) and isinstance(v, Closure):
                u = sem.tick(policy, s, popped)
                addr = policy.alloc_bind(v.lam.param, s, popped)
                store2 = sem.alloc(store, addr, popped)
                succs.append(ExtState(v.lam.body, v.env.set(v.lam.param, addr), store2,
                                      eta, popped, u))
            elif isinstance(op, CallccV) and isinstance(v, KontV):
                for target in sem.fetch(store, v.addr, Kont, "continuation address"):
                    u = sem.tick(policy, s, target)
                    addr = policy.alloc_kont(k.site, s, target, TAG_REIFY)
                    store2 = sem.alloc(store, addr, k)
                    succs.append(ExtState(KontV(addr), env, store2, eta, target, u))
            elif isinstance(op, CallccV):
                return sem.stuck("callcc applied to {!r}", v)
            elif isinstance(op, KontV):
                for target in sem.fetch(store, op.addr, Kont, "continuation address"):
                    succs.append(ExtState(c, env, store, eta, target, sem.tick(policy, s, target)))
            else:
                return sem.stuck("{!r} is not applicable", op)
        return succs
    if isinstance(k, IfK):
        branch = k.other if isinstance(v, FalseV) else k.then
        return [ExtState(branch, k.env, store, eta, p, sem.tick(policy, s, p)) for p in popped_all]
    olds = sem.fetch(store, k.target, object, "address")
    kont_olds = [w for w in olds if isinstance(w, Kont)]
    store2 = sem.update(store, k.target, v)
    for popped in popped_all:
        u = sem.tick(policy, s, popped)
        if kont_olds:
            # the old continuation needs a home that survives the overwrite
            addr = policy.alloc_kont(k.site, s, popped, TAG_REIFY)
            store3 = store2
            for w in kont_olds:
                store3 = sem.alloc(store3, addr, w)
            succs.append(ExtState(KontV(addr), env, store3, eta, popped, u))
        for old in olds:
            if not isinstance(old, Kont):
                ctrl2, env2 = _resume(old, env)
                succs.append(ExtState(ctrl2, env2, store2, eta, popped, u))
    return succs


def step_extended(s: ExtState, policy=FRESH_POLICY) -> StepOutcome:
    if is_final_ext(s):
        return Final(control_value(s.ctrl, s.env))
    return _concrete_step(_ext_rules, s, policy)


def step_extended_abstract(s: ExtState, policy) -> list[ExtState]:
    return _ext_rules(s, ABSTRACT_STORE, policy)


# ---------------------------------------------------------------------------
# Truncation into the abstract space
# ---------------------------------------------------------------------------


def alpha_ext_state(s: ExtState, k: int) -> ExtState:
    from .analysis import alpha_fields

    return alpha_fields(s, k)
