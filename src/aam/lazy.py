"""Call-by-need machines over the core language.

Bindings denote thunks: ``Delayed(e, env)`` is an unevaluated operand,
``Computed(lam, env)`` its memoized value.  Forcing a variable over a
Delayed entry pushes an Update frame that overwrites the thunk with
Computed when the value arrives; a second force takes the memo hit and
pushes nothing.

Frames:

* ``UpdateK(target, tail)``    write the incoming value back to ``target``
* ``ApplyK(arg, tail)``        operator evaluated next, operand thunk ready
* ``ApplyExpK(exp, env, tail)``  operand not yet allocated (postponed
  variant: allocation happens at binding time)

Three concrete variants share the value rules and differ at application:

* standard    every operand becomes a fresh Delayed thunk
* opt         a variable operand reuses its existing thunk address and a
              lambda operand is stored already Computed
* postponed   the operand rides the frame and is allocated at binding time

``step_lk`` drives linked frames.  The machine with store-allocated frames
under an allocation policy is written once, in ``_lk_rules``, against a
store semantics: ``step_lk_star`` fires it over exact stores and
``step_lk_star_abstract`` over abstract ones (joins and fan-outs).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Union

from .machines import (
    Closure,
    FRESH_POLICY,
    Final,
    Kont,
    MT,
    Mt,
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
    InvariantError,
    TAG_KONT,
    TAG_THUNK,
    Time,
    fresh_addr,
)
from .syntax import App, CORE_FORMS, Exp, Lam, Ref, check_closed, check_features

VARIANTS = ("standard", "opt", "postponed")


@dataclass(frozen=True)
class Delayed:
    exp: Exp
    env: Env

    def __repr__(self) -> str:
        return f"delay[{self.exp!r} {self.env!r}]"


@dataclass(frozen=True)
class Computed:
    lam: Lam
    env: Env

    def __repr__(self) -> str:
        return f"memo[{self.lam!r} {self.env!r}]"


@dataclass(frozen=True)
class UpdateK(Kont):
    target: Addr
    tail: Union[Kont, Addr]

    def __repr__(self) -> str:
        return f"Upd({self.target!r} {self.tail!r})"


@dataclass(frozen=True)
class ApplyK(Kont):
    arg: Addr
    tail: Union[Kont, Addr]

    def __repr__(self) -> str:
        return f"Ap({self.arg!r} {self.tail!r})"


@dataclass(frozen=True)
class ApplyExpK(Kont):
    exp: Exp
    env: Env
    tail: Union[Kont, Addr]

    def __repr__(self) -> str:
        return f"ApX({self.exp!r} {self.env!r} {self.tail!r})"


@dataclass(frozen=True)
class LKState:
    ctrl: Exp
    env: Env
    store: FrozenMap
    kont: Kont


@dataclass(frozen=True)
class LKStarState:
    ctrl: Exp
    env: Env
    store: FrozenMap
    kont: Kont
    time: Time


def inject_lk(e: Exp) -> LKState:
    check_closed(e)
    check_features(e, CORE_FORMS, "lazy")
    return LKState(e, EMPTY_MAP, EMPTY_MAP, MT)


def inject_lk_star(e: Exp, policy=FRESH_POLICY) -> LKStarState:
    check_closed(e)
    check_features(e, CORE_FORMS, "lazy")
    return LKStarState(e, EMPTY_MAP, EMPTY_MAP, MT, policy.t0)


def inject_alk(e: Exp, policy) -> LKStarState:
    check_closed(e)
    check_features(e, CORE_FORMS, "lazy")
    return LKStarState(e, EMPTY_MAP, EMPTY_ASTORE, MT, policy.t0)


# ---------------------------------------------------------------------------
# Concrete machine, linked frames
# ---------------------------------------------------------------------------


def step_lk(s: LKState, variant: str = "standard") -> StepOutcome:
    c, env, store, k = s.ctrl, s.env, s.store, s.kont
    if isinstance(c, Ref):
        addr = env.get(c.name)
        if addr is None:
            return Stuck(f"unbound variable {c.name}")
        thunk = store.get(addr)
        if isinstance(thunk, Delayed):
            return Next(LKState(thunk.exp, thunk.env, store, UpdateK(addr, k)))
        if isinstance(thunk, Computed):
            return Next(LKState(thunk.lam, thunk.env, store, k))
        return Stuck(f"dangling address {addr!r}")
    if isinstance(c, App):
        if variant == "opt" and isinstance(c.arg, Ref):
            addr = env.get(c.arg.name)
            if addr is None:
                return Stuck(f"unbound variable {c.arg.name}")
            return Next(LKState(c.fun, env, store, ApplyK(addr, k)))
        if variant == "opt" and isinstance(c.arg, Lam):
            addr = fresh_addr(store)
            return Next(
                LKState(c.fun, env, store.set(addr, Computed(c.arg, env)), ApplyK(addr, k))
            )
        if variant == "postponed":
            return Next(LKState(c.fun, env, store, ApplyExpK(c.arg, env, k)))
        addr = fresh_addr(store)
        return Next(
            LKState(c.fun, env, store.set(addr, Delayed(c.arg, env)), ApplyK(addr, k))
        )
    if isinstance(c, Lam):
        if isinstance(k, UpdateK):
            if not isinstance(store.get(k.target), Delayed):
                raise InvariantError("memo write must be the first")
            return Next(LKState(c, env, store.set(k.target, Computed(c, env)), k.tail))
        if isinstance(k, ApplyK):
            return Next(LKState(c.body, env.set(c.param, k.arg), store, k.tail))
        if isinstance(k, ApplyExpK):
            addr = fresh_addr(store)
            store2 = store.set(addr, Delayed(k.exp, k.env))
            return Next(LKState(c.body, env.set(c.param, addr), store2, k.tail))
        if isinstance(k, Mt):
            return Final(Closure(c, env))
    return Stuck(f"no rule for control {c!r}")


# ---------------------------------------------------------------------------
# Store-allocated frames, concrete and abstract
# ---------------------------------------------------------------------------


def is_final_alk(s: LKStarState) -> bool:
    return isinstance(s.ctrl, Lam) and isinstance(s.kont, Mt)


def _lk_rules(s: LKStarState, sem, policy, variant: str) -> list:
    """The by-need transitions with store-allocated frames, over store
    semantics ``sem``."""
    c, env, store, k = s.ctrl, s.env, s.store, s.kont
    if isinstance(c, Ref):
        addr = env.get(c.name)
        if addr is None:
            return sem.stuck("unbound variable {}", c.name)
        thunks = sem.fetch(store, addr, (Delayed, Computed), "address")
        u = sem.tick(policy, s, k)
        succs = []
        for thunk in thunks:
            if isinstance(thunk, Delayed):
                ka = policy.alloc_update(c.name, s, k)
                store2 = sem.alloc(store, ka, k)
                succs.append(LKStarState(thunk.exp, thunk.env, store2, UpdateK(addr, ka), u))
            else:
                succs.append(LKStarState(thunk.lam, thunk.env, store, k, u))
        return succs
    if isinstance(c, App):
        u = sem.tick(policy, s, k)
        if variant == "opt" and isinstance(c.arg, Ref):
            addr = env.get(c.arg.name)
            if addr is None:
                return sem.stuck("unbound variable {}", c.arg.name)
            ka = policy.alloc_kont(c.label, s, k, TAG_KONT)
            return [LKStarState(c.fun, env, sem.alloc(store, ka, k), ApplyK(addr, ka), u)]
        if variant == "postponed":
            ka = policy.alloc_kont(c.label, s, k, TAG_KONT)
            frame = ApplyExpK(c.arg, env, ka)
            return [LKStarState(c.fun, env, sem.alloc(store, ka, k), frame, u)]
        if variant == "opt" and isinstance(c.arg, Lam):
            entry = Computed(c.arg, env)
        else:
            entry = Delayed(c.arg, env)
        ta = policy.alloc_kont(c.label, s, k, TAG_THUNK)
        store2 = sem.alloc(store, ta, entry)
        # a store-scanning allocator must see the thunk to pick another address
        ka = policy.alloc_kont(c.label, dataclasses.replace(s, store=store2), k, TAG_KONT)
        return [LKStarState(c.fun, env, sem.alloc(store2, ka, k), ApplyK(ta, ka), u)]
    if isinstance(c, Lam) and isinstance(k, (UpdateK, ApplyK, ApplyExpK)):
        popped_all = sem.fetch(store, k.tail, Kont, "continuation address")
        if isinstance(k, UpdateK):
            if not sem.holds(store, k.target, Delayed):
                raise InvariantError("memo write must be the first")
            store2 = sem.update(store, k.target, Computed(c, env))
            return [LKStarState(c, env, store2, p, sem.tick(policy, s, p)) for p in popped_all]
        succs = []
        for popped in popped_all:
            u = sem.tick(policy, s, popped)
            if isinstance(k, ApplyK):
                succs.append(LKStarState(c.body, env.set(c.param, k.arg), store, popped, u))
            else:
                addr = policy.alloc_bind(c.param, s, popped)
                store2 = sem.alloc(store, addr, Delayed(k.exp, k.env))
                succs.append(LKStarState(c.body, env.set(c.param, addr), store2, popped, u))
        return succs
    return sem.stuck("no rule for control {!r}", c)


def step_lk_star(s: LKStarState, policy=FRESH_POLICY, variant: str = "standard") -> StepOutcome:
    if is_final_alk(s):
        return Final(Closure(s.ctrl, s.env))
    return _concrete_step(_lk_rules, s, policy, variant)


def step_lk_star_abstract(s: LKStarState, policy, variant: str = "standard") -> list[LKStarState]:
    return _lk_rules(s, ABSTRACT_STORE, policy, variant)


# ---------------------------------------------------------------------------
# Truncation into the abstract space
# ---------------------------------------------------------------------------


def alpha_lk_state(s: LKStarState, k: int) -> LKStarState:
    from .analysis import alpha_fields

    return alpha_fields(s, k)
