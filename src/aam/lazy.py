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

The rules are written once, in ``_lk_rules`` (held by ``LAZY``, whose
argument is the variant).  ``step_lk`` reads them with
``machines.LINKED_POLICY`` on untimed states, so every frame links to the
frame below it; ``step_lk_star`` with a store-allocating policy, so every
frame's tail is an address; ``step_lk_star_abstract`` over abstract
stores (joins and fan-outs).
"""

from __future__ import annotations

from typing import Union

from .analysis import alpha_fields
from .machines import (
    CESKtState,
    CORE,
    FRESH_POLICY,
    Kont,
    LINKED_POLICY,
    Language,
    StepOutcome,
    Storable,
    is_final_abstract,
)
from .store import (
    ABSTRACT_STORE,
    Addr,
    Env,
    InvariantError,
    TAG_KONT,
    TAG_THUNK,
    cached_repr,
    value_class,
)
from .syntax import App, CORE_FORMS, Exp, Lam, Ref

VARIANTS = ("standard", "opt", "postponed")


@value_class
class Delayed(Storable):
    exp: Exp
    env: Env

    def __repr__(self) -> str:
        return f"delay[{self.exp!r} {self.env!r}]"


@value_class
class Computed(Storable):
    lam: Lam
    env: Env

    def __repr__(self) -> str:
        return f"memo[{self.lam!r} {self.env!r}]"


@value_class
class UpdateK(Kont):
    target: Addr
    tail: Union[Kont, Addr]

    @cached_repr
    def __repr__(self) -> str:
        return f"Upd({self.target!r} {self.tail!r})"


@value_class
class ApplyK(Kont):
    arg: Addr
    tail: Union[Kont, Addr]

    @cached_repr
    def __repr__(self) -> str:
        return f"Ap({self.arg!r} {self.tail!r})"


@value_class
class ApplyExpK(Kont):
    exp: Exp
    env: Env
    tail: Union[Kont, Addr]

    @cached_repr
    def __repr__(self) -> str:
        return f"ApX({self.exp!r} {self.env!r} {self.tail!r})"


# By-need states have the core store machines' fields; ``time`` is ``None``
# in the linked machine.
LKState = LKStarState = CESKtState


def inject_lk(e: Exp) -> LKStarState:
    return LAZY.inject(e)


def inject_lk_star(e: Exp, policy=FRESH_POLICY) -> LKStarState:
    return LAZY.inject(e, None, policy.t0)


# The empty abstract store is the empty map.
inject_alk = inject_lk_star


# ---------------------------------------------------------------------------
# The rules, concrete and abstract, linked and stored
# ---------------------------------------------------------------------------


is_final_alk = is_final_abstract


def _lk_rules(s: LKStarState, sem, policy, variant: str) -> list:
    """The by-need transitions over store semantics ``sem``, which builds
    every frame and thunk they make and extends every environment."""
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
                frame = sem.make(UpdateK, addr, ka)
                succs.append(LKStarState(thunk.exp, thunk.env, store2, frame, u))
            else:
                succs.append(LKStarState(thunk.lam, thunk.env, store, k, u))
        return succs
    if isinstance(c, App):
        u = sem.tick(policy, s, k)
        ka = policy.alloc_kont(c.label, s, k, TAG_KONT)
        store1 = sem.alloc(store, ka, k)
        if variant == "opt" and isinstance(c.arg, Ref):
            addr = env.get(c.arg.name)
            if addr is None:
                return sem.stuck("unbound variable {}", c.arg.name)
            return [LKStarState(c.fun, env, store1, sem.make(ApplyK, addr, ka), u)]
        if variant == "postponed":
            return [LKStarState(c.fun, env, store1, sem.make(ApplyExpK, c.arg, env, ka), u)]
        if variant == "opt" and isinstance(c.arg, Lam):
            entry = sem.make(Computed, c.arg, env)
        else:
            entry = sem.make(Delayed, c.arg, env)
        # A second allocation in one step: the thunk's address must come
        # from store1, whose high-water mark counts the frame just stored,
        # or it would repeat the frame's address.  A linked frame leaves
        # the store, and so its mark, as it was.  The state is only read
        # by the policy, so the semantics does not build it.
        s1 = s if store1 is store else LKStarState(c, env, store1, k, s.time)
        ta = policy.alloc_kont(c.label, s1, k, TAG_THUNK)
        return [LKStarState(c.fun, env, sem.alloc(store1, ta, entry), sem.make(ApplyK, ta, ka), u)]
    if isinstance(c, Lam) and isinstance(k, (UpdateK, ApplyK, ApplyExpK)):
        popped_all = sem.fetch(store, k.tail, Kont, "continuation address")
        if isinstance(k, UpdateK):
            if not sem.holds(store, k.target, Delayed):
                raise InvariantError("memo write must be the first")
            memo = sem.update(store, k.target, sem.make(Computed, c, env))
        succs = []
        for popped in popped_all:
            u = sem.tick(policy, s, popped)
            if isinstance(k, UpdateK):
                succs.append(LKStarState(c, env, memo, popped, u))
            elif isinstance(k, ApplyK):
                body_env = sem.extend(env, c.param, k.arg)
                succs.append(LKStarState(c.body, body_env, store, popped, u))
            else:
                addr = policy.alloc_bind(c.param, s, popped)
                store2 = sem.alloc(store, addr, sem.make(Delayed, k.exp, k.env))
                body_env = sem.extend(env, c.param, addr)
                succs.append(LKStarState(c.body, body_env, store2, popped, u))
        return succs
    return sem.stuck("no rule for control {!r}", c)


# By-need runs start, halt and end where core runs do.
LAZY = Language("lazy", CORE_FORMS, CORE.start, _lk_rules, CORE.halt, is_final_abstract)


def step_lk(s: LKStarState, variant: str = "standard") -> StepOutcome:
    return LAZY.step(s, LINKED_POLICY, variant)


def step_lk_star(s: LKStarState, policy=FRESH_POLICY, variant: str = "standard") -> StepOutcome:
    return LAZY.step(s, policy, variant)


def step_lk_star_abstract(s: LKStarState, policy, variant: str = "standard") -> list[LKStarState]:
    return _lk_rules(s, ABSTRACT_STORE, policy, variant)


# Truncation into the abstract space: the field walk every language shares.
alpha_lk_state = alpha_fields
