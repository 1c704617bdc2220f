"""The concrete machine tower: CEK, CESK, CESK*, and time-stamped CESK*.

Each machine is a pure step function from state to outcome.  The tower
refines one machine into the next:

* CEK      environments map variables to closures; continuations are linked
           frames held in a register.
* CESK     bindings move into a store; environments map variables to
           addresses.
* CESK*    continuations move into the store as well; every frame's tail is
           an address.
* CESK*t   adds a time component threaded through ``tick``, with all
           allocation delegated to a policy object.

Frames:  Mt is the empty continuation; Ar(e, env, tail) waits for an
operator value with the operand pending; Fn(lam, env, tail) waits for the
operand value with the operator closure in hand.  ``tail`` is a frame in
the first two machines and an address afterwards.

Policies supply ``tick``/``alloc_*``; both take the state and the
continuation chosen by the firing rule.  Concrete policies must allocate
addresses absent from the store and must strictly advance time; the
concrete store semantics checks both and raises ``InvariantError``.

The CESK*t rules are written once, in ``_core_rules``, against a store
semantics from ``store``: ``step_ceskt`` fires them over exact stores and
``analysis.step_abstract`` over abstract ones.  ``_concrete_step`` is the
shared concrete reading of any language's rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from .store import (
    Addr,
    BindA,
    CONCRETE_STORE,
    Contour,
    Env,
    EMPTY_MAP,
    FrozenMap,
    KontA,
    MachineStuck,
    Tick,
    Time,
    UpdateA,
    fresh_addr,
)
from .syntax import App, Exp, Lam, Ref


# ---------------------------------------------------------------------------
# Values and frames
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Value:
    # Sentinel contour entry used when a machine's control register holds a
    # value with no syntax node (continuations, stored literals).
    tick_label = -1


def tick_label(ctrl) -> int:
    return ctrl.label if isinstance(ctrl, Exp) else ctrl.tick_label


@dataclass(frozen=True)
class Closure(Value):
    lam: Lam
    env: Env

    def __repr__(self) -> str:
        return f"clo[{self.lam!r} {self.env!r}]"


@dataclass(frozen=True)
class Kont:
    pass


@dataclass(frozen=True)
class Mt(Kont):
    def __repr__(self) -> str:
        return "Mt"


@dataclass(frozen=True)
class Ar(Kont):
    exp: Exp
    env: Env
    tail: Union[Kont, Addr]

    def __repr__(self) -> str:
        return f"Ar({self.exp!r} {self.env!r} {self.tail!r})"


@dataclass(frozen=True)
class Fn(Kont):
    lam: Lam
    env: Env
    tail: Union[Kont, Addr]

    def __repr__(self) -> str:
        return f"Fn({self.lam!r} {self.env!r} {self.tail!r})"


MT = Mt()


# ---------------------------------------------------------------------------
# Step outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Next:
    state: object


@dataclass(frozen=True)
class Final:
    value: object


@dataclass(frozen=True)
class Stuck:
    reason: str


@dataclass(frozen=True)
class FailFinal:
    """Distinguished halt for the security machines' fail form."""


StepOutcome = Union[Next, Final, Stuck, FailFinal]


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CEKState:
    ctrl: Exp
    env: Env
    kont: Kont


@dataclass(frozen=True)
class CESKState:
    ctrl: Exp
    env: Env
    store: FrozenMap
    kont: Kont


# The star machine's states have the same fields; only its frames differ.
CESKStarState = CESKState


@dataclass(frozen=True)
class CESKtState:
    ctrl: Exp
    env: Env
    store: FrozenMap
    kont: Kont
    time: Time


# ---------------------------------------------------------------------------
# Allocation policies
# ---------------------------------------------------------------------------


class FreshTickPolicy:
    """Numeric addresses (max-plus-one) with an integer clock."""

    concrete = True
    t0 = Tick(0)

    def tick(self, state, kont) -> Time:
        return Tick(state.time.n + 1)

    def alloc_bind(self, var: str, state, kont) -> Addr:
        return fresh_addr(state.store)

    def alloc_kont(self, site: int, state, kont, tag: str = "kont") -> Addr:
        return fresh_addr(state.store)

    def alloc_update(self, var: str, state, kont) -> Addr:
        return fresh_addr(state.store)


class TimeKeyedPolicy:
    """Unbounded label contours; addresses embed the full allocation time.

    Times grow by one label per step, so every allocation is fresh.  This is
    the concrete policy whose states the truncation map sends into the
    k-bounded abstract state space.
    """

    concrete = True
    t0 = Contour(())

    def tick(self, state, kont) -> Time:
        return Contour((tick_label(state.ctrl),) + state.time.labels)

    def alloc_bind(self, var: str, state, kont) -> Addr:
        return BindA(var, self.tick(state, kont))

    def alloc_kont(self, site: int, state, kont, tag: str = "kont") -> Addr:
        return KontA(site, self.tick(state, kont), tag)

    def alloc_update(self, var: str, state, kont) -> Addr:
        return UpdateA(var, self.tick(state, kont))


FRESH_POLICY = FreshTickPolicy()
TIME_KEYED_POLICY = TimeKeyedPolicy()


# ---------------------------------------------------------------------------
# Injection
# ---------------------------------------------------------------------------


def inject_cek(e: Exp) -> CEKState:
    return CEKState(e, EMPTY_MAP, MT)


def inject_cesk(e: Exp) -> CESKState:
    return CESKState(e, EMPTY_MAP, EMPTY_MAP, MT)


def inject_cesk_star(e: Exp) -> CESKState:
    return CESKState(e, EMPTY_MAP, EMPTY_MAP, MT)


def inject_ceskt(e: Exp, policy=FRESH_POLICY) -> CESKtState:
    return CESKtState(e, EMPTY_MAP, EMPTY_MAP, MT, policy.t0)


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------


def step_cek(s: CEKState) -> StepOutcome:
    c, env, k = s.ctrl, s.env, s.kont
    if isinstance(c, Ref):
        clo = env.get(c.name)
        if not isinstance(clo, Closure):
            return Stuck(f"unbound variable {c.name}")
        return Next(CEKState(clo.lam, clo.env, k))
    if isinstance(c, App):
        return Next(CEKState(c.fun, env, Ar(c.arg, env, k)))
    if isinstance(c, Lam):
        if isinstance(k, Ar):
            return Next(CEKState(k.exp, k.env, Fn(c, env, k.tail)))
        if isinstance(k, Fn):
            body_env = k.env.set(k.lam.param, Closure(c, env))
            return Next(CEKState(k.lam.body, body_env, k.tail))
        if isinstance(k, Mt):
            return Final(Closure(c, env))
    return Stuck(f"no rule for control {c!r}")


def step_cesk(s: CESKState) -> StepOutcome:
    c, env, store, k = s.ctrl, s.env, s.store, s.kont
    if isinstance(c, Ref):
        addr = env.get(c.name)
        if addr is None:
            return Stuck(f"unbound variable {c.name}")
        clo = store.get(addr)
        if not isinstance(clo, Closure):
            return Stuck(f"dangling address {addr!r}")
        return Next(CESKState(clo.lam, clo.env, store, k))
    if isinstance(c, App):
        return Next(CESKState(c.fun, env, store, Ar(c.arg, env, k)))
    if isinstance(c, Lam):
        if isinstance(k, Ar):
            return Next(CESKState(k.exp, k.env, store, Fn(c, env, k.tail)))
        if isinstance(k, Fn):
            addr = fresh_addr(store)
            store2 = CONCRETE_STORE.alloc(store, addr, Closure(c, env))
            return Next(CESKState(k.lam.body, k.env.set(k.lam.param, addr), store2, k.tail))
        if isinstance(k, Mt):
            return Final(Closure(c, env))
    return Stuck(f"no rule for control {c!r}")


def step_cesk_star(s: CESKState) -> StepOutcome:
    c, env, store, k = s.ctrl, s.env, s.store, s.kont
    if isinstance(c, Ref):
        addr = env.get(c.name)
        if addr is None:
            return Stuck(f"unbound variable {c.name}")
        clo = store.get(addr)
        if not isinstance(clo, Closure):
            return Stuck(f"dangling address {addr!r}")
        return Next(CESKState(clo.lam, clo.env, store, k))
    if isinstance(c, App):
        addr = fresh_addr(store)
        store2 = CONCRETE_STORE.alloc(store, addr, k)
        return Next(CESKState(c.fun, env, store2, Ar(c.arg, env, addr)))
    if isinstance(c, Lam):
        if isinstance(k, Ar):
            return Next(CESKState(k.exp, k.env, store, Fn(c, env, k.tail)))
        if isinstance(k, Fn):
            popped = store.get(k.tail)
            if not isinstance(popped, Kont):
                return Stuck(f"dangling continuation address {k.tail!r}")
            addr = fresh_addr(store)
            store2 = CONCRETE_STORE.alloc(store, addr, Closure(c, env))
            return Next(CESKState(k.lam.body, k.env.set(k.lam.param, addr), store2, popped))
        if isinstance(k, Mt):
            return Final(Closure(c, env))
    return Stuck(f"no rule for control {c!r}")


def is_final_abstract(s: CESKtState) -> bool:
    """A value facing the empty continuation: final in either reading."""
    return isinstance(s.ctrl, Lam) and isinstance(s.kont, Mt)


def _core_rules(s: CESKtState, sem, policy) -> list:
    """The CESK*t transitions over store semantics ``sem``, in the
    deterministic order the abstract fan-out needs."""
    c, env, store, k = s.ctrl, s.env, s.store, s.kont
    if isinstance(c, Ref):
        addr = env.get(c.name)
        if addr is None:
            return sem.stuck("unbound variable {}", c.name)
        clos = sem.fetch(store, addr, Closure, "address")
        u = sem.tick(policy, s, k)
        return [CESKtState(v.lam, v.env, store, k, u) for v in clos]
    if isinstance(c, App):
        u = sem.tick(policy, s, k)
        addr = policy.alloc_kont(c.label, s, k)
        return [CESKtState(c.fun, env, sem.alloc(store, addr, k), Ar(c.arg, env, addr), u)]
    if isinstance(c, Lam):
        if isinstance(k, Ar):
            return [CESKtState(k.exp, k.env, store, Fn(c, env, k.tail), sem.tick(policy, s, k))]
        if isinstance(k, Fn):
            succs = []
            for popped in sem.fetch(store, k.tail, Kont, "continuation address"):
                u = sem.tick(policy, s, popped)
                addr = policy.alloc_bind(k.lam.param, s, popped)
                store2 = sem.alloc(store, addr, Closure(c, env))
                succs.append(CESKtState(k.lam.body, k.env.set(k.lam.param, addr), store2, popped, u))
            return succs
    return sem.stuck("no rule for control {!r}", c)


def _concrete_step(rules, s, *args) -> StepOutcome:
    """Fire a language's rules over exact stores: one successor, or the
    reason the machine is stuck.  Callers decide finality first."""
    try:
        (succ,) = rules(s, CONCRETE_STORE, *args)
    except MachineStuck as ex:
        return Stuck(ex.reason)
    return Next(succ)


def step_ceskt(s: CESKtState, policy=FRESH_POLICY) -> StepOutcome:
    if is_final_abstract(s):
        return Final(Closure(s.ctrl, s.env))
    return _concrete_step(_core_rules, s, policy)


# ---------------------------------------------------------------------------
# Driving
# ---------------------------------------------------------------------------


@dataclass
class Trace:
    states: list
    outcome: str  # "final" | "stuck" | "fuel" | "fail"
    value: object = None
    reason: str = ""

    @property
    def steps(self) -> int:
        return len(self.states) - 1


def trace_from(step: Callable[[object], StepOutcome], initial, fuel: int) -> Trace:
    """Run a step function, collecting states until a halt or fuel runs out."""
    states = [initial]
    current = initial
    for _ in range(fuel):
        outcome = step(current)
        if isinstance(outcome, Next):
            current = outcome.state
            states.append(current)
        elif isinstance(outcome, Final):
            return Trace(states, "final", value=outcome.value)
        elif isinstance(outcome, FailFinal):
            return Trace(states, "fail")
        else:
            return Trace(states, "stuck", reason=outcome.reason)
    return Trace(states, "fuel")


MACHINES = {
    "cek": (inject_cek, lambda s, policy: step_cek(s)),
    "cesk": (inject_cesk, lambda s, policy: step_cesk(s)),
    "ceskstar": (inject_cesk_star, lambda s, policy: step_cesk_star(s)),
    "ceskt": (inject_ceskt, step_ceskt),
}


def run_trace(machine: str, e: Exp, fuel: int, policy=FRESH_POLICY) -> Trace:
    """Run one of the tower machines on a closed core program."""
    if machine not in MACHINES:
        raise ValueError(f"unknown machine {machine!r}")
    inject, step = MACHINES[machine]
    initial = inject(e, policy) if machine == "ceskt" else inject(e)
    return trace_from(lambda s: step(s, policy), initial, fuel)
