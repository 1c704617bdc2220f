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
operand value with the operator closure in hand.  ``tail`` is the frame
itself when frames are linked and an address when they are stored.  The
rules build each frame they push from the frame below it (``k.AR``,
``Ar.fn``).

Policies supply ``tick``/``alloc_*``; both take the state and the
continuation chosen by the firing rule.  Concrete policies must allocate
addresses absent from the store and must strictly advance time; the
concrete store semantics checks both and raises ``InvariantError``.

* ``FRESH_POLICY``       numeric addresses (max-plus-one) and an integer
                         clock
* ``KCFAPolicy(k)``      label contours cut to the last k labels; the
                         concrete ``TIME_KEYED_POLICY`` is ``KCFAPolicy(None)``
* ``LinkedPolicy(base)`` ``base`` with every frame allocated at itself, so
                         frames link to frames; ``LINKED_POLICY`` links
                         ``FRESH_POLICY``

The rules of CESK, CESK* and CESK*t are written once, in ``_core_rules``
(held by the ``Language`` record ``CORE``), against a store semantics
from ``store``.  The machines differ only in their policy and in whether
their states carry a time: ``step_cesk`` reads them with ``LINKED_POLICY``
on untimed states, ``step_cesk_star`` with ``FRESH_POLICY`` on untimed
states, ``step_ceskt`` with any concrete policy on timed ones,
``analysis.step_abstract`` over abstract stores, and ``inspection`` over
the security language's marked frames, which subclass the core ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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
    MonoBindA,
    MonoKontA,
    MonoUpdateA,
    TAG_KONT,
    TAG_THUNK,
    Tick,
    Time,
    UpdateA,
    _IDS5,
    cached_repr,
    fresh_addr,
    value_class,
)
from .syntax import App, CORE_FORMS, Exp, Lam, Ref, check_closed, check_features


# ---------------------------------------------------------------------------
# Values and frames
# ---------------------------------------------------------------------------


class Value:
    # The text ``cached_repr`` keeps, and the addresses ``gc.live_locations``
    # keeps.
    __slots__ = ("_repr", "_live")

    # Sentinel contour entry used when a machine's control register holds a
    # value with no syntax node (continuations, stored literals).
    tick_label = -1


def tick_label(ctrl) -> int:
    return ctrl.label if isinstance(ctrl, Exp) else ctrl.tick_label


@value_class
class Closure(Value):
    lam: Lam
    env: Env

    @cached_repr
    def __repr__(self) -> str:
        return f"clo[{self.lam!r} {self.env!r}]"


class Kont:
    __slots__ = ("_repr", "_live")  # as ``Value``'s


class Storable:
    """Base of the storables that are neither values nor frames (thunks,
    handler snapshots): it holds the addresses ``gc.live_locations``
    keeps."""

    __slots__ = ("_live",)


@value_class
class Mt(Kont):
    def __repr__(self) -> str:
        return "Mt"


@value_class
class Ar(Kont):
    exp: Exp
    env: Env
    tail: Union[Kont, Addr]

    @cached_repr
    def __repr__(self) -> str:
        return f"Ar({self.exp!r} {self.env!r} {self.tail!r})"

    def fn(self, lam: Lam, env: Env, make) -> Fn:
        """The call frame this frame becomes once its operator is a value,
        built by the store semantics' ``make``."""
        return make(Fn, lam, env, self.tail)


@value_class
class Fn(Kont):
    lam: Lam
    env: Env
    tail: Union[Kont, Addr]

    @cached_repr
    def __repr__(self) -> str:
        return f"Fn({self.lam!r} {self.env!r} {self.tail!r})"


# The argument frame an application pushes onto a frame of each class.
Mt.AR = Ar.AR = Fn.AR = Ar
MT = Mt()


# ---------------------------------------------------------------------------
# Step outcomes
# ---------------------------------------------------------------------------


@value_class
class Next:
    state: object


@value_class
class Final:
    value: object


@value_class
class Stuck:
    reason: str


@value_class
class FailFinal:
    """Distinguished halt for the security machines' fail form."""


StepOutcome = Union[Next, Final, Stuck, FailFinal]


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


@value_class
class CEKState:
    ctrl: Exp
    env: Env
    kont: Kont


@value_class
class CESKtState:
    """A state of the store machines; ``time`` is ``None`` in the untimed
    CESK and CESK* machines.  The by-need and security machines' states
    (``lazy.LKStarState``, ``inspection.CMStarState``) are this class too:
    only their frames and storables differ."""

    ctrl: Exp
    env: Env
    store: FrozenMap
    kont: Kont
    time: Time = None

    def part_ids(self) -> bytes:
        """The identities of the fields, packed into one bytes object: the
        key of a state whose parts are canonical (``interning``),
        which holds no int per part."""
        return _IDS5(id(self.ctrl), id(self.env), id(self.store), id(self.kont), id(self.time))


# CESK and CESK* states are untimed CESK*t states; only their frames differ.
CESKState = CESKStarState = CESKtState


# ---------------------------------------------------------------------------
# Allocation policies
# ---------------------------------------------------------------------------


class FreshTickPolicy:
    """Numeric addresses (max-plus-one) with an integer clock.

    ``fresh_addr`` reads the high-water mark the concrete store semantics
    keeps on every store it writes, so allocation is O(1); a store no
    concrete write produced (one GC has restricted, say) is scanned once."""

    t0 = Tick(0)

    def tick(self, state, kont) -> Time:
        return Tick(state.time.n + 1)

    def alloc_bind(self, var: str, state, kont) -> Addr:
        return fresh_addr(state.store)

    def alloc_kont(self, site: int, state, kont, tag: str = "kont") -> Addr:
        return fresh_addr(state.store)

    def alloc_update(self, var: str, state, kont) -> Addr:
        return fresh_addr(state.store)


class KCFAPolicy:
    """Contours of the last k control labels.  k = None cuts nothing: the
    concrete time-keyed policy, whose times grow by a label per step so
    every allocation is fresh, and whose states the truncation map sends to
    each bounded k.  k=0 degenerates to the time-free monovariant address
    families, and every tick to the one shared empty contour.

    At a bounded k the range is finite, and the policy makes each contour
    and each address once, handing the same object out on every later
    tick or allocation that gives it; they live as long as the policy.
    Equal times and addresses are thus one object, which the per-state
    search needs to key states by the identities of their parts
    (``analysis.explore_rules``).  The unbounded policy builds new ones."""

    def __init__(self, k: int | None):
        if k is not None and k < 0:
            raise ValueError("k must be non-negative")
        self.k = k
        # Each maker is always called with the same arity, so a cache
        # entry is keyed by every field.
        once = (lambda cls: cls) if k is None else cache
        self._contour = once(Contour)
        self.t0 = self._contour(())
        self._bind = once(MonoBindA if k == 0 else BindA)
        self._kont = once(MonoKontA if k == 0 else KontA)
        self._update = once(MonoUpdateA if k == 0 else UpdateA)

    def tick(self, state, kont) -> Contour:
        if self.k == 0:
            return self.t0
        return self._contour(((tick_label(state.ctrl),) + state.time.labels)[: self.k])

    def alloc_bind(self, var: str, state, kont) -> Addr:
        if self.k == 0:
            return self._bind(var)
        return self._bind(var, self.tick(state, kont))

    def alloc_kont(self, site: int, state, kont, tag: str = TAG_KONT) -> Addr:
        if self.k == 0:
            return self._kont(site, tag)
        return self._kont(site, self.tick(state, kont), tag)

    def alloc_update(self, var: str, state, kont) -> Addr:
        if self.k == 0:
            return self._update(var)
        return self._update(var, self.tick(state, kont))


class LinkedPolicy:
    """Linked frames over ``base``: a continuation frame is allocated at
    itself, so the frame pushed on top of it holds it as its tail and the
    store never sees it.  Times, bindings and thunks are the base's; its
    methods are bound here directly, so no call layer is added."""

    def __init__(self, base):
        self.base = base
        self.t0 = base.t0
        self.tick = base.tick
        self.alloc_bind = base.alloc_bind

    def alloc_kont(self, site: int, state, kont, tag: str = "kont"):
        return self.base.alloc_kont(site, state, kont, tag) if tag == TAG_THUNK else kont

    def alloc_update(self, var: str, state, kont):
        return kont


FRESH_POLICY = FreshTickPolicy()
TIME_KEYED_POLICY = KCFAPolicy(None)
LINKED_POLICY = LinkedPolicy(FRESH_POLICY)


# ---------------------------------------------------------------------------
# Injection
# ---------------------------------------------------------------------------


def inject_cek(e: Exp) -> CEKState:
    return CEKState(e, EMPTY_MAP, MT)


def inject_cesk(e: Exp) -> CESKtState:
    return CORE.start(e, None, None)


inject_cesk_star = inject_cesk


def inject_ceskt(e: Exp, policy=FRESH_POLICY) -> CESKtState:
    return CORE.start(e, None, policy.t0)


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


def is_final_abstract(s: CESKtState) -> bool:
    """A value facing the empty continuation: final in either reading."""
    return isinstance(s.ctrl, Lam) and isinstance(s.kont, Mt)


def _core_halt(s: CESKtState) -> Final | None:
    # The test of ``is_final_abstract`` written out: this runs on every step.
    if isinstance(s.ctrl, Lam) and isinstance(s.kont, Mt):
        return Final(Closure(s.ctrl, s.env))
    return None


def _core_rules(s: CESKtState, sem, policy, _=None) -> list:
    """The CESK*t transitions over store semantics ``sem``, in the
    deterministic order the abstract fan-out needs.  Every frame and
    closure a rule builds is built by ``sem.make``, and every environment
    by ``sem.extend``."""
    c, env, store, k = s.ctrl, s.env, s.store, s.kont
    if isinstance(c, Ref):
        addr = env.get(c.name)
        if addr is None:
            return sem.stuck("unbound variable {}", c.name)
        clos = sem.fetch(store, addr, Closure, "address")
        u = sem.tick(policy, s, k)
        # A loop rather than a comprehension, which Python 3.11 runs as a
        # separate call; this rule fires on every variable reference.
        succs = []
        for v in clos:
            succs.append(CESKtState(v.lam, v.env, store, k, u))
        return succs
    if isinstance(c, App):
        u = sem.tick(policy, s, k)
        addr = policy.alloc_kont(c.label, s, k)
        return [CESKtState(c.fun, env, sem.alloc(store, addr, k),
                           sem.make(k.AR, c.arg, env, addr), u)]
    if isinstance(c, Lam):
        if isinstance(k, Ar):
            return [CESKtState(k.exp, k.env, store, k.fn(c, env, sem.make),
                               sem.tick(policy, s, k))]
        if isinstance(k, Fn):
            succs = []
            for popped in sem.fetch(store, k.tail, Kont, "continuation address"):
                u = sem.tick(policy, s, popped)
                addr = policy.alloc_bind(k.lam.param, s, popped)
                store2 = sem.alloc(store, addr, sem.make(Closure, c, env))
                body_env = sem.extend(k.env, k.lam.param, addr)
                succs.append(CESKtState(k.lam.body, body_env, store2, popped, u))
            return succs
    return sem.stuck("no rule for control {!r}", c)


# ---------------------------------------------------------------------------
# Languages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Language:
    """One language's rules, and how a run of them starts and ends.  A
    machine is a language read under a policy and a store semantics.

    ``start(e, arg, time)`` builds the initial state (untimed when ``time``
    is None).  ``rules(s, sem, policy, arg)`` fire over store semantics
    ``sem``; ``arg`` is the one language parameter (the by-need variant,
    the permission universe), passed by position even where it is ignored,
    which keeps the call off Python's slow argument-unpacking path.
    ``halt(s)`` is how a concrete run ends at ``s`` (None when it steps
    on), and ``final(s)`` whether ``s`` is final in an abstract graph."""

    name: str
    forms: frozenset
    start: Callable
    rules: Callable
    halt: Callable
    final: Callable

    def check(self, e: Exp) -> None:
        """Reject an open program, or one with a form outside the language."""
        check_closed(e)
        check_features(e, self.forms, self.name)

    def inject(self, e: Exp, arg=None, time=None):
        """The initial state of a checked program."""
        self.check(e)
        return self.start(e, arg, time)

    def step(self, s, policy, arg=None) -> StepOutcome:
        """The concrete reading: halt, or the one successor over exact stores."""
        halted = self.halt(s)
        if halted is not None:
            return halted
        try:
            (succ,) = self.rules(s, CONCRETE_STORE, policy, arg)
        except MachineStuck as ex:
            return Stuck(ex.reason)
        return Next(succ)


CORE = Language("core", CORE_FORMS,
                lambda e, arg, time: CESKtState(e, EMPTY_MAP, EMPTY_MAP, MT, time),
                _core_rules, _core_halt, is_final_abstract)


def step_cesk(s: CESKtState) -> StepOutcome:
    return CORE.step(s, LINKED_POLICY)


def step_cesk_star(s: CESKtState) -> StepOutcome:
    return CORE.step(s, FRESH_POLICY)


def step_ceskt(s: CESKtState, policy=FRESH_POLICY) -> StepOutcome:
    return CORE.step(s, policy)


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
