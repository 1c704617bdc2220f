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

The security machine is the core machine with marks on its frames, as
Clements and Felleisen's CM machine is the CESK machine with marks:
``MtM``, ``ArM`` and ``FnM`` subclass ``Mt``, ``Ar`` and ``Fn`` with a
``marks`` field.  So ``machines._core_rules``, which build each pushed
frame from the frame below it, step every core form, and ``_cm_rules``
(held by ``SECURITY``, whose argument is the permission universe) adds
only the four security forms.  ``step_cm`` reads the rules with
``machines.LINKED_POLICY`` on untimed states, so every frame links to the
frame below it; ``step_cm_star`` with a store-allocating policy and
``step_cm_abstract`` over abstract stores.  Their inspection predicate is
one search over the store-resolved continuation paths: a test takes its
true branch if some path satisfies OK and its false branch if some path
refutes OK.  A linked continuation or an exact store has one path, so
exactly one branch is taken; with a merged store both can be.  ``ok``, the
plain walk over one path, is kept as the reference the tests compare
against.

``annotate`` applies the static policy: every lambda body is wrapped in a
frame carrying the given permission set and every grant is intersected
with it.
"""

from __future__ import annotations

from .analysis import alpha_fields
from .machines import (
    Ar,
    CESKtState,
    FRESH_POLICY,
    FailFinal,
    Final,
    Fn,
    Kont,
    LINKED_POLICY,
    Language,
    Mt,
    StepOutcome,
    _core_halt,
    _core_rules,
    is_final_abstract,
)
from .store import (
    ABSTRACT_STORE,
    Addr,
    EMPTY_MAP,
    Env,
    FrozenMap,
    cached_repr,
    value_class,
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
    check_features,
    permissions_used,
    relabel,
)

GRANT = "grant"
DENY = "deny"

Marks = FrozenMap  # permission -> GRANT | DENY
EMPTY_MARKS = EMPTY_MAP


@value_class
class MtM(Mt):
    marks: Marks = EMPTY_MARKS

    @cached_repr
    def __repr__(self) -> str:
        return f"Mt^{self.marks!r}"

    def marked(self, marks: Marks, make) -> MtM:
        """This frame with ``marks`` for its marks, built by the store
        semantics' ``make`` (as ``ArM.marked`` and ``FnM.marked``)."""
        return make(MtM, marks)


@value_class
class ArM(Ar):
    marks: Marks = EMPTY_MARKS

    @cached_repr
    def __repr__(self) -> str:
        return f"Ar^{self.marks!r}({self.exp!r} {self.env!r} {self.tail!r})"

    def fn(self, lam: Lam, env: Env, make) -> FnM:
        return make(FnM, lam, env, self.tail, self.marks)

    def marked(self, marks: Marks, make) -> ArM:
        return make(ArM, self.exp, self.env, self.tail, marks)


@value_class
class FnM(Fn):
    marks: Marks = EMPTY_MARKS

    @cached_repr
    def __repr__(self) -> str:
        return f"Fn^{self.marks!r}({self.lam!r} {self.env!r} {self.tail!r})"

    def marked(self, marks: Marks, make) -> FnM:
        return make(FnM, self.lam, self.env, self.tail, marks)


# An application pushes a marked frame, with empty marks, onto a marked one.
MtM.AR = ArM.AR = FnM.AR = ArM
MTM = MtM()


def mark(kont: Kont, perms: frozenset[str], value: str, sem) -> Kont:
    """Rewrite the top frame's marks for every permission in perms; the
    store semantics ``sem`` builds the marks and the frame."""
    if not perms:
        return kont
    return kont.marked(sem.merge(kont.marks, {p: value for p in perms}), sem.make)


# Security-machine states have the core store machines' fields; ``time`` is
# ``None`` in the linked machine.
CMStarState = CESKtState


def inject_cm(e: Exp, universe: frozenset[str]) -> CMStarState:
    return SECURITY.inject(e, universe)


def inject_cm_star(e: Exp, universe: frozenset[str], policy=FRESH_POLICY) -> CMStarState:
    return SECURITY.inject(e, universe, policy.t0)


# The empty abstract store is the empty map.
inject_acm = inject_cm_star


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
        # A linked tail has one successor, and hashing it would walk the
        # whole chain, so only stored tails are remembered.
        if isinstance(k.tail, Addr):
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
    perms.  Labels are regenerated in preorder.  A form outside the
    security language raises ``FeatureError``."""
    check_features(e, SECURITY_FORMS, "security")

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
# The rules, concrete and abstract, linked and stored
# ---------------------------------------------------------------------------


def is_fail_acm(s: CMStarState) -> bool:
    return isinstance(s.ctrl, Fail) and s.kont == MTM


# Over marked frames the core rules are the security machine's rules for
# every core form, and the core final test is its final test.
is_final_acm = is_final_abstract


def _cm_rules(s: CMStarState, sem, policy, universe: frozenset[str]) -> list:
    """The security forms' transitions over store semantics ``sem``; the
    core forms step by ``machines._core_rules``."""
    if isinstance(s.ctrl, (Ref, App, Lam)):
        return _core_rules(s, sem, policy, universe)
    c, env, store, k = s.ctrl, s.env, s.store, s.kont
    if isinstance(c, Fail):
        return [] if k == MTM else [CMStarState(c, env, store, MTM, sem.tick(policy, s, MTM))]
    if isinstance(c, Frame):
        marked = mark(k, universe - c.perms, DENY, sem)
        return [CMStarState(c.body, env, store, marked, sem.tick(policy, s, k))]
    if isinstance(c, Grant):
        marked = mark(k, c.perms, GRANT, sem)
        return [CMStarState(c.body, env, store, marked, sem.tick(policy, s, k))]
    if isinstance(c, Test):
        some_ok, some_fail = _inspect(c.perms, k, store, sem)
        u = sem.tick(policy, s, k)
        branches = [b for b, taken in ((c.then, some_ok), (c.other, some_fail)) if taken]
        return [CMStarState(b, env, store, k, u) for b in branches]
    return sem.stuck("no rule for control {!r}", c)


def _halt(s: CMStarState) -> Final | FailFinal | None:
    """A core halt, or a security failure facing the empty continuation."""
    if isinstance(s.kont, Mt):
        return FailFinal() if is_fail_acm(s) else _core_halt(s)
    return None


def _start(e: Exp, universe: frozenset[str], time) -> CMStarState:
    extra = permissions_used(e) - universe
    if extra:
        raise ValueError(f"permissions {sorted(extra)} are outside the declared universe")
    return CMStarState(e, EMPTY_MAP, EMPTY_MAP, MTM, time)


SECURITY = Language("security", SECURITY_FORMS, _start, _cm_rules, _halt, is_final_acm)


def step_cm(s: CMStarState, universe: frozenset[str]) -> StepOutcome:
    return SECURITY.step(s, LINKED_POLICY, universe)


def step_cm_star(s: CMStarState, universe: frozenset[str], policy=FRESH_POLICY) -> StepOutcome:
    return SECURITY.step(s, policy, universe)


def step_cm_abstract(s: CMStarState, universe: frozenset[str], policy) -> list[CMStarState]:
    return _cm_rules(s, ABSTRACT_STORE, policy, universe)


# Truncation into the abstract space: the field walk every language shares.
alpha_cm_state = alpha_fields
