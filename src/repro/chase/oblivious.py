"""The oblivious chase (Section 3.1, set semantics).

The oblivious chase of ``D`` w.r.t. ``T`` is the ⊆-minimal instance that
contains ``D`` and is closed under (active or not) trigger applications.
Null invention is deterministic per trigger (Definition 3.1's
``c_x^{σ,h}``), so the fixpoint is unique and order-independent: we compute
it round by round on the shared kernel, draining the engine's worklist one
batch per round (activity checks are skipped entirely — the engine runs
with the witness cache disabled).

Although the fixpoint is order-independent, the *run* is still
deterministic — digest-named nulls, ``(birth, canonical_key)`` batch
order, digest-guarded checkpoint resume — so round boundaries and
derivation logs are reproducible too.  ``prune=True`` (the default)
drops assessor-proven dead rules from discovery, byte-identically.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.instance import Instance
from repro.chase.checkpoint import Budget, ChaseCheckpoint
from repro.chase.driver import CEILINGS, OBLIVIOUS, ChaseResult, ChaseRun
from repro.tgds.tgd import TGD


#: The oblivious chase's result class — the restricted chase's
#: :class:`ChaseResult` (``derivation`` None, ``applications`` the count).
ObliviousResult = ChaseResult


def oblivious_chase(
    database: Optional[Instance],
    tgds: Sequence[TGD],
    max_atoms: int = 100_000,
    max_rounds: int = 10_000,
    strategy: str = "semi_naive",
    workers: int = 1,
    parallel_backend: str = "process",
    budget: Optional[Budget] = None,
    resume: Optional[ChaseCheckpoint] = None,
    stats=None,
    prune: bool = True,
    backend=None,
) -> ChaseResult:
    """Compute the oblivious chase ``I_{D,T}`` up to the given bounds.

    Applies every trigger (active or not); set semantics deduplicates
    results.  A round applies the triggers discovered from the atoms of
    the previous round (the engine's pending batch).

    ``strategy`` selects how a round is evaluated — the fixpoint is
    order-independent, so both produce identical results round for round:

    * ``"semi_naive"`` (default) — the round driver
      (:class:`repro.chase.driver.ChaseRun`) on :meth:`ChaseEngine.run_round`:
      one batched discovery pass per round against the round's delta; with
      ``workers > 1`` that pass fans out over a
      :class:`repro.chase.parallel.ParallelMatcher` pool (byte-identical
      rounds — the merge replays the serial order);
    * ``"per_trigger"`` — the pre-batching loop: one discovery pass per
      applied trigger (kept as the ablation baseline).

    ``budget`` exhaustion raises :class:`repro.errors.ChaseInterrupted`
    with a resume checkpoint; ``resume`` continues one byte-identically
    (``database`` is then ignored).  Both require ``"semi_naive"``.
    Hitting ``max_rounds`` or ``max_atoms`` returns ``terminated=False``.
    The result is a :class:`ChaseResult` whose ``rounds`` counts started
    rounds and ``applications`` the atom-producing applications.

    ``backend`` selects the instance storage backend (see
    :func:`repro.backends.make_instance`); the fixpoint is byte-identical
    across backends.
    """
    if (budget is not None or resume is not None) and strategy != "semi_naive":
        raise ValueError(
            "budgets and resume require the semi_naive oblivious strategy"
        )
    if strategy not in ("semi_naive", "per_trigger"):
        raise ValueError(f"unknown oblivious strategy {strategy!r}")
    with ChaseRun.open(
        database,
        tgds,
        OBLIVIOUS,
        resume,
        workers=workers if strategy == "semi_naive" else 1,
        parallel_backend=parallel_backend,
        stats=stats,
        prune=prune,
        backend=backend,
    ) as run:
        if strategy == "per_trigger":
            return _per_trigger(run, max_atoms, max_rounds)
        reason = run.run(budget, max_rounds=max_rounds, max_atoms=max_atoms)
        if reason is not None and reason not in CEILINGS:
            run.interrupt(reason)
        return run.result(terminated=reason is None)


def _per_trigger(run: ChaseRun, max_atoms: int, max_rounds: int) -> ChaseResult:
    """The pre-batching loop: one discovery pass per applied trigger."""
    engine = run.engine
    # ``run.rounds`` counts started rounds here, as the round driver's
    # callers report them: this loop never leaves the engine mid-round.
    while engine.pending:
        if run.rounds >= max_rounds or len(engine.instance) > max_atoms:
            return run.result(terminated=False)
        run.rounds += 1
        for trigger in engine.take_pending():
            if engine.apply(trigger).added:
                run.applications += 1
            if len(engine.instance) > max_atoms:
                return run.result(terminated=False)
    return run.result(terminated=True)


def oblivious_chase_terminates(
    database: Instance,
    tgds: Sequence[TGD],
    max_atoms: int = 100_000,
    max_rounds: int = 10_000,
) -> bool:
    """Did the oblivious chase reach its fixpoint within the bounds?"""
    return oblivious_chase(database, tgds, max_atoms, max_rounds).terminated


def satisfies_all(instance: Instance, tgds: Sequence[TGD]) -> bool:
    """Model check ``I |= T`` (Section 2): every trigger is non-active."""
    from repro.chase.trigger import active_triggers_on

    return next(iter(active_triggers_on(tgds, instance)), None) is None
