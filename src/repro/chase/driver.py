"""The round driver: one loop for the restricted, oblivious and session chases.

The restricted and oblivious chases differ only in whether a trigger must
be active before it fires (Definition 3.1), which the engine decides (head
witnesses on or off).  So :meth:`ChaseRun.run` drives both, and the
service's sessions too: it calls :meth:`ChaseEngine.run_round` until a
fixpoint or the first cut and returns the cut reason.  What a cut means is
the caller's *cut policy*: ``seminaive_chase`` and ``oblivious_chase``
return a ``terminated=False`` result for a ceiling (:data:`CEILINGS`) and
raise :class:`repro.errors.ChaseInterrupted` for a budget cut
(:meth:`ChaseRun.interrupt`); a :class:`repro.service.session.ChaseSession`
suspends in place.  :meth:`ChaseRun.open` does every entry point's setup
and teardown.

A run counts completed rounds; a round a cut split is started but not
completed, so ``started = completed + engine.mid_round()``.  The restricted
chase reports completed rounds, the oblivious chase and sessions started
ones — in results, interrupts and checkpoints alike.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, NoReturn, Optional, Sequence

from repro.chase.checkpoint import Budget, ChaseCheckpoint
from repro.chase.derivation import Derivation
from repro.chase.engine import ChaseEngine, build_assessor
from repro.core.instance import Instance
from repro.errors import ChaseInterrupted
from repro.obs import clock, trace
from repro.tgds.tgd import TGD

#: The checkpoint kind of oblivious runs (and of sessions): witness-free
#: engines, no derivation log, started-round accounting.
OBLIVIOUS = "oblivious"

#: Cut reasons that are the caller's own limits rather than a budget's:
#: the chase entry points report them as ``terminated=False`` results.
CEILINGS = frozenset({"max_rounds", "max_atoms", "max_applications"})


class ChaseResult:
    """Outcome of a restricted or oblivious chase run."""

    def __init__(
        self,
        instance: Instance,
        derivation: Optional[Derivation],
        terminated: bool,
        steps: int,
        rounds: Optional[int] = None,
        stats=None,
    ):
        #: The final (or cut-off) instance.
        self.instance = instance
        #: The recorded derivation (None for the oblivious chase).
        self.derivation = derivation
        #: True iff a fixpoint was reached (no active trigger remains).
        self.terminated = terminated
        #: Number of atom-producing trigger applications performed.
        self.steps = steps
        #: Rounds of a round-based run: completed rounds for the restricted
        #: chase (None for step-at-a-time strategies and for a semi-naive
        #: run cut by ``max_steps``), started rounds for the oblivious one.
        self.rounds = rounds
        #: The :class:`repro.obs.stats.ChaseStats` sink the caller passed
        #: in, echoed back filled (None when the run carried no telemetry).
        self.stats = stats

    @property
    def applications(self) -> int:
        """``steps``: an active trigger always adds an atom, and the
        oblivious chase counts only the applications that add one."""
        return self.steps

    def __repr__(self) -> str:
        state = "terminated" if self.terminated else "cut off"
        return f"ChaseResult({state} after {self.steps} steps, {len(self.instance)} atoms)"


def open_engine(
    database,
    tgds: Sequence[TGD],
    kind: str,
    resume: Optional[ChaseCheckpoint] = None,
    workers: int = 1,
    parallel_backend: str = "process",
    stats=None,
    assessor=None,
    backend=None,
) -> ChaseEngine:
    """Construct the engine of a ``kind`` run, or restore it from ``resume``.

    With ``workers > 1`` the engine's discovery runs on a matcher pool
    (:func:`repro.chase.chaos.build_matcher`); whoever ends the run closes
    ``engine.matcher``.  Oblivious engines run witness-free.
    """
    if resume is not None:
        resume.require_kind(kind)
    matcher = None
    if workers > 1:
        from repro.chase.chaos import build_matcher

        matcher = build_matcher(tgds, workers=workers, backend=parallel_backend)
    try:
        if resume is not None:
            return resume.restore_engine(
                tgds, matcher=matcher, stats=stats, assessor=assessor, backend=backend
            )
        return ChaseEngine(
            database, tgds, track_witnesses=kind != OBLIVIOUS, matcher=matcher,
            stats=stats, assessor=assessor, backend=backend,
        )
    except BaseException:
        if matcher is not None:
            matcher.close()
        raise


class ChaseRun:
    """One chase run on an engine: its counters and the round loop.

    Restricted runs carry a derivation log and report ``steps``; oblivious
    runs (``derivation`` None) report ``applications``, the atoms added.
    ``rounds`` counts completed rounds.
    """

    def __init__(
        self, engine: ChaseEngine, kind: str, resume: Optional[ChaseCheckpoint] = None
    ):
        self.engine = engine
        self.kind = kind
        self.derivation: Optional[Derivation] = None
        self.steps = 0
        self.applications = 0
        self.rounds = 0
        if kind == OBLIVIOUS:
            if resume is not None:
                # Oblivious checkpoints record started rounds.
                self.applications = resume.applications
                self.rounds = resume.rounds - engine.mid_round()
        elif resume is not None:
            self.derivation = resume.restore_derivation()
            self.steps = resume.steps
            self.rounds = resume.rounds
        else:
            self.derivation = Derivation(engine.instance)

    @classmethod
    @contextmanager
    def open(
        cls,
        database,
        tgds: Sequence[TGD],
        kind: str,
        resume: Optional[ChaseCheckpoint] = None,
        workers: int = 1,
        parallel_backend: str = "process",
        stats=None,
        prune: bool = True,
        backend=None,
    ) -> Iterator["ChaseRun"]:
        """Set up a run, yield it, and tear it down however it ends: fold
        the wall time, engine and matcher counters into ``stats`` and close
        the matcher pool."""
        if stats is not None and not stats.kind:
            stats.kind = kind
        engine = open_engine(
            database, tgds, kind, resume, workers=workers, parallel_backend=parallel_backend,
            stats=stats, assessor=build_assessor(tgds) if prune else None, backend=backend,
        )
        matcher = engine.matcher
        run_start = clock.perf_counter() if stats is not None else 0.0
        try:
            run = cls(engine, kind, resume)
            with trace.span("chase.run", kind=kind):
                yield run
        finally:
            if stats is not None:
                stats.wall_seconds += clock.perf_counter() - run_start
                stats.absorb_engine(engine)
                if matcher is not None:
                    stats.absorb_matcher(matcher)
            if matcher is not None:
                matcher.close()

    @property
    def started_rounds(self) -> int:
        """Rounds begun, counting one a cut left suspended."""
        return self.rounds + self.engine.mid_round()

    # -- the loop -----------------------------------------------------------

    def run(
        self,
        budget: Optional[Budget] = None,
        max_steps: Optional[int] = None,
        max_rounds: Optional[int] = None,
        max_atoms: Optional[int] = None,
    ) -> Optional[str]:
        """Run rounds to the fixpoint or the first cut; return the cut reason.

        ``max_rounds`` stops a new round from starting once that many have
        completed — a round a cut suspended still finishes, as it would
        have without the cut — and ``max_atoms`` bounds the instance size
        (cut reasons ``"max_rounds"`` / ``"max_atoms"``); ``max_steps``
        bounds the run's steps (``"max_applications"``); a ``budget`` cut
        returns its ``"budget:*"`` reason.  None means a fixpoint.
        """
        engine = self.engine
        if budget is not None:
            budget.start()
        while engine.pending or engine.mid_round():
            if max_rounds is not None and self.rounds >= max_rounds:
                return "max_rounds"
            if max_atoms is not None and len(engine.instance) > max_atoms:
                return "max_atoms"
            if budget is not None:
                if budget.rounds_exhausted():
                    return "budget:rounds"
                reason = budget.exceeded(len(engine.instance))
                if reason is not None:
                    return reason
            result = engine.run_round(
                max_applications=None if max_steps is None else max_steps - self.steps,
                max_atoms=max_atoms,
                budget=budget,
            )
            if self.derivation is not None:
                self.derivation.steps.extend(result.applied)
            self.steps += len(result.applied)
            self.applications += len(result.delta)
            if result.cut:
                return result.reason
            self.rounds += 1
            if budget is not None:
                budget.charge_round()
        return None

    # -- reporting ------------------------------------------------------------

    def counters(self) -> dict:
        """The counters this run reports, in its kind's round convention."""
        if self.derivation is None:
            return {"rounds": self.started_rounds, "applications": self.applications}
        return {"steps": self.steps, "rounds": self.rounds}

    def result(self, terminated: bool) -> ChaseResult:
        """The run as a :class:`ChaseResult` (a fixpoint or a ceiling cut)."""
        if self.derivation is None:
            steps, rounds = self.applications, self.started_rounds
        else:
            steps, rounds = self.steps, self.rounds if terminated else None
        return ChaseResult(
            self.engine.instance,
            self.derivation,
            terminated,
            steps,
            rounds=rounds,
            stats=self.engine.stats,
        )

    def checkpoint(self) -> ChaseCheckpoint:
        """Snapshot the engine with this run's counters."""
        return ChaseCheckpoint.capture(
            self.engine, self.kind, derivation=self.derivation, **self.counters()
        )

    def interrupt(self, reason: str, partial: Optional[dict] = None) -> NoReturn:
        """Raise :class:`ChaseInterrupted` with a checkpoint for a budget cut.

        ``partial`` defaults to :meth:`counters`.
        """
        if self.engine.stats is not None:
            self.engine.stats.record_cut(reason)
        raise ChaseInterrupted(
            reason,
            checkpoint=self.checkpoint(),
            instance=self.engine.instance,
            partial=self.counters() if partial is None else partial,
        )
