"""Compiled join plans and compact trigger rows for semi-naive discovery.

Semi-naive discovery (:func:`seminaive_triggers`) binds one body atom of a
TGD — the *pivot* — to an atom of the round's delta and joins the rest of
the body against the full instance.  Every ``(tgd, pivot)`` pair is
compiled once, per :class:`JoinPlans` object, into a :class:`PivotPlan`:

* **Slots.**  The body variables in name order (``TGD.body_order``) get
  positional slots; a binding is one flat list of terms, and a finished
  match is ``tuple(values)`` — the *row* form of the body homomorphism.
* **Pivot ops.**  Bind the first occurrence of every pivot variable from
  the delta atom's terms; check repeated occurrences in place.
* **Join steps.**  The other body atoms in a static most-bound-first
  order.  A step whose variables are all bound is a single
  ``Atom(...) in instance`` test; any other step probes the smallest
  ``with_term_at`` bucket among its bound positions (``with_predicate``
  when none is bound), checks the remaining bound positions and repeated
  variables in place, and binds the new variables into their slots.

Only the instance's public lookups are used, so every backend (memory,
SQLite) runs the same plans.  The join order changes how matches are
enumerated, never *which* matches exist, so the row set equals the set of
body homomorphisms the generic :func:`repro.core.homomorphism.homomorphisms`
search finds (``tests/chase/test_plans.py`` checks this on the generator
corpus).

Discovery emits compact rows ``(tgd_index, values) -> birth`` with the
*maximum* birth (delta position of the pivot atom) over every pivot that
reaches the row.  ``tgd_index`` is the *first* index of an equal rule:
:attr:`repro.chase.trigger.Trigger.key` compares TGDs ignoring their names
while null naming uses the name, so equal rules under different names must
collapse onto the first one, as the step engine's first-wins dedup does.
The serial pass and the process-pool workers of
:mod:`repro.chase.parallel` emit the same rows through the same
:meth:`PivotPlan.emit`; :func:`materialize` then builds one
:class:`~repro.chase.trigger.Trigger` per unique row and sorts by
``(birth, canonical_key)``.  Because rows only ever join through that
commutative max-merge and the final sort is total, the trigger list is
independent of how the pivot buckets were split across workers.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.chase.trigger import Trigger
from repro.tgds.tgd import TGD

#: Compact trigger rows keyed for the max-birth merge:
#: ``(tgd_index, values) -> birth``.
Rows = Dict[Tuple[int, tuple], int]


def _atom_ops(atom: Atom, slots: Dict, bound: set) -> Tuple[tuple, tuple, tuple]:
    """Split ``atom``'s positions against the already-bound variables.

    Returns ``(probes, binds, checks)``: ``probes`` are ``(position, slot)``
    pairs of bound variables (positions 1-based, as ``with_term_at`` takes
    them), ``binds`` are ``(index, slot)`` pairs binding a variable's first
    occurrence (0-based term index), and ``checks`` are ``(index,
    earlier_index)`` pairs for repeated occurrences of a newly bound
    variable.  Marks the newly bound variables in ``bound``.
    """
    probes, binds, checks = [], [], []
    first: Dict = {}
    for index, variable in enumerate(atom.terms):
        if variable in bound:
            probes.append((index + 1, slots[variable]))
        elif variable in first:
            checks.append((index, first[variable]))
        else:
            first[variable] = index
            binds.append((index, slots[variable]))
    bound.update(first)
    return tuple(probes), tuple(binds), tuple(checks)


class _Step:
    """One join step: a membership test or a smallest-bucket probe."""

    __slots__ = ("predicate", "arity", "member", "probes", "rechecks", "binds", "checks")

    def __init__(self, atom: Atom, slots: Dict, bound: set):
        self.predicate = atom.predicate
        self.arity = atom.arity
        #: Slot per position when every variable is already bound (the
        #: step is then a single ``Atom(...) in instance`` test), else None.
        self.member: Optional[tuple] = (
            tuple(slots[v] for v in atom.terms)
            if all(v in bound for v in atom.terms)
            else None
        )
        self.probes, self.binds, self.checks = _atom_ops(atom, slots, bound)
        #: Per probed position, the other bound positions as ``(index,
        #: slot)`` pairs — what a candidate from that bucket must still match.
        self.rechecks = tuple(
            tuple((p - 1, s) for j, (p, s) in enumerate(self.probes) if j != i)
            for i in range(len(self.probes))
        )


class PivotPlan:
    """The compiled join of one ``(tgd, pivot)`` pair."""

    __slots__ = ("row_index", "predicate", "arity", "width", "binds", "checks", "steps")

    def __init__(self, row_index: int, tgd: TGD, pivot_index: int, order):
        slots = {variable: slot for slot, variable in enumerate(order)}
        pivot = tgd.body[pivot_index]
        #: The first index of a rule equal to this one (rows carry it).
        self.row_index = row_index
        self.predicate = pivot.predicate
        self.arity = pivot.arity
        self.width = len(order)
        bound: set = set()
        _, self.binds, self.checks = _atom_ops(pivot, slots, bound)
        rest = [atom for i, atom in enumerate(tgd.body) if i != pivot_index]
        steps: List[_Step] = []
        while rest:
            # Most-bound-first: fully bound atoms (membership tests) first,
            # then the atom with the most bound positions; ties keep the
            # written order.
            best = max(
                range(len(rest)),
                key=lambda i: (
                    all(v in bound for v in rest[i].terms),
                    sum(v in bound for v in rest[i].terms),
                    -i,
                ),
            )
            steps.append(_Step(rest.pop(best), slots, bound))
        self.steps = tuple(steps)

    def emit(self, atoms, delta, instance: Instance, rows: Rows) -> None:
        """Join from each delta atom in ``atoms``; max-merge the rows into ``rows``.

        ``atoms`` is the pivot predicate's delta bucket or a slice of it.
        """
        values: list = [None] * self.width
        arity, binds, checks, steps = self.arity, self.binds, self.checks, self.steps
        row_index = self.row_index
        position = delta.position
        for atom in atoms:
            terms = atom.terms
            if len(terms) != arity:
                continue
            for index, earlier in checks:
                if terms[index] != terms[earlier]:
                    break
            else:
                for index, slot in binds:
                    values[slot] = terms[index]
                if steps:
                    found: list = []
                    _extend(steps, 0, values, instance, found)
                    if not found:
                        continue
                else:
                    found = [tuple(values)]
                birth = position(atom)
                for found_values in found:
                    key = (row_index, found_values)
                    previous = rows.get(key)
                    if previous is None or birth > previous:
                        rows[key] = birth


def _extend(steps, depth: int, values: list, instance, out: list) -> None:
    """Append every completion of ``values`` over ``steps[depth:]`` to ``out``."""
    if depth == len(steps):
        out.append(tuple(values))
        return
    step = steps[depth]
    member = step.member
    if member is not None:
        if Atom(step.predicate, tuple([values[s] for s in member])) in instance:
            _extend(steps, depth + 1, values, instance, out)
        return
    predicate = step.predicate
    best = None
    chosen = -1
    for probe, (position, slot) in enumerate(step.probes):
        bucket = instance.with_term_at(predicate, position, values[slot])
        if best is None or len(bucket) < len(best):
            best, chosen = bucket, probe
            if not best:
                return
    if best is None:
        best = instance.with_predicate(predicate)
        checked = ()
    else:
        checked = step.rechecks[chosen]
    arity, binds, checks = step.arity, step.binds, step.checks
    for candidate in best:
        terms = candidate.terms
        if len(terms) != arity:
            continue
        for index, slot in checked:
            if terms[index] != values[slot]:
                break
        else:
            for index, earlier in checks:
                if terms[index] != terms[earlier]:
                    break
            else:
                for index, slot in binds:
                    values[slot] = terms[index]
                _extend(steps, depth + 1, values, instance, out)


class JoinPlans:
    """The compiled ``(tgd, pivot)`` plans of one rule list.

    Built per engine, matcher or discovery call — plans hold no instance
    state, so one object serves every round of a run, and nothing outlives
    its owner.
    """

    __slots__ = ("tgds", "orders", "by_tgd")

    def __init__(self, tgds: Iterable[TGD]):
        self.tgds: Tuple[TGD, ...] = tuple(tgds)
        first: Dict[TGD, int] = {}
        #: Per rule, the body variables in slot order (the row wire order).
        self.orders = tuple(tgd.body_order for tgd in self.tgds)
        #: ``by_tgd[tgd_index][pivot_index]`` is that pair's plan.
        self.by_tgd: Tuple[Tuple[PivotPlan, ...], ...] = tuple(
            tuple(
                PivotPlan(first.setdefault(tgd, index), tgd, pivot, self.orders[index])
                for pivot in range(len(tgd.body))
            )
            for index, tgd in enumerate(self.tgds)
        )

    def plans(self) -> Iterable[PivotPlan]:
        """Every plan, rule by rule, pivot by pivot."""
        for plans in self.by_tgd:
            yield from plans


def merge_rows(results: Iterable[Iterable[tuple]]) -> Rows:
    """Max-merge ``(tgd_index, values, birth)`` row lists into one mapping."""
    merged: Rows = {}
    for task_rows in results:
        for tgd_index, values, birth in task_rows:
            key = (tgd_index, values)
            previous = merged.get(key)
            if previous is None or birth > previous:
                merged[key] = birth
    return merged


def materialize(plans: JoinPlans, rows: Rows) -> List[Trigger]:
    """One trigger per unique row, in ``(birth, canonical_key)`` order."""
    tgds, orders = plans.tgds, plans.orders
    triggers = [
        (birth, Trigger(tgds[tgd_index], dict(zip(orders[tgd_index], values))))
        for (tgd_index, values), birth in rows.items()
    ]
    triggers.sort(key=lambda row: (row[0], row[1].canonical_key))
    return [trigger for _, trigger in triggers]


def seminaive_triggers(
    tgds: Sequence[TGD], instance: Instance, delta, plans: Optional[JoinPlans] = None
) -> List[Trigger]:
    """Set-at-a-time trigger discovery against a round delta.

    ``delta`` is a :class:`repro.core.instance.Delta` (the atoms one round
    added, already committed to ``instance``).  Each TGD body is rewritten
    semi-naively — one body atom (the pivot) is bound to a delta atom
    through the delta's per-predicate snapshot, the rest is joined against
    the full instance by the pair's compiled :class:`PivotPlan` — so a
    round pays one pass over ``tgds × pivots`` with empty predicate buckets
    skipped wholesale, instead of one full pass per added atom.

    The returned list is ordered by ``(birth, canonical_key)`` where
    ``birth`` is the delta position of the *latest* body-image atom drawn
    from the delta.  That is exactly the order in which the step-at-a-time
    engine enqueues the same triggers (a trigger surfaces at the
    application that completes its body image, and each per-application
    batch is canonically sorted), which is what keeps round-based runs
    byte-identical to step-at-a-time runs.

    ``plans`` are the compiled plans of ``tgds`` (built per call when
    omitted); long-lived callers build them once and pass them every round.
    :class:`repro.chase.parallel.ParallelMatcher` computes the same list by
    fanning the ``(tgd, pivot)`` × delta-chunk grid over a worker pool.
    """
    if not delta:
        return []
    if plans is None:
        plans = JoinPlans(tgds)
    elif plans.tgds is not tgds and [t.digest_prefix() for t in plans.tgds] != [
        t.digest_prefix() for t in tgds
    ]:
        raise ValueError("join plans were built for a different TGD set")
    rows: Rows = {}
    for plan in plans.plans():
        bucket = delta.with_predicate(plan.predicate)
        if bucket:
            plan.emit(bucket, delta, instance, rows)
    return materialize(plans, rows)
