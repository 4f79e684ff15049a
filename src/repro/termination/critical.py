"""The critical database ``D*`` and the oblivious-chase baseline.

Section 1.2: for the *oblivious* chase, the single database
``D* = {R(c, ..., c) : R ∈ sch(T)}`` is critical [Marnette, PODS'09]: the
oblivious chase terminates on every database iff it terminates on ``D*``.
All oblivious-chase decidability results [5, 6] lean on it.

Two facts this module makes executable:

* oblivious termination on ``D*`` is a *sound certificate* for
  ``CT_res_∀∀`` (every restricted derivation only produces atoms of the
  oblivious chase, one new atom per step, so a finite oblivious chase for
  every database bounds every restricted derivation);
* ``D*`` is **not** critical for the restricted chase — the intro example
  ``R(x,y) → ∃z R(x,z)`` restricted-terminates on every database although
  the oblivious chase on ``D*`` is infinite (exhibit X12).

``critical_database`` enumerates the schema in deterministic order, and
the certificate chase inherits the kernel's determinism (digest-named
nulls, ``(birth, canonical_key)`` batches), so certificates are
reproducible run to run.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.atoms import Atom
from repro.core.instance import Database
from repro.core.terms import Constant
from repro.chase.oblivious import oblivious_chase
from repro.termination.verdict import Status, Verdict
from repro.tgds.tgd import TGD, schema_of


def critical_database(tgds: Sequence[TGD], constant_name: str = "c") -> Database:
    """``D*``: one atom ``R(c, ..., c)`` per predicate of ``sch(T)``."""
    schema = schema_of(tgds)
    constant = Constant(constant_name)
    database = Database()
    for predicate in schema:
        database.add(Atom(predicate, [constant] * schema.arity(predicate)))
    return database


def oblivious_terminates_on_critical(
    tgds: Sequence[TGD],
    max_atoms: int = 50_000,
    max_rounds: int = 2_000,
) -> Optional[bool]:
    """Does the oblivious chase terminate on ``D*``?

    True/False when decided within the bounds; None when cut off while
    still growing (treated as "probably diverges" by callers who must stay
    sound: only a True answer is used as a certificate).
    """
    result = oblivious_chase(
        critical_database(tgds), tgds, max_atoms=max_atoms, max_rounds=max_rounds
    )
    if result.terminated:
        return True
    return None


def critical_oblivious_verdict(
    tgds: Sequence[TGD],
    max_atoms: int = 50_000,
    max_rounds: int = 2_000,
) -> Optional[Verdict]:
    """A termination certificate from the oblivious baseline, if available.

    Only the positive direction is sound for the restricted chase: a finite
    oblivious chase on ``D*`` bounds every restricted derivation of every
    database.  Divergence of the oblivious chase says nothing (the intro
    example), so None is returned in that case.
    """
    if oblivious_terminates_on_critical(tgds, max_atoms, max_rounds):
        return Verdict(
            Status.ALL_TERMINATING,
            method="critical-oblivious",
            certificate={"critical_database": critical_database(tgds)},
            detail=(
                "the oblivious chase terminates on the critical database D*, "
                "which bounds every restricted chase derivation"
            ),
        )
    return None
