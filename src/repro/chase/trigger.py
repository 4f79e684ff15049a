"""Triggers and trigger application (Definition 3.1).

A *trigger* for a set ``T`` on an instance ``I`` is a pair ``(σ, h)`` with
``σ ∈ T`` and ``h`` a homomorphism from ``body(σ)`` to ``I``.  It is
*active* if no extension ``h' ⊇ h|fr(σ)`` maps ``head(σ)`` into ``I``.
``result(σ, h)`` instantiates the head, inventing one fresh null per
existential variable, with the null's identity *uniquely determined by the
trigger and the variable* — this determinism is what makes the oblivious
chase order-independent and lets the real oblivious chase refer to atoms
unambiguously.

Null names are derived from a cryptographic digest of the trigger's
canonical serialization, so two applications of the same trigger (in any
order, in any run) invent the *same* nulls.  The TGD part of the digest
payload is cached on the TGD itself (:meth:`repro.tgds.tgd.TGD.digest_prefix`),
so repeated ``result()`` paths never re-serialize the rule.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.core.atoms import Atom
from repro.core.homomorphism import candidate_atoms, homomorphisms, match_atom
from repro.core.instance import Instance
from repro.core.substitution import Substitution
from repro.core.terms import Null, Term, Variable
from repro.tgds.tgd import TGD


def _trigger_digest(tgd: TGD, body_binding: Sequence[Tuple[Variable, Term]]) -> str:
    """A short stable digest identifying ``(σ, h|body-vars)``."""
    payload = tgd.digest_prefix()
    payload += "\x1e".join(f"{v.name}\x1f{t!r}" for v, t in body_binding)
    return hashlib.blake2b(payload.encode(), digest_size=9).hexdigest()


class Trigger:
    """A trigger ``(σ, h)``; ``h`` is stored restricted to the body variables."""

    __slots__ = ("tgd", "h", "_result", "_key", "_frontier_binding", "_canonical")

    def __init__(self, tgd: TGD, h):
        order = tgd.body_order
        try:
            values = [h[variable] for variable in order]
        except KeyError:
            missing = [variable for variable in order if variable not in h]
            raise ValueError(f"homomorphism misses body variables {missing}") from None
        mapping = dict(zip(order, values))
        object.__setattr__(self, "tgd", tgd)
        object.__setattr__(self, "h", Substitution(mapping))
        object.__setattr__(self, "_result", None)
        # Body variables in name order are the substitution's canonical
        # order (``Substitution.canonical_items``) — no sort needed.
        object.__setattr__(self, "_key", (tgd, tuple(zip(order, values))))
        object.__setattr__(
            self,
            "_frontier_binding",
            {v: mapping[v] for v in tgd.frontier_order},
        )
        object.__setattr__(self, "_canonical", None)

    def __setattr__(self, name, value):
        raise AttributeError("Trigger is immutable")

    def __reduce__(self):
        # The immutable __setattr__ defeats default slot unpickling; rebuild
        # through __init__ (caches re-derive lazily).  Consumer: the
        # parallel_map tier — suspect-scan workers return PumpWitness
        # certificates whose Derivation.steps are triggers.  (Round-level
        # discovery workers do NOT use this: they ship compact
        # (tgd_index, values, birth) rows instead — see chase/parallel.py.)
        return (type(self), (self.tgd, dict(self.h.items())))

    @property
    def key(self) -> tuple:
        """Hashable identity of the trigger: ``(σ, h)`` up to representation."""
        return self._key

    @property
    def canonical_key(self) -> str:
        """A deterministic total-order key for this trigger, cached.

        The string equals ``repr(self.key)`` (the ordering the engines have
        always used), but is computed once per trigger instead of once per
        comparison site, so canonical enqueue ordering stays cheap.
        """
        cached = self._canonical
        if cached is None:
            cached = repr(self._key)
            object.__setattr__(self, "_canonical", cached)
        return cached

    def frontier_binding(self) -> Dict[Variable, Term]:
        """``h|fr(σ)`` as a plain dict, cached at construction.

        Treat as read-only: ``is_active`` and the head-witness cache consult
        it on every check.
        """
        return self._frontier_binding

    def frontier_tuple(self) -> Tuple[Term, ...]:
        """The frontier image in ``tgd.frontier_order`` — the witness-cache key."""
        binding = self._frontier_binding
        return tuple(binding[v] for v in self.tgd.frontier_order)

    def body_image(self) -> List[Atom]:
        """``h(body(σ))``: the atoms of the instance this trigger matched."""
        return [atom.apply(self.h) for atom in self.tgd.body]

    def result(self) -> Atom:
        """``result(σ, h)`` (Definition 3.1), cached.

        Frontier variables take their ``h``-image; each existential variable
        ``z`` takes the null ``c_z^{σ,h}`` named from the trigger digest.
        """
        cached = self._result
        if cached is not None:
            return cached
        binding = sorted(self.h.items(), key=lambda kv: kv[0].name)
        digest = _trigger_digest(self.tgd, binding)
        mapping: Dict[Term, Term] = {}
        for var in self.tgd.head.variables():
            if var in self.tgd.frontier:
                mapping[var] = self.h[var]
            else:
                mapping[var] = Null(f"{digest}.{var.name}")
        atom = self.tgd.head.apply(mapping)
        object.__setattr__(self, "_result", atom)
        return atom

    def result_frontier_terms(self) -> Set[Term]:
        """``fr(result(σ,h))``: terms at the head's frontier positions."""
        result = self.result()
        return {result[i] for i in self.tgd.frontier_head_positions()}

    def __eq__(self, other) -> bool:
        return isinstance(other, Trigger) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Trigger({self.tgd.name}, {self.h!r})"


def satisfies_head(instance: Instance, tgd: TGD, frontier_binding: Dict[Term, Term]) -> bool:
    """Is there ``h' ⊇ h|fr(σ)`` with ``h'(head(σ)) ∈ I``?

    ``frontier_binding`` maps the frontier variables to terms; existential
    variables may match anything, consistently across repeated occurrences.
    Candidates come from the instance's term-position index (bound frontier
    positions), not a full predicate-bucket scan.
    """
    head = tgd.head
    for candidate in candidate_atoms(instance, head, frontier_binding):
        if match_atom(head, candidate, frontier_binding) is not None:
            return True
    return False


def is_active(trigger: Trigger, instance: Instance) -> bool:
    """Definition 3.1: the trigger is active iff its head is not yet witnessed."""
    return not satisfies_head(instance, trigger.tgd, trigger.frontier_binding())


def apply_trigger(instance: Instance, trigger: Trigger) -> Atom:
    """``I⟨σ,h⟩J``: add ``result(σ,h)`` to the instance; returns the atom."""
    atom = trigger.result()
    instance.add(atom)
    return atom


def triggers_on(tgds: Iterable[TGD], instance: Instance) -> Iterator[Trigger]:
    """All triggers for ``T`` on ``I`` (active or not), deduplicated."""
    seen: Set[tuple] = set()
    for tgd in tgds:
        for h in homomorphisms(tgd.body, instance):
            trigger = Trigger(tgd, h)
            if trigger.key not in seen:
                seen.add(trigger.key)
                yield trigger


def active_triggers_on(tgds: Iterable[TGD], instance: Instance) -> Iterator[Trigger]:
    """All *active* triggers for ``T`` on ``I``."""
    for trigger in triggers_on(tgds, instance):
        if is_active(trigger, instance):
            yield trigger


def new_triggers(
    tgds: Iterable[TGD], instance: Instance, new_atoms: Iterable[Atom]
) -> Iterator[Trigger]:
    """Triggers whose image uses at least one atom of ``new_atoms``.

    The incremental step of the chase engines: after adding atoms, only
    triggers touching them can be new.  May yield a trigger reachable via
    several pivots only once.
    """
    new_set = set(new_atoms)
    if not new_set:
        return
    seen: Set[tuple] = set()
    for tgd in tgds:
        for pivot_index, pivot in enumerate(tgd.body):
            for pivot_atom in new_set:
                base = match_atom(pivot, pivot_atom)
                if base is None:
                    continue
                rest = [a for i, a in enumerate(tgd.body) if i != pivot_index]
                for h in homomorphisms(rest, instance, partial=base):
                    trigger = Trigger(tgd, h)
                    if trigger.key not in seen:
                        seen.add(trigger.key)
                        yield trigger
