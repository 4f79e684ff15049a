"""Homomorphisms between sets of atoms (Section 2).

A homomorphism from a set of atoms ``A`` to a set of atoms ``B`` is a
substitution ``h`` from the terms of ``A`` to the terms of ``B`` such that

* ``h(c) = c`` for every constant ``c`` (condition (i)), and
* ``R(t1,...,tn) ∈ A`` implies ``R(h(t1),...,h(tn)) ∈ B`` (condition (ii)).

Variables and nulls may be mapped freely.  Several constructions in the
paper additionally *freeze* some non-constant terms (the stop relation
``≺s`` fixes the frontier terms; Definition 3.1's active-trigger test fixes
``h|fr(σ)``); the ``frozen`` parameter supports that.

The search is a backtracking join over the target's indexes; it is the
single matching engine used by triggers, the stop relation, conjunctive
queries, and isomorphism tests.  For each pattern atom the candidate set is
the smallest term-position bucket among its bound positions (constants,
frozen terms, and already-bound variables) — the per-predicate bucket is
only the fallback for fully unbound patterns.  Atom ordering is *dynamic*:
at every search depth the remaining pattern atom with the fewest candidates
under the current binding is matched next, so each new binding immediately
re-scores (and prunes) the rest of the body.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.terms import Constant, Term


def _as_index(target) -> Instance:
    """Normalize ``target`` into an :class:`Instance` for indexed lookup."""
    if isinstance(target, Instance):
        return target
    return Instance(target)


def match_atom(
    pattern: Atom,
    target: Atom,
    partial: Optional[Dict[Term, Term]] = None,
    frozen: frozenset = frozenset(),
) -> Optional[Dict[Term, Term]]:
    """Try to extend ``partial`` so that the extension maps ``pattern`` onto ``target``.

    Returns the extended binding dict, or None when the atoms cannot be
    unified under the homomorphism rules (constants and frozen terms are
    rigid; other terms bind consistently).  ``partial`` is not mutated.
    """
    if pattern.predicate != target.predicate or pattern.arity != target.arity:
        return None
    binding: Dict[Term, Term] = dict(partial) if partial else {}
    for source_term, target_term in zip(pattern.terms, target.terms):
        if isinstance(source_term, Constant) or source_term in frozen:
            if source_term != target_term:
                return None
            continue
        bound = binding.get(source_term)
        if bound is None:
            binding[source_term] = target_term
        elif bound != target_term:
            return None
    return binding


def candidate_atoms(
    index: Instance,
    pattern: Atom,
    binding: Optional[Dict[Term, Term]] = None,
    frozen: frozenset = frozenset(),
):
    """The smallest candidate bucket for ``pattern`` under ``binding``.

    Intersecting all bound-position buckets would be exact; picking the
    smallest one and letting :func:`match_atom` verify the rest is cheaper
    and just as correct.  Falls back to the per-predicate bucket when no
    position is bound.
    """
    best = None
    for i, term in enumerate(pattern.terms, start=1):
        if isinstance(term, Constant) or term in frozen:
            value = term
        else:
            value = binding.get(term) if binding else None
            if value is None:
                continue
        bucket = index.with_term_at(pattern.predicate, i, value)
        if best is None or len(bucket) < len(best):
            best = bucket
            if not best:
                return best
    if best is not None:
        return best
    return index.with_predicate(pattern.predicate)


def homomorphisms(
    source: Iterable[Atom],
    target,
    partial: Optional[Dict[Term, Term]] = None,
    frozen: Iterable[Term] = (),
    order: str = "fail-first",
) -> Iterator[Dict[Term, Term]]:
    """Generate every homomorphism from ``source`` into ``target``.

    ``partial`` is a pre-existing binding that every generated homomorphism
    must extend; ``frozen`` lists non-constant terms that must map to
    themselves.  Yields plain dicts (term -> term); each yielded dict is an
    independent copy.

    ``order`` selects the atom ordering: ``"fail-first"`` (default — the
    dynamic most-constrained-atom order, re-scored as bindings accumulate),
    ``"given"`` (take the source in its written order, with indexed
    candidate lookup), or ``"scan"`` (written order over plain predicate
    buckets; the pre-index ablation baseline).
    """
    source_atoms = list(source)
    index = _as_index(target)
    frozen_set = frozenset(frozen)
    start: Dict[Term, Term] = dict(partial) if partial else {}

    if order == "fail-first":

        def search(remaining: List[Atom], binding: Dict[Term, Term]) -> Iterator[Dict[Term, Term]]:
            if not remaining:
                yield dict(binding)
                return
            # Dynamic most-constrained-atom choice: the remaining pattern
            # with the smallest candidate bucket under the current binding.
            best_j = 0
            best_candidates = None
            for j, pattern_atom in enumerate(remaining):
                candidates = candidate_atoms(index, pattern_atom, binding, frozen_set)
                if best_candidates is None or len(candidates) < len(best_candidates):
                    best_j = j
                    best_candidates = candidates
                    if not candidates:
                        return
            pattern = remaining[best_j]
            rest = remaining[:best_j] + remaining[best_j + 1:]
            for candidate in best_candidates:
                extended = match_atom(pattern, candidate, binding, frozen_set)
                if extended is not None:
                    yield from search(rest, extended)

        yield from search(source_atoms, start)
        return

    if order == "given":
        pick = lambda pattern, binding: candidate_atoms(index, pattern, binding, frozen_set)
    elif order == "scan":
        pick = lambda pattern, binding: index.with_predicate(pattern.predicate)
    else:
        raise ValueError(f"unknown atom order {order!r}")

    def sequential(i: int, binding: Dict[Term, Term]) -> Iterator[Dict[Term, Term]]:
        if i == len(source_atoms):
            yield dict(binding)
            return
        pattern = source_atoms[i]
        for candidate in pick(pattern, binding):
            extended = match_atom(pattern, candidate, binding, frozen_set)
            if extended is not None:
                yield from sequential(i + 1, extended)

    yield from sequential(0, start)


def find_homomorphism(
    source: Iterable[Atom],
    target,
    partial: Optional[Dict[Term, Term]] = None,
    frozen: Iterable[Term] = (),
) -> Optional[Dict[Term, Term]]:
    """The first homomorphism found, or None."""
    for h in homomorphisms(source, target, partial, frozen):
        return h
    return None


def has_homomorphism(
    source: Iterable[Atom],
    target,
    partial: Optional[Dict[Term, Term]] = None,
    frozen: Iterable[Term] = (),
) -> bool:
    """True iff some homomorphism from ``source`` into ``target`` exists."""
    return find_homomorphism(source, target, partial, frozen) is not None


def is_homomorphism(h: Dict[Term, Term], source: Iterable[Atom], target) -> bool:
    """Check conditions (i) and (ii) of the definition for a given map."""
    if any(isinstance(s, Constant) and s != t for s, t in h.items()):
        return False
    index = _as_index(target)
    return all(atom.apply(h) in index for atom in source)


def is_isomorphism(h: Dict[Term, Term], source: Iterable[Atom], target) -> bool:
    """True iff ``h`` is 1-1 and its inverse is a homomorphism back (Appendix A)."""
    source_atoms = list(source)
    index = _as_index(target)
    if not is_homomorphism(h, source_atoms, index):
        return False
    if len(set(h.values())) != len(h):
        return False
    inverse = {v: k for k, v in h.items()}
    image_atoms = [a.apply(h) for a in source_atoms]
    if {a for a in image_atoms} != index.atoms():
        return False
    return is_homomorphism(inverse, index, Instance(source_atoms))


def are_isomorphic(left: Iterable[Atom], right: Iterable[Atom]) -> bool:
    """True iff the two atom sets are isomorphic (bijective renaming of

    nulls/variables that preserves and reflects atoms, identity on
    constants)."""
    left_atoms = list(left)
    right_atoms = list(right)
    left_instance = Instance(left_atoms)
    right_instance = Instance(right_atoms)
    if len(left_instance) != len(right_instance):
        return False
    for h in homomorphisms(left_instance.atoms(), right_instance):
        full = dict(h)
        for term in left_instance.domain():
            full.setdefault(term, term)
        if is_isomorphism(full, left_instance, right_instance):
            return True
    return False

