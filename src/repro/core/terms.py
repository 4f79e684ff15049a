"""Terms: constants, labeled nulls, and variables.

The paper (Section 2) works with three disjoint countably infinite sets:
``C`` (constants), ``N`` (labeled nulls), and ``V`` (variables).  Constants
and nulls populate instances; variables only appear in dependencies and
queries.

Terms are immutable, hashable, and totally ordered (constants < nulls <
variables, then by name) so that canonical serializations of atoms,
substitutions, and triggers are deterministic.
"""

from __future__ import annotations

import itertools
from typing import Union


class Term:
    """Base class for all terms.

    Subclasses are value objects: two terms are equal iff they have the same
    kind and the same name.
    """

    __slots__ = ("name", "_hash")

    #: Rank used for the total order between term kinds.
    _KIND_RANK = -1

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise ValueError(f"term name must be a non-empty string, got {name!r}")
        self.name = name
        self._hash = hash((self._KIND_RANK, name))

    def __reduce__(self):
        # Rebuild through __init__: the cached hash is only valid under the
        # string-hash seed of the process that computed it.
        return (type(self), (self.name,))

    def sort_key(self) -> tuple:
        """Key realizing the total order on terms (kind rank, then name)."""
        return (self._KIND_RANK, self.name)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.name == other.name

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() >= other.sort_key()

    @property
    def is_constant(self) -> bool:
        return isinstance(self, Constant)

    @property
    def is_null(self) -> bool:
        return isinstance(self, Null)

    @property
    def is_variable(self) -> bool:
        return isinstance(self, Variable)


class Constant(Term):
    """A constant from ``C``.  Homomorphisms map constants to themselves."""

    __slots__ = ()
    _KIND_RANK = 0

    def __repr__(self) -> str:
        return self.name


class Null(Term):
    """A labeled null from ``N``: a witness for an existential variable.

    Nulls invented by the chase carry structured names derived from the
    trigger that created them (see :func:`repro.chase.trigger.result_atom`),
    which makes null invention deterministic as required by Definition 3.1.
    """

    __slots__ = ()
    _KIND_RANK = 1

    def __repr__(self) -> str:
        return f"?{self.name}"


class Variable(Term):
    """A variable from ``V``; only used inside dependencies and queries."""

    __slots__ = ()
    _KIND_RANK = 2

    def __repr__(self) -> str:
        return self.name


#: A term that can appear in an instance (no variables).
GroundTerm = Union[Constant, Null]


class FreshNullFactory:
    """Produces globally fresh nulls with a common prefix.

    Used where the paper invents "new terms not occurring in I" without
    tying them to a trigger (e.g. the unifying function of Lemma 6.13 or
    canonical atoms of equality types).
    """

    def __init__(self, prefix: str = "n"):
        self._prefix = prefix
        self._counter = itertools.count()

    def fresh(self) -> Null:
        """Return a null never produced by this factory before."""
        return Null(f"{self._prefix}{next(self._counter)}")

    def fresh_many(self, count: int) -> list:
        """Return ``count`` pairwise-distinct fresh nulls."""
        return [self.fresh() for _ in range(count)]


class FreshVariableFactory:
    """Produces fresh variables; used to rename TGDs apart (Section 2)."""

    def __init__(self, prefix: str = "v"):
        self._prefix = prefix
        self._counter = itertools.count()

    def fresh(self) -> Variable:
        """Return a variable never produced by this factory before."""
        return Variable(f"{self._prefix}{next(self._counter)}")


def constants_of(terms) -> set:
    """The set of constants among ``terms``."""
    return {t for t in terms if isinstance(t, Constant)}


def nulls_of(terms) -> set:
    """The set of nulls among ``terms``."""
    return {t for t in terms if isinstance(t, Null)}


def variables_of(terms) -> set:
    """The set of variables among ``terms``."""
    return {t for t in terms if isinstance(t, Variable)}
