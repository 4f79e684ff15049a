"""Ablations for the two main engine design choices (docs/ARCHITECTURE.md).

A1 — incremental trigger worklist vs naive re-enumeration per step:
     both compute the same chase; the incremental engine avoids
     re-matching the whole instance after every atom.
A2 — dynamic fail-first atom ordering in the homomorphism engine vs
     written order ("given", indexed lookup) vs the pre-index scan
     baseline ("scan"): most-constrained atoms first means bindings
     prune candidates, and term-position buckets shrink them further.
"""

import pytest

from repro.core.atoms import Atom
from repro.core.homomorphism import homomorphisms
from repro.core.instance import Database, Instance
from repro.core.parsing import parse_atoms
from repro.core.terms import Constant
from repro.chase.restricted import restricted_chase, restricted_chase_naive
from repro.tgds.tgd import parse_tgds
from conftest import report

TGDS = parse_tgds(
    [
        "E(x,y) -> F(x,y)",
        "F(x,y) -> G(y,w)",
        "G(x,y) -> H(x)",
    ]
)


def chain_database(n: int) -> Database:
    return Database(
        Atom("E", [Constant(f"c{i}"), Constant(f"c{i + 1}")]) for i in range(n)
    )


def star_instance(n: int) -> Instance:
    atoms = [Atom("R", [Constant("hub"), Constant(f"s{i}")]) for i in range(n)]
    atoms += [Atom("S", [Constant(f"s{i}"), Constant(f"t{i}")]) for i in range(n)]
    return Instance(atoms)


def test_a1_same_semantics():
    db = chain_database(6)
    incremental = restricted_chase(db, TGDS)
    naive = restricted_chase_naive(db, TGDS)
    assert incremental.terminated and naive.terminated
    assert incremental.instance == naive.instance
    report(
        "A1: engines agree",
        [("engine", "steps", "atoms"),
         ("incremental", incremental.steps, len(incremental.instance)),
         ("naive", naive.steps, len(naive.instance))],
    )


@pytest.mark.parametrize("engine", ["incremental", "naive"])
def test_bench_a1_worklist(benchmark, engine):
    db = chain_database(12)
    runner = restricted_chase if engine == "incremental" else restricted_chase_naive
    result = benchmark(runner, db, TGDS)
    assert result.terminated


def test_a2_same_answers():
    # A disconnected-looking body where written order is pessimal: the
    # selective S-atom comes last.
    body = parse_atoms("R(x,y), R(y,z), S(z,w)")
    target = star_instance(12)
    fail_first = sorted(map(repr, homomorphisms(body, target)))
    given = sorted(map(repr, homomorphisms(body, target, order="given")))
    scan = sorted(map(repr, homomorphisms(body, target, order="scan")))
    assert fail_first == given == scan


@pytest.mark.parametrize("order", ["fail-first", "given", "scan"])
def test_bench_a2_ordering(benchmark, order):
    body = parse_atoms("S(z,w), R(x,y), R(y,z)")
    target = star_instance(40)
    def run():
        return list(homomorphisms(body, target, order=order))
    answers = benchmark(run)
    assert isinstance(answers, list)
