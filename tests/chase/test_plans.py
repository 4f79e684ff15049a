"""Compiled join plans against the generic homomorphism search.

``seminaive_triggers`` joins each ``(tgd, pivot)`` pair through a compiled
:class:`~repro.chase.plans.PivotPlan` and emits compact rows.  The
reference below is the plain semi-naive rewriting over the generic
:func:`~repro.core.homomorphism.homomorphisms` search, building one
:class:`~repro.chase.trigger.Trigger` per match.  Both must return the
same triggers — keys *and* rule names — in the same order, on every round
of corpus chases, on the memory and the SQLite backend.
"""

import pytest

from repro.core.atoms import Atom
from repro.core.homomorphism import homomorphisms, match_atom
from repro.core.instance import Database
from repro.core.parsing import parse_database
from repro.core.terms import Constant
from repro.chase import engine as engine_module
from repro.chase import parallel
from repro.chase.engine import ChaseEngine
from repro.chase.oblivious import oblivious_chase
from repro.chase.parallel import ParallelMatcher
from repro.chase.plans import JoinPlans, materialize, merge_rows, seminaive_triggers
from repro.chase.restricted import restricted_chase
from repro.chase.trigger import Trigger
from repro.guarded.decision import candidate_databases
from repro.tgds.generators import GeneratorProfile, corpus
from repro.tgds.tgd import TGD, parse_tgds

FAMILIES = ("guarded", "sticky", "linear", "weakly-acyclic")

PROFILES = [
    GeneratorProfile(
        num_predicates=2, max_arity=2, num_tgds=3, existential_probability=0.8
    ),
    GeneratorProfile(
        num_predicates=3,
        max_arity=3,
        num_tgds=4,
        max_body_atoms=3,
        existential_probability=0.4,
    ),
]

JOIN_TGDS = parse_tgds(
    [
        "E(x,y) -> F(x,y)",
        "F(x,y), F(y,z), F(z,x) -> T(x,y,z)",
        "F(x,y), F(y,z), F(z,w), F(w,x) -> Q(x,y,z,w)",
        "F(x,x), F(x,y) -> L(y)",
        "F(x,y), F(y,z), T(x,z,w) -> R(x,w)",
    ]
)


def reference_seminaive(tgds, instance, delta):
    """Semi-naive discovery over the generic search: ``(birth, canonical)``."""
    births = {}
    found = {}
    for tgd in tgds:
        for pivot_index, pivot in enumerate(tgd.body):
            rest = [atom for i, atom in enumerate(tgd.body) if i != pivot_index]
            for pivot_atom in delta.with_predicate(pivot.predicate):
                base = match_atom(pivot, pivot_atom)
                if base is None:
                    continue
                birth = delta.position(pivot_atom)
                for h in homomorphisms(rest, instance, partial=base):
                    trigger = Trigger(tgd, h)
                    if trigger.key not in found:
                        found[trigger.key] = trigger
                        births[trigger.key] = birth
                    else:
                        births[trigger.key] = max(births[trigger.key], birth)
    return sorted(found.values(), key=lambda t: (births[t.key], t.canonical_key))


def signature(triggers):
    return [(t.key, t.tgd.name) for t in triggers]


@pytest.fixture
def checked_discovery(monkeypatch):
    """Route the engine's discovery through a reference comparison."""
    passes = []
    plain = engine_module.seminaive_triggers

    def compared(tgds, instance, delta, plans=None):
        got = plain(tgds, instance, delta, plans=plans)
        assert signature(got) == signature(reference_seminaive(tgds, instance, delta))
        passes.append(len(got))
        return got

    monkeypatch.setattr(engine_module, "seminaive_triggers", compared)
    return passes


def ring_database(n):
    """A small digraph with triangles and 4-cycles, no self-loops."""
    edges = {(i, (i + k) % n) for i in range(n) for k in (1, 2, 3 * i + 1)}
    return Database(
        Atom("E", [Constant(f"c{i}"), Constant(f"c{j}")])
        for i, j in sorted(edges)
        if i != j
    )


class TestAgainstReference:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("profile", range(len(PROFILES)))
    def test_generator_corpus(self, family, profile, backend, checked_discovery):
        for tgds in corpus(family, 3, base_seed=5 + profile, profile=PROFILES[profile]):
            for database in candidate_databases(tgds)[:3]:
                restricted_chase(
                    database, tgds, strategy="semi_naive", max_steps=60, backend=backend
                )
                oblivious_chase(database, tgds, max_atoms=120, backend=backend)
        assert checked_discovery

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_join_rules(self, backend, checked_discovery):
        database = ring_database(7)
        database.add(Atom("E", [Constant("c1"), Constant("c1")]))
        restricted_chase(
            database, JOIN_TGDS, strategy="semi_naive", max_steps=10_000, backend=backend
        )
        assert sum(checked_discovery) > 0

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_late_edges_join_against_derived_atoms(self, backend):
        # New F edges arrive after T atoms exist, so the pivot F(x,y) of
        # the last rule probes T(x,z,w) with two bound positions.
        done = restricted_chase(ring_database(6), JOIN_TGDS, strategy="semi_naive")
        engine = ChaseEngine(done.instance, JOIN_TGDS, backend=backend)
        delta = engine.instance.track_delta()
        for i, j in ((0, 3), (3, 1), (2, 0), (4, 4)):
            engine.instance.add(Atom("F", [Constant(f"c{i}"), Constant(f"c{j}")]))
        engine.instance.take_delta()
        got = seminaive_triggers(JOIN_TGDS, engine.instance, delta)
        assert any(t.tgd is JOIN_TGDS[4] for t in got)
        assert signature(got) == signature(
            reference_seminaive(JOIN_TGDS, engine.instance, delta)
        )

    def test_repeated_variables_and_mixed_arity(self):
        tgds = parse_tgds(["R(x,x,y), S(y,x) -> T(y)", "S(x,y), S(y,y) -> U(x)"])
        engine = ChaseEngine(parse_database("P(a)"), tgds)
        delta = engine.instance.track_delta()
        for atom in parse_database("R(a,a,b), R(a,b,b), S(b,a), S(a,b), S(b,b), S(c,a)"):
            engine.instance.add(atom)
        engine.instance.add(Atom("S", [Constant("a")]))  # another arity of S
        engine.instance.take_delta()
        got = seminaive_triggers(tgds, engine.instance, delta)
        assert signature(got) == signature(
            reference_seminaive(tgds, engine.instance, delta)
        )
        assert {t.tgd.name for t in got} == {tgds[0].name, tgds[1].name}


class TestPlans:
    def test_plan_order_is_most_bound_first(self):
        plans = JoinPlans(JOIN_TGDS)
        plan = plans.by_tgd[1][0]  # triangle, pivot F(x,y)
        assert [step.member is not None for step in plan.steps] == [False, True]
        assert plan.width == 3
        plan = plans.by_tgd[4][0]  # pivot F(x,y), then F(y,z), then T(x,z,w)
        assert [len(step.probes) for step in plan.steps] == [1, 2]
        assert plan.steps[1].rechecks == (((1, 3),), ((0, 1),))

    def test_plans_for_another_rule_set_are_rejected(self):
        renamed = [TGD(t.body, t.head, name=f"other{i}") for i, t in enumerate(JOIN_TGDS)]
        engine = ChaseEngine(ring_database(5), JOIN_TGDS)
        delta = engine.instance.track_delta()
        engine.instance.add(Atom("F", [Constant("c0"), Constant("c1")]))
        engine.instance.take_delta()
        with pytest.raises(ValueError, match="different TGD set"):
            seminaive_triggers(renamed, engine.instance, delta, JoinPlans(JOIN_TGDS))

    def test_chunked_rows_merge_to_the_serial_list(self):
        engine = ChaseEngine(ring_database(6), JOIN_TGDS)
        delta = engine.instance.track_delta()
        for trigger in engine.take_pending():
            engine.instance.add(trigger.result())
        engine.instance.take_delta()
        plans = JoinPlans(JOIN_TGDS)
        size = len(delta.with_predicate("F"))
        tasks = [
            parallel._match_chunks(
                plans, engine.instance, delta, [(t, p, lo, min(lo + 3, size))]
            )
            for t in range(1, len(JOIN_TGDS))
            for p in range(len(JOIN_TGDS[t].body))
            for lo in range(0, size, 3)
        ]
        merged = materialize(plans, merge_rows(tasks))
        serial = seminaive_triggers(JOIN_TGDS, engine.instance, delta)
        assert serial and signature(merged) == signature(serial)


class TestEqualRulesUnderDifferentNames:
    """Equal rules collapse onto the first rule's index, serial and pooled."""

    TGDS = parse_tgds(
        [
            "E(x,y) -> F(x,y)",
            "F(x,y), F(y,z) -> P(x,z,w)",
            "F(x,y), F(y,z) -> P(x,z,w)",
            "P(x,y,w) -> E(y,x)",
        ]
    )

    def renamed(self):
        tgds = list(self.TGDS)
        tgds[1] = TGD(tgds[1].body, tgds[1].head, name="first")
        tgds[2] = TGD(tgds[2].body, tgds[2].head, name="second")
        assert tgds[1] == tgds[2]
        return tgds

    def test_discovery_keeps_the_first_rule(self):
        tgds = self.renamed()
        engine = ChaseEngine(ring_database(5), tgds)
        delta = engine.instance.track_delta()
        for trigger in engine.take_pending():
            engine.instance.add(trigger.result())
        engine.instance.take_delta()
        serial = seminaive_triggers(tgds, engine.instance, delta)
        assert signature(serial) == signature(
            reference_seminaive(tgds, engine.instance, delta)
        )
        names = {t.tgd.name for t in serial}
        assert "first" in names and "second" not in names
        for workers in (1, 2):
            with ParallelMatcher(
                tgds, workers=workers, backend="thread", min_parallel_work=0
            ) as matcher:
                pooled = matcher.discover(engine.instance, delta)
            assert signature(pooled) == signature(serial)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chases_are_identical(self, workers, monkeypatch):
        monkeypatch.setattr(parallel, "DEFAULT_MIN_PARALLEL_WORK", 0)
        tgds = self.renamed()
        database = ring_database(5)
        fifo = restricted_chase(database, tgds, strategy="fifo", max_steps=300)
        pooled = restricted_chase(
            database, tgds, strategy="semi_naive", max_steps=300, workers=workers
        )
        assert fifo.steps == pooled.steps
        assert fifo.instance.sorted_atoms() == pooled.instance.sorted_atoms()
        assert signature(fifo.derivation.steps) == signature(pooled.derivation.steps)
        step = oblivious_chase(database, tgds, strategy="per_trigger", max_atoms=500)
        rounds = oblivious_chase(database, tgds, max_atoms=500, workers=workers)
        assert step.instance.sorted_atoms() == rounds.instance.sorted_atoms()
