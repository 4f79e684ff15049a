"""The round driver's callers agree on what a cut means and how it counts.

``oblivious_chase`` and :class:`repro.service.session.ChaseSession` run
the same :class:`repro.chase.driver.ChaseRun` loop with different cut
policies: the chase raises :class:`ChaseInterrupted` with a checkpoint,
the session suspends in place.  Cut at the same budget, both must report
the same reason, rounds and applications; continued to the end, both
must land on the cold run — at the fixpoint, or at the ``max_rounds``
ceiling of a diverging rule set.  ``make test-chaos`` re-runs this file
with ``CHASE_CHAOS_SEED`` set, so the pooled cases go through
``ChaosMatcher`` too.
"""

import pickle

import pytest

from repro.chase import parallel
from repro.chase.checkpoint import Budget
from repro.chase.oblivious import oblivious_chase
from repro.core.instance import Instance
from repro.core.parsing import parse_atoms
from repro.errors import ChaseInterrupted
from repro.service.session import ChaseSession
from repro.tgds.tgd import parse_tgds

CHAIN_TGDS = parse_tgds(
    [
        "E(x,y) -> F(x,y)",
        "F(x,y) -> G(y,w)",
        "G(x,y) -> H(x)",
    ]
)

DIVERGING_TGDS = parse_tgds(["R(x,y) -> R(y,z)", "R(x,y) -> S(x)"])

CASES = {
    "chain": (CHAIN_TGDS, "E(a,b), E(b,c), E(c,d)"),
    "diverging": (DIVERGING_TGDS, "R(a,b)"),
}

#: The round ceiling shared by every run; the diverging set stops there.
MAX_ROUNDS = 5


def counters(result):
    return result.rounds, result.applications, [repr(a) for a in result.instance]


def session_counters(session):
    return (
        session.rounds,
        session.applications,
        [repr(a) for a in session.engine.instance],
    )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("limit", ["max_rounds", "max_applications"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_session_and_oblivious_chase_cut_and_count_alike(
    case, limit, workers, monkeypatch
):
    # Pool every round, however small, so workers=2 really fans out.
    monkeypatch.setattr(parallel, "DEFAULT_MIN_PARALLEL_WORK", 0)
    tgds, text = CASES[case]
    facts = parse_atoms(text, data=True)

    def chase(**kwargs):
        return oblivious_chase(
            kwargs.pop("database", Instance(facts)),
            tgds,
            max_rounds=MAX_ROUNDS,
            workers=workers,
            prune=False,
            **kwargs,
        )

    cold = chase()
    assert cold.terminated == (case == "chain")
    cuts = set()
    for k in range(max(cold.rounds, cold.applications) + 2):
        session = ChaseSession("s", tgds, facts, workers=workers, max_rounds=MAX_ROUNDS)
        try:
            cut = session.post_facts([], budget=Budget(**{limit: k}))
            try:
                run = chase(budget=Budget(**{limit: k}))
            except ChaseInterrupted as error:
                cuts.add(error.reason)
                checkpoint = error.checkpoint
                assert cut["status"] == "timeout"
                assert cut["reason"] == error.reason
                assert cut["rounds"] == checkpoint.rounds == error.partial["rounds"]
                assert cut["applications"] == checkpoint.applications
                assert session.info()["suspended"]
                run = chase(
                    database=None, resume=pickle.loads(pickle.dumps(checkpoint))
                )
                cut = session.post_facts([])
            # Continued to the end, both callers land on the cold run.
            assert counters(run) == counters(cold)
            assert run.terminated == cold.terminated
            assert session_counters(session) == counters(cold)
            assert cut["reason"] == (None if cold.terminated else "max_rounds")
            assert session.info()["suspended"] == (not cold.terminated)
        finally:
            session.close()
    # The sweep did exercise the budget it names.
    assert cuts == {f"budget:{limit.split('_')[-1]}"}
