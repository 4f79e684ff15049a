"""The layer boundaries the traced run wraps, and the metric each feeds.

Every wrapper sits on a public entry point of a layer, as the layer's
callers reach it (discovery is wrapped in ``repro.chase.engine``'s
namespace, the deciders in ``repro.termination.analyzer``'s).  The same
:func:`install` runs in the benchmark process and, for ``session_stream``,
in the service process started by ``perfbench/server.py``.

==============================  ============================================
span                            wraps
==============================  ============================================
``chase.discover``              ``seminaive_triggers``, ``triggers_on``,
                                ``new_triggers`` as called by the engine
``chase.round``                 ``ChaseEngine.run_round`` (self time is the
                                application sweep)
``backends.sqlite.open``        ``SQLiteInstance.__init__``
``backends.sqlite.add``         ``SQLiteInstance.add``
``backends.sqlite.lookup``      ``SQLiteInstance`` lookups and bucket views
``service.session``             ``ChaseService`` session calls and the
                                ``GET .../atoms`` serialization
``termination.portfolio``       ``TerminationPortfolio.analyze`` (self time
                                is the cascade outside its stages)
``termination.certificate`` …   the portfolio's three cheap stages
``termination.decider``         ``TerminationAnalyzer.analyze``
``guarded.decide``              ``decide_guarded``
``sticky.decide``               ``decide_sticky``
``runtime.gc``                  CPython collections (``gc.callbacks``)
==============================  ============================================

Counters: ``core.probes`` (``with_predicate`` / ``with_term_at`` calls on
any instance), ``chase.triggers_discovered`` (triggers returned by the
discovery functions), ``chase.triggers_fired`` and ``chase.rounds`` (from
each ``RoundResult``), ``runtime.gc_collections``.
"""

from __future__ import annotations


def _discovered(counts, triggers) -> None:
    counts["chase.triggers_discovered"] += len(triggers)


def _round(counts, result) -> None:
    counts["chase.rounds"] += 1
    counts["chase.triggers_fired"] += len(result.applied)


def install(tracer) -> None:
    """Install every wrapper of the table above on ``tracer``."""
    from repro.backends.sqlite import SQLiteInstance, _SQLiteView
    from repro.chase import engine
    from repro.core.instance import Instance
    from repro.service.session import ChaseService, ChaseSession
    from repro.termination import analyzer, portfolio

    tracer.wrap(engine, "seminaive_triggers", "chase.discover", count=_discovered)
    # The seed and inject paths yield lazily; the engine drains them at
    # once, so draining inside the span keeps the same work in the span.
    for function in ("triggers_on", "new_triggers"):
        tracer.wrap(
            engine, function, "chase.discover", count=_discovered, materialize=True
        )
    tracer.wrap(engine.ChaseEngine, "run_round", "chase.round", count=_round)

    for cls in (Instance, SQLiteInstance):
        for method in ("with_predicate", "with_term_at"):
            tracer.count_calls(cls, method, "core.probes")
    tracer.wrap(SQLiteInstance, "__init__", "backends.sqlite.open")
    tracer.wrap(SQLiteInstance, "add", "backends.sqlite.add")
    for method in ("with_predicate", "with_term_at", "__contains__", "__iter__"):
        tracer.wrap(SQLiteInstance, method, "backends.sqlite.lookup")
    for method in ("__len__", "__iter__", "__contains__"):
        tracer.wrap(_SQLiteView, method, "backends.sqlite.lookup")

    for method in ("create_session", "post_facts", "delete"):
        tracer.wrap(ChaseService, method, "service.session")
    tracer.wrap(ChaseSession, "canonical_atoms", "service.session")

    Portfolio = portfolio.TerminationPortfolio
    tracer.wrap(Portfolio, "analyze", "termination.portfolio")
    tracer.wrap(Portfolio, "_stage_certificate", "termination.certificate")
    tracer.wrap(Portfolio, "_stage_stratification", "termination.stratification")
    tracer.wrap(Portfolio, "_stage_hierarchical", "termination.hierarchical")
    tracer.wrap(analyzer.TerminationAnalyzer, "analyze", "termination.decider")
    tracer.wrap(analyzer, "decide_guarded", "guarded.decide")
    tracer.wrap(analyzer, "decide_sticky", "sticky.decide")

    tracer.trace_gc()
