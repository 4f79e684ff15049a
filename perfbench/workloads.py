"""The benchmark's workloads: inputs, the timed operation, output checks.

Each workload builds its inputs from the seed with the repository's own
builders (``benchmarks/bench_parallel.py``, ``bench_persistent.py``,
``bench_service.py`` and :func:`repro.tgds.generators.corpus`).  The
builders fix the *shape* (sizes, rules, the corpus); the seed renames the
constants or predicates and shuffles the input order, so every seed does
the same amount of work and runs with different seeds stay comparable.

A workload's life: :meth:`Workload.setup` builds the inputs (and starts
the service), :meth:`Workload.reference` computes the expected result once
per run, then the runner calls :meth:`~Workload.op` (timed),
:meth:`~Workload.inspect` (untimed: digests, counts, resource release) and
:meth:`~Workload.check` once per operation.  Every operation is the same
stateless work.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from bench_parallel import join_database, parallel_tgds
from bench_persistent import canonical_digest, chain_database, chain_tgds
from bench_service import SERVICE_TGD_TEXTS
from repro.chase.oblivious import oblivious_chase, satisfies_all
from repro.chase.restricted import restricted_chase
from repro.core.atoms import Atom
from repro.core.instance import Database, Instance
from repro.core.parsing import parse_atoms
from repro.core.terms import Constant
from repro.termination.analyzer import TerminationAnalyzer
from repro.termination.portfolio import TerminationPortfolio, settled_cheaply
from repro.tgds.generators import GeneratorProfile, corpus
from repro.tgds.tgd import TGD, parse_tgds

HERE = Path(__file__).resolve().parent

#: join_closure: nodes of the out-degree-8 digraph (~0.65 s per closure on
#: a 2-CPU x86 host).
JOIN_NODES = 24
#: bulk_closure: relay-chain width and depth.  13.5k atoms, whose database
#: and WAL files (~6.6 MB) outgrow SQLite's default 2 MB page cache.
BULK_WIDTH = 1500
BULK_DEPTH = 8
#: session_stream: graph the posted edges come from (72 edges) and facts
#: per request: a session is created with the first batch and posted the
#: other eight.
SESSION_NODES = 13
SESSION_BATCH = 8
#: Service stderr lines that count as a failed op: a traceback, or the
#: asyncio complaints a shutdown with a live connection leaves behind.
SERVER_FAULTS = ("Traceback", "Task was destroyed", "Event loop is closed")
#: verdict_corpus: (family, profile, first seed, sets) slices of the
#: generator corpus: 35 sets, 27 settled by a cheap portfolio stage and 8
#: that reach a decider (3 guarded, 5 sticky).  No set takes more than
#: about 30 % of an op; the slices skip the generator seeds whose single
#: set would take over a second (guarded 53, sticky 24).
_GUARDED = GeneratorProfile(3, 2, 3, 2, 0.6)
VERDICT_SLICES = (
    ("guarded", _GUARDED, 50, 3),
    ("guarded", _GUARDED, 54, 4),
    ("sticky", GeneratorProfile(5, 3, 6, 3, 0.4), 0, 24),
    ("sticky", GeneratorProfile(4, 3, 4, 2, 0.5), 27, 4),
)


def relabel(database: Instance, rng: random.Random) -> Database:
    """``database`` with seeded constant names, in seeded order.

    Names are fixed-width, so sorting and hashing cost the same under
    every seed.
    """
    constants = sorted({term for atom in database for term in atom.terms}, key=repr)
    names = rng.sample(range(1_000_000), len(constants))
    mapping = {c: Constant(f"k{n:06d}") for c, n in zip(constants, names)}
    atoms = [Atom(a.predicate, [mapping[t] for t in a.terms]) for a in database]
    rng.shuffle(atoms)
    return Database(atoms)


def rename_predicates(tgds: List[TGD], rng: random.Random) -> List[TGD]:
    """``tgds`` with seeded fixed-width predicate names, in seeded order."""
    predicates = sorted(
        {atom.predicate for tgd in tgds for atom in (*tgd.body, tgd.head)}
    )
    names = rng.sample(range(10_000), len(predicates))
    mapping = {p: f"Q{n:04d}" for p, n in zip(predicates, names)}
    renamed = [
        TGD(
            [Atom(mapping[a.predicate], a.terms) for a in tgd.body],
            Atom(mapping[tgd.head.predicate], tgd.head.terms),
            name=tgd.name,
        )
        for tgd in tgds
    ]
    rng.shuffle(renamed)
    return renamed


class Workload:
    """One workload; subclasses fill in the four steps."""

    name = ""
    #: Set by the runner in traced runs (workloads that open their own
    #: spans use it); ``server_spans`` holds a traced service's spans.
    tracer = None
    server_spans = None

    def setup(self, seed: int, work_dir: Path, traced: bool = False) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        """Compute the expected result (untimed, once per run)."""
        raise NotImplementedError

    def op(self):
        """The timed operation; returns its raw result."""
        raise NotImplementedError

    def inspect(self, raw) -> dict:
        """Untimed view of one result.

        Keys: ``counts`` (deterministic per-op counts), ``work`` (what
        ``throughput_per_s`` counts: derived atoms, HTTP requests or rule
        sets), ``latencies`` (seconds per user request inside the
        op; empty when the op is one request) and workload extras.
        """
        raise NotImplementedError

    def check(self, facts: dict) -> bool:
        raise NotImplementedError

    def close(self) -> List[str]:
        """Release resources; returns problems found while doing so."""
        return []

    def peak_rss_kb(self) -> Optional[int]:
        """Peak RSS of the serving process, when that is not this one."""
        return None


class JoinClosure(Workload):
    name = "join_closure"

    def setup(self, seed, work_dir, traced=False):
        self.database = relabel(join_database(JOIN_NODES), random.Random(seed))
        self.tgds = parallel_tgds()

    def reference(self):
        # Restricted closures differ by chase order in general; this one is
        # fixed by the semi-naive order, so every op must match the first,
        # which must be a model of the rules.
        result = self.op()
        if not (result.terminated and satisfies_all(result.instance, self.tgds)):
            raise RuntimeError("join_closure reference is not a model of its rules")
        self.expected = canonical_digest(result.instance)

    def op(self):
        return restricted_chase(
            self.database, self.tgds, strategy="semi_naive", max_steps=1_000_000
        )

    def inspect(self, raw):
        instance = raw.instance
        return {
            "digest": canonical_digest(instance),
            "terminated": raw.terminated,
            "counts": {"atoms": len(instance), "fired": raw.steps},
            "work": len(instance) - len(self.database),
            "latencies": [],
        }

    def check(self, facts):
        return facts["terminated"] and facts["digest"] == self.expected


class BulkClosure(Workload):
    name = "bulk_closure"

    def setup(self, seed, work_dir, traced=False):
        self.database = relabel(chain_database(BULK_WIDTH), random.Random(seed))
        self.tgds = chain_tgds(BULK_DEPTH)

    def reference(self):
        self.expected = canonical_digest(self._chase("memory").instance)

    def _chase(self, backend):
        return oblivious_chase(
            self.database,
            self.tgds,
            max_atoms=10_000_000,
            max_rounds=BULK_DEPTH + 10,
            backend=backend,
        )

    def op(self):
        return self._chase("sqlite")

    def inspect(self, raw):
        instance = raw.instance
        try:
            file_bytes = sum(
                os.path.getsize(instance.path + suffix)
                for suffix in ("", "-wal", "-shm")
                if os.path.exists(instance.path + suffix)
            )
            digest = canonical_digest(instance)
        finally:
            instance.close()
        return {
            "digest": digest,
            "terminated": raw.terminated,
            "counts": {
                "atoms": len(instance),
                "rounds": raw.rounds,
                "applications": raw.applications,
            },
            "work": len(instance) - len(self.database),
            "latencies": [],
            "bytes_per_atom": file_bytes / len(instance),
        }

    def check(self, facts):
        return facts["terminated"] and facts["digest"] == self.expected


class SessionStream(Workload):
    """Whole session lifecycles over one keep-alive connection.

    One op: create a session with the first fact batch, post the other
    batches, read the atoms back, delete the session.  The service runs in
    its own process (``perfbench/server.py``), on the same CPU as the
    client; its stderr is kept, and any traceback in it is a failure.
    """

    name = "session_stream"

    def setup(self, seed, work_dir, traced=False):
        # Client and service share one CPU (the service inherits this
        # affinity).  The loop is sequential, and cross-CPU wake-ups on a
        # shared 2-CPU host made request times swing by a quarter between
        # runs.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.tgds = list(SERVICE_TGD_TEXTS)
        edges = [repr(a) for a in relabel(join_database(SESSION_NODES), random.Random(seed))]
        self.batches = [
            edges[i : i + SESSION_BATCH] for i in range(0, len(edges), SESSION_BATCH)
        ]
        self.tracer = None
        self.server_spans = None
        self._spans_path = work_dir / "server-spans.json"
        self._stderr_path = work_dir / "server-stderr.log"
        self._start_server(traced, work_dir)

    def reference(self):
        facts = ",".join(edge for batch in self.batches for edge in batch)
        cold = oblivious_chase(
            Instance(parse_atoms(facts, data=True)), parse_tgds(self.tgds), prune=False
        )
        self.expected = [repr(atom) for atom in cold.instance.sorted_atoms()]

    def _start_server(self, traced: bool, work_dir: Path) -> None:
        command = [sys.executable, str(HERE / "server.py")]
        if traced:
            command += ["--trace", "--spans", str(self._spans_path)]
        self._stderr = open(self._stderr_path, "w")
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=dict(os.environ, TMPDIR=str(work_dir)),
            text=True,
        )
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            ready = selector.select(timeout=60)
        line = self.process.stdout.readline() if ready else ""
        if "listening on http://" not in line:
            self.close()
            raise RuntimeError(f"chase service did not start: {line!r}")
        host, port = line.split("http://", 1)[1].split()[0].rsplit(":", 1)
        self.connection = http.client.HTTPConnection(host, int(port), timeout=60)

    def _request(self, method: str, path: str, payload, latencies, sizes):
        body = json.dumps(payload) if payload is not None else None
        tracer = self.tracer
        index = tracer.begin("service.request") if tracer is not None else None
        start = time.perf_counter()
        try:
            self.connection.request(method, path, body=body)
            response = self.connection.getresponse()
            data = response.read()
        finally:
            if index is not None:
                tracer.end(index)
        latencies.append(time.perf_counter() - start)
        sizes.append(len(data))
        if response.status != 200:
            raise RuntimeError(f"{method} {path} answered {response.status}: {data[:200]!r}")
        return json.loads(data)

    def op(self):
        latencies: List[float] = []
        sizes: List[int] = []
        request = lambda *args: self._request(*args, latencies, sizes)
        created = request(
            "POST", "/v1/sessions", {"tgds": self.tgds, "facts": self.batches[0]}
        )
        session = created["session"]
        answers = [created]
        for batch in self.batches[1:]:
            answers.append(
                request("POST", f"/v1/sessions/{session}/facts", {"facts": batch})
            )
        atoms = request("GET", f"/v1/sessions/{session}/atoms", None)["atoms"]
        request("DELETE", f"/v1/sessions/{session}", None)
        return {"answers": answers, "atoms": atoms, "latencies": latencies, "sizes": sizes}

    def inspect(self, raw):
        answers = raw["answers"]
        return {
            "statuses": [answer["status"] for answer in answers],
            "atoms": raw["atoms"],
            "counts": {
                "derived": [len(answer["derived"]) for answer in answers],
                "atoms": len(raw["atoms"]),
                "requests": len(raw["latencies"]),
            },
            "work": len(raw["latencies"]),
            "latencies": raw["latencies"],
            "response_bytes": sum(raw["sizes"]) / len(raw["sizes"]),
        }

    def check(self, facts):
        return (
            all(status == "complete" for status in facts["statuses"])
            and facts["atoms"] == self.expected
        )

    def peak_rss_kb(self):
        try:
            with open(f"/proc/{self.process.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return None

    def close(self):
        """Stop the service; client connection first, then SIGTERM."""
        problems = []
        connection = getattr(self, "connection", None)
        if connection is not None:
            connection.close()
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
            problems.append("chase service ignored SIGTERM")
        self.process.stdout.close()
        self._stderr.close()
        stderr = self._stderr_path.read_text()
        problems += [
            "server: " + line
            for line in stderr.splitlines()
            if any(marker in line for marker in SERVER_FAULTS)
        ]
        if self._spans_path.exists():
            self.server_spans = json.loads(self._spans_path.read_text())
            self._spans_path.unlink()
        return problems


class VerdictCorpus(Workload):
    """Fresh portfolio verdicts over a guarded + sticky corpus.

    A new :class:`TerminationPortfolio` per set, with no verdict cache, so
    no op is a cache hit.  The reference is the decider-only
    :class:`TerminationAnalyzer` status of every set.
    """

    name = "verdict_corpus"

    def setup(self, seed, work_dir, traced=False):
        rng = random.Random(seed)
        sets = [
            rename_predicates(tgds, rng)
            for family, profile, base, size in VERDICT_SLICES
            for tgds in corpus(family, size, base_seed=base, profile=profile)
        ]
        rng.shuffle(sets)
        self.sets = sets

    def reference(self):
        self.expected = [TerminationAnalyzer().analyze(tgds).status for tgds in self.sets]

    def op(self):
        verdicts, latencies = [], []
        for tgds in self.sets:
            start = time.perf_counter()
            verdicts.append(TerminationPortfolio().analyze(tgds))
            latencies.append(time.perf_counter() - start)
        return verdicts, latencies

    def inspect(self, raw):
        verdicts, latencies = raw
        statuses = [verdict.status for verdict in verdicts]
        return {
            "statuses": statuses,
            "counts": {"statuses": statuses},
            "work": len(verdicts),
            "latencies": latencies,
            "settled_cheaply": sum(settled_cheaply(v) for v in verdicts) / len(verdicts),
        }

    def check(self, facts):
        return facts["statuses"] == self.expected


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (JoinClosure, BulkClosure, SessionStream, VerdictCorpus)
}
