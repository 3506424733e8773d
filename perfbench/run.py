#!/usr/bin/env python3
"""End-to-end benchmark of the eegrag engine.

    python3 perfbench/run.py --workload {eeg_scan,kg_text} \
        --seed N --seconds S --trace {0,1}

One run, from the root of a source checkout:

1. writes the workload's synthetic corpus from ``--seed`` (``corpus.py``);
2. ingests it in-process through ``eegrag.cli.main`` (ingest-docs with the
   fact sidecar, ingest-cases, ingest-eeg), timing each command;
3. in each of ``ROUNDS`` rounds, re-times the ingest commands (not in the
   first), times ``Pipeline.from_directory`` (repeated when it is short),
   and runs its share of a closed loop of ``Pipeline.run_query`` calls from
   one client; the loop lasts ``--seconds`` in all and asks each distinct
   question once;
4. checks a sample of the answers, spread over the rounds, against
   brute-force references (``reference.py``);
5. asks a smaller sample again in a fresh process (``replay.py``), which
   must answer the same, and takes that process's peak memory as ``rss_mb``.

Every time and rate is paced (``pace.py``): a fixed calibration kernel is
timed before, during and after each timed operation, and the operation's
wall time is rescaled to a reference pace of that kernel, so that the
host's slow spells cancel out. The wall-clock figures are printed on the
``facts`` line.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
the per-layer metrics, from spans wrapped around the engine's functions
(``spans.py``), and it writes the spans to
``perfbench/.traces/<workload>.json``, replacing the previous traced run's. The last
line of standard output is the JSON result; the lines before it are the
same figures for a reader, then the run's facts: query counts, the tail
percentile, a digest of every answer and the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The measured window is split into rounds. Each round after the first
# re-times the ingest commands; every round times one set-up and runs its
# share of the query loop. So every metric samples the machine across the
# whole run rather than in one burst.
ROUNDS = 4
# When re-timed, an ingest command shorter than ROUND_PHASE_S is repeated
# until about that much of it has run; so is the set-up in every round.
ROUND_PHASE_S = 0.5
MAX_PHASE_REPS = 100
# Answers checked against the references, and answers asked again in a
# fresh process; both samples are spread over the whole run.
CHECKED_QUERIES = 24
REPLAYED_QUERIES = 8


def workloads():
    """name -> corpus spec."""
    from corpus import CorpusSpec

    return {
        # The pool lasts until queries are about 60 times faster than today.
        "eeg_scan": CorpusSpec(
            entities=25, facts=13, cases=200, recordings=200,
            stored_queries=1000, fresh_queries=1000, names_per_question=(1, 2),
        ),
        "kg_text": CorpusSpec(
            entities=3000, facts=10000, cases=200, recordings=8,
            stored_queries=3000, fresh_queries=0, names_per_question=(2, 3),
        ),
    }


class Run:
    """Counts of attempted and failed operations, with the failures' reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)


# -- phases ----------------------------------------------------------------------


def dir_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def count_lines(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


class Ingest:
    """The three ingest commands, run in-process through ``eegrag.cli.main``.

    ``build`` runs each once into the store, saving the store as it was
    before each command; ``retime`` runs them again from those saved states
    and checks that they write the same store again.
    """

    def __init__(self, inp: Path, work: Path, run: Run, tracer, paced):
        self.commands = [
            ("docs", ["ingest-docs", str(inp / "docs.jsonl"), "--facts", str(inp / "docs.facts.jsonl")]),
            ("cases", ["ingest-cases", str(inp / "cases.jsonl")]),
            ("eeg", ["ingest-eeg", str(inp / "eeg")]),
        ]
        self.n_docs = count_lines(inp / "docs.jsonl")
        self.work, self.run, self.tracer, self.paced = work, run, tracer, paced
        self.times: dict[str, list[float]] = {phase: [] for phase, _ in self.commands}  # paced
        self.wall: dict[str, list[float]] = {phase: [] for phase, _ in self.commands}
        self.after: dict[str, str] = {}  # store digest after each command

    def _time(self, phase: str, argv: list[str], store: Path) -> None:
        from eegrag import cli

        if self.tracer is not None:
            self.tracer.request_id = f"ingest:{phase}:{len(self.times[phase])}"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc, wall, paced = self.paced.time(cli.main, argv + ["--store", str(store)])
        self.times[phase].append(paced)
        self.wall[phase].append(wall)
        errors = [] if rc == 0 else [f"ingest-{phase} exited with {rc}"]
        if rc == 0 and phase == "docs":
            documents = json.loads(out.getvalue())["documents"]
            if documents != self.n_docs:
                errors.append(f"ingest-docs read {documents} of {self.n_docs} documents")
        digest = dir_digest(store)
        if self.after.setdefault(phase, digest) != digest:
            errors.append(f"ingest-{phase} wrote a different store when repeated")
        self.run.record(errors)

    def build(self, store: Path) -> None:
        for phase, argv in self.commands:
            if store.exists():
                shutil.copytree(store, self.work / f"before-{phase}")
            self._time(phase, argv, store)

    def retime(self) -> None:
        spare = self.work / "spare"
        for phase, argv in self.commands:
            before = self.work / f"before-{phase}"
            for _ in range(min(MAX_PHASE_REPS, math.ceil(ROUND_PHASE_S / self.wall[phase][0]))):
                shutil.rmtree(spare, ignore_errors=True)
                if before.exists():
                    shutil.copytree(before, spare)
                self._time(phase, argv, spare)
        shutil.rmtree(spare, ignore_errors=True)

    def median_s(self, phase: str, wall: bool = False) -> float:
        return statistics.median((self.wall if wall else self.times)[phase])


def expected_store(inp: Path) -> dict[str, int]:
    """Entity, knowledge-edge and recording counts implied by the inputs."""
    from eegrag.hashing import normalize_name

    names, edges = set(), set()
    with open(inp / "docs.facts.jsonl", encoding="utf-8") as fh:
        for line in fh:
            fact = json.loads(line)
            members = frozenset(normalize_name(e["name"]) for e in fact["entities"])
            names |= members
            edges.add((fact["description"], members))
    return {
        "entities": len(names),
        "knowledge_edges": len(edges),
        "recordings": len(list((inp / "eeg").glob("*.json"))),
    }


def check_store(pipeline, expected: dict[str, int]) -> list[str]:
    got = {
        "entities": len(pipeline.store.entities),
        "knowledge_edges": sum(1 for e in pipeline.store.hyperedges.values() if e.layer == "knowledge"),
        "recordings": len(pipeline.evd),
    }
    return [f"store has {got[k]} {k}, inputs imply {v}" for k, v in expected.items() if got[k] != v]


def load_queries(inp: Path, ids: set[str] | None = None) -> list[dict]:
    """The query pool in order, or only the questions in ``ids``."""
    from eegrag.eeg import load_recording

    pool = []
    with open(inp / "queries.jsonl", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if ids is not None and row["id"] not in ids:
                continue
            row["recording"] = load_recording(inp / row["eeg_file"]) if "eeg_file" in row else None
            pool.append(row)
    return pool


def ask(pipeline, q):
    return pipeline.run_query(
        q["question"],
        role=q["role"],
        domain=q["domain"],
        eeg_recording=q["recording"],
        eeg_recording_id=q.get("eeg_id"),
    )


def query_loop(pipeline, queries, seconds: float, run: Run, tracer, paced, latencies, answered) -> float:
    """Closed loop, one client: the next question goes out when the last one
    returns. Runs for ``seconds`` or until ``queries`` is exhausted. Appends
    (wall, paced) seconds per answer to ``latencies``; returns the loop's
    wall time."""
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        q = next(queries, None)
        if q is None:
            break
        if tracer is not None:
            tracer.request_id = q["id"]
        try:
            result, wall, pace_s = paced.time(ask, pipeline, q)
        except Exception as exc:  # a failed query is counted, and the loop goes on
            run.record([f"query {q['id']} raised {exc!r}"])
            continue
        latencies.append((wall, pace_s))
        answered.append((q, result))
        run.record([])
    return time.perf_counter() - start


def spread_sample(answered, n: int):
    """Up to ``n`` answers, evenly spaced over the run; questions by stored id
    and by fresh recording get equal shares when both were asked."""
    kinds = [
        [a for a in answered if a[0]["recording"] is None],
        [a for a in answered if a[0]["recording"] is not None],
    ]
    kinds = [group for group in kinds if group]
    share = -(-n // len(kinds))
    picked = []
    for group in kinds:
        step = max(1.0, len(group) / share)
        picked += [group[int(i * step)] for i in range(min(share, len(group)))]
    return sorted(picked, key=lambda a: a[0]["id"])


def check_answers(store: Path, config, answered, run: Run) -> None:
    """Check a sample of the answers against the brute-force references."""
    import reference
    from eegrag.embedding import HashedTokenEmbedder

    ref = reference.StoreReference(store)
    embedder = HashedTokenEmbedder(config.embedding_dim)
    for q, result in spread_sample(answered, CHECKED_QUERIES):
        if q["recording"] is not None:
            qvec = reference.embed_reference(q["recording"], ref.n_segments, ref.normalized)
        else:
            qvec = ref.rec_values[q["eeg_id"]]
        errors = reference.check_eeg(ref, qvec, config.eeg_top_k, result.eeg_trace)
        errors += reference.check_hyperedges(
            ref, embedder.embed(q["question"]), config.hyperedge_top_k, config.retrieval_layer,
            result.hyperedge_trace,
        )
        errors += reference.check_links(ref, q["question"], result.entity_trace)
        run.record([f"query {q['id']}: {e}" for e in errors])


def replay(store: Path, inp: Path, answered, run: Run) -> float:
    """Ask a sample of the answered questions again in a fresh process, check
    that it answers each the same, and return its peak resident MiB."""
    sample = spread_sample(answered, REPLAYED_QUERIES)
    argv = [sys.executable, str(HERE / "replay.py"), str(store), str(inp), *(q["id"] for q, _ in sample)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=150, check=False)
    if out.returncode != 0:
        raise RuntimeError(f"replay.py exited with {out.returncode}: {out.stderr[-2000:]}")
    replayed = json.loads(out.stdout.splitlines()[-1])
    for q, result in sample:
        got = replayed["answers"].get(q["id"])
        run.record([] if got == result.to_json() else [f"query {q['id']} answered differently in a fresh process"])
    return replayed["rss_mib"]


def answers_digest(answered) -> str:
    """sha256 of the query JSON of every answer, in the order asked."""
    digest = hashlib.sha256()
    for _, result in answered:
        digest.update(result.to_json().encode("utf-8"))
    return digest.hexdigest()


# -- metrics ---------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten samples
    beyond it, or the maximum when there are ten or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def layer_metrics(tracer, query_ids: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans of a traced run."""
    spans, counts = tracer.spans, tracer.counts
    took = defaultdict(lambda: defaultdict(float))  # request -> span name -> seconds
    calls = defaultdict(lambda: defaultdict(int))
    tally = defaultdict(lambda: defaultdict(int))  # request -> count name -> total
    child_s = defaultdict(float)  # span index -> seconds covered by its children
    durations = defaultdict(list)  # span name -> each span's seconds
    for i, (name, start, end, parent, req) in enumerate(spans):
        took[req][name] += end - start
        calls[req][name] += 1
        durations[name].append(end - start)
        if parent >= 0:
            child_s[parent] += end - start
        for key, value in counts.get(i, {}).items():
            tally[req][key] += value

    def per_query(name, scale=1e3):
        return statistics.median(took[q][name] * scale for q in query_ids)

    def per_query_count(key):
        return statistics.median(tally[q][key] for q in query_ids)

    def mean_calls(name):
        return statistics.fmean(calls[q][name] for q in query_ids)

    def total(name):
        return sum(took[q][name] for q in query_ids)

    def phase(prefix, names):
        reqs = [r for r in took if isinstance(r, str) and r.startswith(prefix)]
        return statistics.median(sum(took[r][n] for n in names) for r in reqs)

    def phase_calls(prefix, name):
        reqs = [r for r in took if isinstance(r, str) and r.startswith(prefix)]
        return statistics.median(calls[r][name] for r in reqs)

    asked = set(query_ids)
    roots = [i for i, s in enumerate(spans) if s[0] == "pipeline.run_query" and s[4] in asked]
    run_s = sum(spans[i][2] - spans[i][1] for i in roots)
    coverage = [child_s[i] / (spans[i][2] - spans[i][1]) for i in roots]
    fuse_self = [
        (spans[i][2] - spans[i][1] - child_s[i]) * 1e3
        for i, s in enumerate(spans)
        if s[0] == "fusion.fuse" and s[4] in asked
    ]
    cells = sum(tally[q]["dtw_cells"] for q in query_ids)
    closure = sum(tally[q]["closure_edges"] for q in query_ids)
    m = {
        "trace.query_p50_ms": (statistics.median((spans[i][2] - spans[i][1]) * 1e3 for i in roots), "ms"),
        "trace.coverage": (sum(child_s[i] for i in roots) / run_s, "ratio"),
        "trace.coverage_min": (min(coverage), "ratio"),
        "trace.setup_s": (statistics.median(durations["pipeline.from_directory"]), "s"),
        "eeg.retrieve_ms": (per_query("eeg.retrieve_by_embedding"), "ms"),
        "eeg.retrieve_share": (total("eeg.retrieve_by_embedding") / run_s, "ratio"),
        "eeg.candidates": (per_query_count("candidates"), "count"),
        "eeg.dtw_cells": (per_query_count("dtw_cells"), "count"),
        "eeg.ns_per_cell": (total("eeg.retrieve_by_embedding") * 1e9 / cells if cells else 0.0, "ns"),
        "eeg.embed_ms": (statistics.median(durations["eeg.embed"]) * 1e3, "ms"),
        "eeg.insert_ms": (statistics.median(durations["eeg.insert"]) * 1e3, "ms"),
        "eeg.load_s": (phase("setup:", ["eeg.load"]), "s"),
        "retrieval.hyperedge_scan_ms": (per_query("retrieval.hyperedge_scan"), "ms"),
        "retrieval.hyperedge_scan_share": (total("retrieval.hyperedge_scan") / run_s, "ratio"),
        "retrieval.hyperedges_scanned": (per_query_count("hyperedges_scanned"), "count"),
        "retrieval.link_ms": (per_query("retrieval.link"), "ms"),
        "retrieval.entities_linked": (per_query_count("entities_linked"), "count"),
        "retrieval.expand_ms": (per_query("retrieval.expand"), "ms"),
        "retrieval.expansion_edges": (per_query_count("expansion_edges"), "count"),
        "fusion.fuse_ms": (per_query("fusion.fuse"), "ms"),
        "fusion.fuse_self_ms": (statistics.median(fuse_self), "ms"),
        "fusion.relink_ms": (per_query("fusion.relink"), "ms"),
        "fusion.relink_share": (total("fusion.relink") / run_s, "ratio"),
        "fusion.relink_calls": (mean_calls("fusion.relink"), "count"),
        "fusion.kept_frac": (sum(tally[q]["kept"] for q in query_ids) / closure if closure else 0.0, "ratio"),
        "fusion.truncated_frac": (statistics.fmean(tally[q]["truncated"] for q in query_ids), "ratio"),
        "fusion.render_ms": (per_query("fusion.render"), "ms"),
        "fusion.render_calls": (mean_calls("fusion.render"), "count"),
        "fusion.generate_ms": (per_query("fusion.generate"), "ms"),
        "hypergraph.neighborhood_ms": (per_query("hypergraph.neighborhood"), "ms"),
        "hypergraph.closure_edges": (per_query_count("closure_edges"), "count"),
        "hypergraph.load_s": (phase("setup:", ["hypergraph.load"]), "s"),
        "embedding.embed_calls": (mean_calls("embedding.embed"), "count"),
        "embedding.embed_ms": (per_query("embedding.embed"), "ms"),
        "embedding.ingest_docs_embed_calls": (phase_calls("ingest:docs:", "embedding.embed"), "count"),
        "embedding.ingest_docs_embed_s": (phase("ingest:docs:", ["embedding.embed"]), "s"),
        "embedding.ingest_cases_embed_calls": (phase_calls("ingest:cases:", "embedding.embed"), "count"),
        "embedding.ingest_cases_embed_s": (phase("ingest:cases:", ["embedding.embed"]), "s"),
        "cases.add_record_ms": (statistics.median(durations["cases.add_record"]) * 1e3, "ms"),
        "cases.augment_s": (phase("ingest:cases:", ["cases.augment"]), "s"),
        "cases.link_s": (phase("ingest:cases:", ["cases.link"]), "s"),
        "cases.load_s": (phase("setup:", ["cases.load"]), "s"),
        "knowledge.build_kgh_s": (phase("ingest:docs:", ["knowledge.build_kgh"]), "s"),
        "pipeline.seal_s": (phase("setup:", ["hypergraph.seal", "cases.seal", "eeg.seal"]), "s"),
        "pipeline.save_s": (
            sum(phase(f"ingest:{p}:", ["pipeline.save"]) for p in ("docs", "cases", "eeg")),
            "s",
        ),
    }
    return m


# -- the run -------------------------------------------------------------------------


def machine_facts() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=False,
            )
            commit = out.stdout.strip() or None
    import numpy

    return {
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": dir_digest(SRC / "eegrag"),
    }


def run_workload(
    name: str, seed: int, seconds: float, traced: bool, work: Path, spec=None, trace_dir: Path = HERE / ".traces"
) -> tuple[Run, dict]:
    """One run; ``spec`` overrides the workload's corpus spec (tests use tiny ones)."""
    import corpus
    from eegrag.config import PipelineConfig
    from eegrag.pipeline import Pipeline
    from pace import Paced
    from spans import Tracer, install_engine_spans

    run = Run()
    inp, store = work / "input", work / "store"
    corpus.write_corpus(inp, spec or workloads()[name], seed)
    pool = load_queries(inp)
    expected = expected_store(inp)
    config = PipelineConfig()
    tracer = Tracer() if traced else None
    paced = Paced(in_flight=not traced)
    try:
        if tracer is not None:
            install_engine_spans(tracer)
        ingest = Ingest(inp, work, run, tracer, paced)
        ingest.build(store)
        setups, latencies, answered, loop_s = [], [], [], 0.0  # setups, latencies: (wall, paced)
        queries = iter(pool[:-1])
        pipeline = None
        setup_reps = 1
        for r in range(ROUNDS):
            if r:
                ingest.retime()
            for _ in range(setup_reps):
                gc.collect()
                if tracer is not None:
                    tracer.request_id = f"setup:{len(setups)}"
                loaded, wall, pace_s = paced.time(Pipeline.from_directory, store, config)
                setups.append((wall, pace_s))
                if pipeline is None:
                    pipeline = loaded
                    run.record(check_store(pipeline, expected))
                    if tracer is not None:
                        tracer.request_id = "warmup"
                    ask(pipeline, pool[-1])  # untimed; the loop stops before the last question
                    setup_reps = min(MAX_PHASE_REPS, math.ceil(ROUND_PHASE_S / wall))
                del loaded  # later set-ups load only to be timed
            gc.collect()
            loop_s += query_loop(pipeline, queries, seconds / ROUNDS, run, tracer, paced, latencies, answered)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not answered:
        raise RuntimeError("no query completed")
    check_answers(store, config, answered, run)
    rss_mib = replay(store, inp, answered, run)

    wall_lat = [w for w, _ in latencies]
    paced_lat = [p for _, p in latencies]
    p_tail, pct, n = tail(paced_lat)
    n_cases = count_lines(inp / "cases.jsonl")
    facts = {
        "workload": name,
        "seed": seed,
        "queries": len(latencies),
        "stored_share": sum(q["recording"] is None for q, _ in answered) / len(answered),
        "tail_percentile": pct,
        "tail_n": n,
        "answers_digest": answers_digest(answered),
        "setups": len(setups),
        "pace_block_ms": {
            "median": statistics.median(paced.blocks) * 1e3,
            "min": min(paced.blocks) * 1e3,
            "max": max(paced.blocks) * 1e3,
        },
        "wall_clock": {
            "setup_s": statistics.median(w for w, _ in setups),
            "query_p50_ms": statistics.median(wall_lat) * 1e3,
            "query_tail_ms": tail(wall_lat)[0] * 1e3,
            "queries_per_s": len(latencies) / loop_s,
            "ingest_docs_per_s": ingest.n_docs / ingest.median_s("docs", wall=True),
            "ingest_cases_per_s": n_cases / ingest.median_s("cases", wall=True),
            "ingest_recordings_per_s": expected["recordings"] / ingest.median_s("eeg", wall=True),
        },
        "machine": machine_facts(),
    }
    metrics = {
        "setup_s": (statistics.median(p for _, p in setups), "s"),
        "query_p50_ms": (statistics.median(paced_lat) * 1e3, "ms"),
        "query_tail_ms": (p_tail * 1e3, "ms"),
        "queries_per_s": (len(latencies) / math.fsum(paced_lat), "1/s"),
        "ingest_docs_per_s": (ingest.n_docs / ingest.median_s("docs"), "1/s"),
        "ingest_cases_per_s": (n_cases / ingest.median_s("cases"), "1/s"),
        "ingest_recordings_per_s": (expected["recordings"] / ingest.median_s("eeg"), "1/s"),
        "store_mb": (dir_bytes(store) / 2**20, "MiB"),
        "rss_mb": (rss_mib, "MiB"),
    }
    if tracer is not None:
        metrics = layer_metrics(tracer, [q["id"] for q, _ in answered])
        tracer.write(trace_dir / f"{name}.json", facts)
    return run, {"facts": facts, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["eeg_scan", "kg_text"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    # One thread per numerical library: the host has few cores, and a run
    # measures one client.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (SRC / "eegrag" / "__init__.py").is_file():
        print(f"error: the engine's sources are not at {SRC / 'eegrag'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run, out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = out["facts"]
    print(
        f"{facts['workload']} seed={facts['seed']}: {facts['queries']} queries "
        f"({facts['stored_share']:.0%} by stored recording id), "
        f"{run.failed}/{run.attempted} operations failed"
    )
    for key, (value, unit) in out["metrics"].items():
        note = f"  p{facts['tail_percentile']:.1f} of n={facts['tail_n']}" if key == "query_tail_ms" else ""
        print(f"  {key:<36} {value:>14.6g} {unit}{note}")
    for error in run.errors[:20]:
        print(f"  FAILED: {error}")
    print("facts " + json.dumps(facts, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
