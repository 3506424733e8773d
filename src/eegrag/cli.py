"""Command-line interface: offline ingestion, querying, benchmarking, serving.

Subcommands: ingest-docs, ingest-cases, ingest-eeg, query, bench, serve.
Ingestion is offline and single-writer; query/bench/serve operate on the
resulting store directory read-only.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from .cases import CaseStore, augment_pseudo_cases, embed_case, load_records
from .config import PipelineConfig
from .eeg import EegVectorDatabase, load_recording
from .embedding import Embedder, HashedTokenEmbedder
from .errors import EegragError, PreconditionError
from .evaluation import load_qa, run_benchmark
from .hypergraph import CASE_LAYER, BipartiteStore
from .knowledge import RuleBasedExtractor, build_kgh, load_documents, load_fact_sidecar
from .pipeline import Pipeline, save_stores
from .retrieval import find_entity_mentions


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    config = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise PreconditionError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key] = value
    if overrides:
        config.apply(overrides)
    return config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", required=True, help="store directory")
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help="override one config key"
    )


def link_case_layer(
    store: BipartiteStore,
    case_store: CaseStore,
    embedder: Embedder,
    vectors: Mapping[str, np.ndarray] | None = None,
) -> int:
    """Rebuild the case layer: one edge per case over the entities its
    attribute tuple mentions, if any, carrying the case's ``embed_case``
    vector (from ``vectors`` by case hash when it is there). Every ingest
    that changes the cases or the entities calls this, so the links never
    depend on ingest order. Returns the layer's edge count."""
    store.drop_layer(CASE_LAYER)
    vectors = vectors or {}
    rows = []
    for h in sorted(case_store.cases):
        case = case_store.cases[h]
        members = {m.entity_id for m in find_entity_mentions(case.canonical, store)}
        if members:
            vector = vectors[h] if h in vectors else embed_case(h, case.canonical, embedder)
            rows.append((case.canonical, members, vector, CASE_LAYER))
    before = len(store.hyperedges)
    store.add_hyperedges(rows)
    return len(store.hyperedges) - before


def cmd_ingest_docs(args: argparse.Namespace) -> int:
    config = _load_config(args)
    store = BipartiteStore.load(args.store, config.embedding_dim)
    case_store = CaseStore.load(args.store)
    if args.facts:
        sidecar = load_fact_sidecar(args.facts)
    else:
        default = Path(args.input).with_suffix(".facts.jsonl")
        sidecar = load_fact_sidecar(default) if default.exists() else None
    extractor = RuleBasedExtractor(sidecar)
    embedder = HashedTokenEmbedder(config.embedding_dim)
    docs = load_documents(args.input)
    report = build_kgh(docs, extractor, embedder, store)
    link_case_layer(store, case_store, embedder)
    save_stores(args.store, store=store)
    print(json.dumps(vars(report), sort_keys=True, indent=2))
    return 0


def cmd_ingest_cases(args: argparse.Namespace) -> int:
    config = _load_config(args)
    # the case layer is rebuilt from the entities alone: the knowledge
    # layer's file is neither read nor rewritten
    store = BipartiteStore.load(args.store, config.embedding_dim, layers=(CASE_LAYER,))
    case_store = CaseStore.load(args.store)
    embedder = HashedTokenEmbedder(config.embedding_dim)
    records = load_records(args.input)
    before = len(case_store)
    for record in records:
        case_store.add_record(record)
    added = len(case_store) - before

    # each real case is embedded once, for its donor search and its link;
    # link_case_layer embeds only the pseudo-cases
    vectors = {c.h: embed_case(c.h, c.canonical, embedder) for c in case_store.real_cases()}
    fills = len(augment_pseudo_cases(case_store, embedder, tau=config.pseudo_tau, vectors=vectors))
    linked = link_case_layer(store, case_store, embedder, vectors)
    save_stores(args.store, store=store, case_store=case_store)
    print(
        json.dumps(
            {
                "cases_added": added,
                "cases_merged": len(records) - added,
                "pseudo_cases_created": fills,
                "case_hyperedges_linked": linked,
            },
            sort_keys=True,
            indent=2,
        )
    )
    return 0


def cmd_ingest_eeg(args: argparse.Namespace) -> int:
    config = _load_config(args)
    evd = EegVectorDatabase.load(args.store, config.paa_segments)
    input_path = Path(args.input)
    if input_path.is_dir():
        files = sorted(input_path.glob("*.json"))
    else:
        files = [input_path]
    inserted = skipped = 0
    for path in files:
        rec = load_recording(path)
        if rec.id in evd.entries:
            skipped += 1
            continue
        try:
            evd.insert_recording(rec)
        except EegragError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
        inserted += 1
    save_stores(args.store, evd=evd)
    print(json.dumps({"recordings_inserted": inserted, "recordings_skipped": skipped}, sort_keys=True, indent=2))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    config = _load_config(args)
    pipeline = Pipeline.from_directory(args.store, config)
    recording = load_recording(args.eeg) if args.eeg else None
    result = pipeline.run_query(
        args.question,
        role=args.role,
        domain=args.domain,
        eeg_recording=recording,
        eeg_recording_id=args.eeg_id,
    )
    sys.stdout.write(result.to_json())
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    config = _load_config(args)
    pipeline = Pipeline.from_directory(args.store, config)
    dataset = load_qa(args.dataset)
    report = run_benchmark(dataset, pipeline, config.bootstrap_resamples, config.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
    table = report.format_table()
    (out_dir / "report.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    if report.errored:
        print(f"note: {report.errored} example(s) errored", file=sys.stderr)
    return 1 if report.errored == len(dataset) else 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .server import serve

    host, _, port = args.bind.rpartition(":")
    if not (port.isascii() and port.isdigit() and int(port) <= 65535):
        raise PreconditionError(f"--bind expects host:port, port 0-65535; got {args.bind!r}")
    config = _load_config(args)
    pipeline = Pipeline.from_directory(args.store, config)
    serve(pipeline, host or "127.0.0.1", int(port))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegrag",
        description="Three-layer hypergraph retrieval engine for EEG clinical QA",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-docs", help="build the knowledge layer from docs.jsonl")
    p.add_argument("input", help="docs.jsonl")
    p.add_argument("--facts", help="curated fact sidecar (doc_id, description, entities)")
    _add_common(p)
    p.set_defaults(func=cmd_ingest_docs)

    p = sub.add_parser("ingest-cases", help="build the case layer from cases.jsonl")
    p.add_argument("input", help="cases.jsonl")
    _add_common(p)
    p.set_defaults(func=cmd_ingest_cases)

    p = sub.add_parser("ingest-eeg", help="build the EEG vector database from recording JSON")
    p.add_argument("input", help="a recording .json file or a directory of them")
    _add_common(p)
    p.set_defaults(func=cmd_ingest_eeg)

    p = sub.add_parser("query", help="answer one question against the sealed stores")
    p.add_argument("question")
    p.add_argument("--role", help="clinical role tag (doctor/patient/researcher/intern/nurse)")
    p.add_argument("--domain", help="disorder tag")
    eeg = p.add_mutually_exclusive_group()
    eeg.add_argument("--eeg", help="query EEG recording JSON file")
    eeg.add_argument("--eeg-id", help="id of a stored recording to use as the query signal")
    _add_common(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("bench", help="run the QA benchmark and write report files")
    p.add_argument("dataset", help="qa.jsonl")
    p.add_argument("--out", required=True, help="output directory for report.json/report.txt")
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("serve", help="serve the read-only HTTP query endpoint")
    p.add_argument("--bind", default="127.0.0.1:8080", help="host:port")
    _add_common(p)
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, EegragError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
