"""Answer some of a run's questions in a fresh process.

    python3 perfbench/replay.py STORE_DIR CORPUS_DIR QUESTION_ID...

Loads the store with ``Pipeline.from_directory``, asks the named questions
of ``CORPUS_DIR/queries.jsonl`` in the order of the pool, and prints one
JSON object: the peak resident memory of this process in MiB and the query
JSON of each answer (or the exception it raised). ``run.py`` starts it after
the timed rounds, so that the memory figure covers only loading the store and
answering questions, and so that every answer it gives can be compared with
the one the benchmark's own pipeline gave.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

import run as bench


def main(argv: list[str]) -> int:
    store, inp, ids = Path(argv[0]), Path(argv[1]), set(argv[2:])
    sys.path.insert(0, str(bench.SRC))
    from eegrag.config import PipelineConfig
    from eegrag.pipeline import Pipeline

    pipeline = Pipeline.from_directory(store, PipelineConfig())
    answers = {}
    for q in bench.load_queries(inp, ids):
        try:
            answers[q["id"]] = bench.ask(pipeline, q).to_json()
        except Exception as exc:  # reported to the parent, which counts it as failed
            answers[q["id"]] = f"raised {exc!r}"
    print(json.dumps({"rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "answers": answers}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
