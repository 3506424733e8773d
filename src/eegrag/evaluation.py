"""Answer metrics (EM, token F1), aggregation, and the benchmark runner.

Normalization follows the standard extractive-QA scheme: lowercase, strip
punctuation, drop the articles a/an/the, collapse whitespace. F1 is
computed over token multisets. Aggregate dispersion is a seeded
nonparametric bootstrap standard deviation, labeled as such in reports.
"""

from __future__ import annotations

import json
import string
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NotFoundError, PreconditionError
from .hashing import fnv1a64_text
from .jsonl import read_jsonl, str_field

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)
_ARTICLES = {"a", "an", "the"}


def normalize_answer(text: str) -> list[str]:
    """Lowercase, strip punctuation, drop articles, split on whitespace."""
    stripped = text.lower().translate(_PUNCT_TABLE)
    return [tok for tok in stripped.split() if tok not in _ARTICLES]


def exact_match(pred: str, gold: str) -> int:
    """1 iff the normalized token lists are identical."""
    return int(normalize_answer(pred) == normalize_answer(gold))


def f1(pred: str, gold: str) -> float:
    """Token-multiset F1 in [0, 1]; both empty -> 1, exactly one empty -> 0."""
    pred_tokens = normalize_answer(pred)
    gold_tokens = normalize_answer(gold)
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    overlap = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def bootstrap_std(values, resamples: int, seed: int) -> float:
    """Seeded bootstrap standard deviation of the mean.

    Procedure (fixed, so results are reproducible and independently
    checkable): draw a ``(resamples, n)`` index matrix in one call from
    ``numpy.random.default_rng(seed).integers(0, n, ...)``, average the
    resampled values per row, and return the population std (ddof=0) of the
    resample means.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise PreconditionError("bootstrap over an empty sample")
    if resamples < 1:
        raise PreconditionError("resamples must be >= 1")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(resamples, arr.size))
    means = arr[idx].mean(axis=1)
    return float(means.std())


def group_seed(base_seed: int, kind: str, label: str) -> int:
    """Per-group bootstrap seed, stable under group iteration order."""
    return base_seed ^ fnv1a64_text(f"{kind}:{label}")


@dataclass
class QaExample:
    """One benchmark question: string fields, non-blank ``question`` and ``gold``, an optional ``eeg_ref``."""

    id: str
    domain: str
    role: str
    question: str
    gold: str
    eeg_ref: str | None = None

    def __post_init__(self):
        for name in ("id", "domain", "role", "question", "gold"):
            str_field(getattr(self, name), name)
        str_field(self.eeg_ref, "eeg_ref", optional=True)
        if not self.question.strip():
            raise PreconditionError(f"example {self.id!r} has an empty question")
        if not self.gold.strip():
            raise PreconditionError(f"example {self.id!r} has an empty gold answer")


def load_qa(path: str | Path) -> list[QaExample]:
    """Read ``qa.jsonl``: id, domain, role, question, eeg_ref?, gold."""

    def example(r: dict) -> QaExample:
        return QaExample(r["id"], r.get("domain", ""), r.get("role", ""), r["question"], r["gold"], r.get("eeg_ref"))

    return read_jsonl(path, example)


@dataclass
class ExampleResult:
    id: str
    domain: str
    role: str
    prediction: str
    em: float  # 0 or 100
    f1: float  # 0..100
    error: str | None = None


@dataclass
class Aggregate:
    n: int
    em: float
    f1: float
    em_std: float | None = None
    f1_std: float | None = None


@dataclass
class EvalReport:
    examples: list[ExampleResult] = field(default_factory=list)
    domains: dict[str, Aggregate] = field(default_factory=dict)
    roles: dict[str, Aggregate] = field(default_factory=dict)
    overall: Aggregate | None = None
    errored: int = 0
    resamples: int = 0
    seed: int = 0

    def to_json(self) -> str:
        payload = {
            "overall": None if self.overall is None else vars(self.overall),
            "domains": {k: vars(v) for k, v in sorted(self.domains.items())},
            "roles": {k: vars(v) for k, v in sorted(self.roles.items())},
            "examples": [vars(e) for e in self.examples],
            "errored": self.errored,
            "bootstrap_resamples": self.resamples,
            "seed": self.seed,
        }
        return json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n"

    def format_table(self) -> str:
        """Aligned-column table: F1/EM pairs per domain plus Overall, then roles."""
        if self.overall is None:
            return f"no scored examples ({self.errored} errored)"
        out = [_format_block("Domain", self.domains, self.overall)]
        if self.roles:
            out.append("")
            out.append(_format_block("Role", self.roles, self.overall))
        if self.errored:
            out.append("")
            out.append(f"errored examples excluded from aggregates: {self.errored}")
        return "\n".join(out)


def _format_block(kind: str, groups: dict[str, Aggregate], overall: Aggregate | None) -> str:
    labels = sorted(groups) + ["Overall"]
    aggs = [groups[k] for k in sorted(groups)] + [overall]
    widths = [max(len(label), 15) for label in labels]

    def cells(fn) -> list[str]:
        return [fn(agg).rjust(w) for agg, w in zip(aggs, widths)]

    header = " | ".join(label.rjust(w) for label, w in zip(labels, widths))
    sub = " | ".join("F1      EM".rjust(w) for w in widths)
    values = " | ".join(cells(lambda a: f"{a.f1:6.2f}  {a.em:6.2f}"))
    lines = [f"{kind:<10} | {header}", f"{'':<10} | {sub}", f"{'scores':<10} | {values}"]
    if aggs and aggs[0] is not None and aggs[0].f1_std is not None:
        stds = " | ".join(cells(lambda a: f"±{a.f1_std:5.2f}  ±{a.em_std:5.2f}"))
        lines.append(f"{'Δ (boot)':<10} | {stds}")
    return "\n".join(lines)


def _aggregate(results: list[ExampleResult], resamples: int, seed: int, kind: str, label: str) -> Aggregate:
    f1_scores = sorted(r.f1 for r in results)
    em_scores = sorted(r.em for r in results)
    agg = Aggregate(
        n=len(results),
        em=float(np.mean(em_scores)),
        f1=float(np.mean(f1_scores)),
    )
    if resamples > 0:
        agg.em_std = bootstrap_std(em_scores, resamples, group_seed(seed, kind + ":em", label))
        agg.f1_std = bootstrap_std(f1_scores, resamples, group_seed(seed, kind + ":f1", label))
    return agg


def run_benchmark(dataset: list[QaExample], pipeline, resamples: int, seed: int) -> EvalReport:
    """Run the full pipeline on every example and aggregate EM/F1.

    ``pipeline`` is any object exposing ``answer_example(question, role,
    domain, eeg_ref)`` returning the prediction string and raising
    ``NotFoundError`` for unresolvable EEG references; such examples are
    marked errored and excluded from aggregates.

    Score std per aggregate is a seeded bootstrap; group scores are sorted
    and each group derives its own seed, so results do not depend on the
    dataset order or on which groups exist.
    """
    if not dataset:
        raise PreconditionError("benchmark dataset must be non-empty")
    report = EvalReport(resamples=resamples, seed=seed)
    for example in dataset:
        try:
            prediction = pipeline.answer_example(
                example.question, example.role, example.domain, example.eeg_ref
            )
        except NotFoundError as exc:
            report.examples.append(
                ExampleResult(example.id, example.domain, example.role, "", 0.0, 0.0, str(exc))
            )
            report.errored += 1
            continue
        report.examples.append(
            ExampleResult(
                example.id,
                example.domain,
                example.role,
                prediction,
                em=100.0 * exact_match(prediction, example.gold),
                f1=100.0 * f1(prediction, example.gold),
            )
        )

    scored = [r for r in report.examples if r.error is None]
    if scored:
        report.overall = _aggregate(scored, resamples, seed, "overall", "overall")
        for domain in sorted({r.domain for r in scored}):
            group = [r for r in scored if r.domain == domain]
            report.domains[domain] = _aggregate(group, resamples, seed, "domain", domain)
        for role in sorted({r.role for r in scored}):
            group = [r for r in scored if r.role == role]
            report.roles[role] = _aggregate(group, resamples, seed, "role", role)
    return report
