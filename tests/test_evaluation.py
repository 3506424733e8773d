import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegrag.errors import NotFoundError, PreconditionError
from eegrag.evaluation import (
    QaExample,
    bootstrap_std,
    exact_match,
    f1,
    load_qa,
    normalize_answer,
    run_benchmark,
)


class TestNormalize:
    def test_lowercase_punct_articles(self):
        assert normalize_answer("The Mild Depression.") == ["mild", "depression"]

    def test_empty(self):
        assert normalize_answer("") == []

    def test_articles_only(self):
        assert normalize_answer("a  A   the") == []

    def test_punctuation_removed_inside_tokens(self):
        assert normalize_answer("spike-wave!") == ["spikewave"]


class TestExactMatch:
    def test_normalized_equivalence(self):
        assert exact_match("mild depression", "The Mild Depression.") == 1

    def test_mismatch(self):
        assert exact_match("depression", "epilepsy") == 0

    def test_both_empty(self):
        assert exact_match("", "") == 1


class TestF1:
    def test_hand_computed_overlap(self):
        # overlap {depression}: P = R = 0.5 -> F1 = 0.5
        assert f1("mild depression", "moderate depression") == pytest.approx(0.5)

    def test_identical(self):
        assert f1("temporal lobe epilepsy", "temporal lobe epilepsy") == 1.0

    def test_disjoint(self):
        assert f1("alpha", "beta") == 0.0

    def test_empty_conventions(self):
        assert f1("", "") == 1.0
        assert f1("a the", "") == 1.0  # both normalize to empty
        assert f1("something", "") == 0.0
        assert f1("", "something") == 0.0

    def test_multiset_overlap_counts_duplicates(self):
        # pred has one "spike", gold has two: overlap 1, P = 1/1, R = 1/2
        assert f1("spike", "spike spike") == pytest.approx(2 * 1.0 * 0.5 / 1.5)

    @given(st.text(max_size=30), st.text(max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_symmetric_exactly(self, a, b):
        # overlap is symmetric and the harmonic mean commutes, so this
        # holds to the last bit, not just approximately
        assert f1(a, b) == f1(b, a)

    @given(st.text(max_size=30), st.text(max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_em_implies_f1_one(self, a, b):
        if exact_match(a, b) == 1:
            assert f1(a, b) == 1.0

    @given(st.text(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, a):
        assert 0.0 <= f1(a, "reference answer text") <= 1.0


class TestBootstrap:
    def test_matches_independent_resampling_oracle(self):
        rng = np.random.default_rng(99)
        values = np.sort(rng.uniform(0, 100, size=10))
        got = bootstrap_std(values, resamples=1000, seed=7)

        # independent oracle: same documented procedure, re-implemented
        oracle_rng = np.random.default_rng(7)
        means = []
        idx = oracle_rng.integers(0, len(values), size=(1000, len(values)))
        for row in idx:
            means.append(sum(values[i] for i in row) / len(values))
        means = np.asarray(means)
        expected = float(np.sqrt(np.mean((means - means.mean()) ** 2)))
        assert got == pytest.approx(expected, abs=1e-9)

    def test_reproducible(self):
        values = [1.0, 2.0, 5.0, 9.0]
        assert bootstrap_std(values, 500, 3) == bootstrap_std(values, 500, 3)
        assert bootstrap_std(values, 500, 3) != bootstrap_std(values, 500, 4)

    def test_constant_sample_has_zero_std(self):
        assert bootstrap_std([42.0] * 8, 100, 1) == 0.0

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            bootstrap_std([], 10, 0)
        with pytest.raises(PreconditionError):
            bootstrap_std([1.0], 0, 0)


class EchoPipeline:
    """Benchmark stand-in that answers from a fixed mapping."""

    def __init__(self, answers: dict[str, str], known_refs=()):
        self.answers = answers
        self.known_refs = set(known_refs)

    def answer_example(self, question, role, domain, eeg_ref):
        if eeg_ref is not None and eeg_ref not in self.known_refs:
            raise NotFoundError(f"unknown recording id {eeg_ref!r}")
        return self.answers.get(question, "no idea")


def example(i: str, domain="d", role="r", question=None, gold="gold", eeg_ref=None):
    return QaExample(
        id=i, domain=domain, role=role, question=question or f"q-{i}", gold=gold, eeg_ref=eeg_ref
    )


class TestRunBenchmark:
    def test_echo_gold_scores_hundred(self):
        dataset = [example("1", question="q1", gold="exact words"), example("2", question="q2", gold="more words")]
        pipeline = EchoPipeline({"q1": "exact words", "q2": "more words"})
        report = run_benchmark(dataset, pipeline, resamples=0, seed=0)
        assert report.overall.em == 100.0
        assert report.overall.f1 == 100.0

    def test_half_scores_average_to_fifty(self):
        dataset = [example("1", question="q1", gold="right"), example("2", question="q2", gold="right")]
        pipeline = EchoPipeline({"q1": "right", "q2": "wrong"})
        report = run_benchmark(dataset, pipeline, resamples=0, seed=0)
        assert report.overall.em == 50.0

    def test_missing_eeg_ref_marks_errored(self):
        dataset = [
            example("1", question="q1", gold="right", eeg_ref="missing-rec"),
            example("2", question="q2", gold="right"),
        ]
        pipeline = EchoPipeline({"q1": "right", "q2": "right"})
        report = run_benchmark(dataset, pipeline, resamples=0, seed=0)
        assert report.errored == 1
        assert report.overall.n == 1
        assert report.overall.em == 100.0
        errored = [r for r in report.examples if r.error]
        assert len(errored) == 1 and errored[0].id == "1"

    def test_aggregates_permutation_invariant(self):
        dataset = [
            example("1", domain="a", role="x", question="q1", gold="one two"),
            example("2", domain="a", role="y", question="q2", gold="three"),
            example("3", domain="b", role="x", question="q3", gold="four"),
        ]
        pipeline = EchoPipeline({"q1": "one two", "q2": "nope", "q3": "four"})
        fwd = run_benchmark(dataset, pipeline, resamples=200, seed=11)
        rev = run_benchmark(list(reversed(dataset)), pipeline, resamples=200, seed=11)
        assert fwd.to_json().split('"examples"')[0] == rev.to_json().split('"examples"')[0]
        assert fwd.domains == rev.domains
        assert fwd.roles == rev.roles

    def test_report_json_deterministic(self):
        dataset = [example("1", question="q1", gold="g")]
        pipeline = EchoPipeline({"q1": "g"})
        a = run_benchmark(dataset, pipeline, resamples=100, seed=5).to_json()
        b = run_benchmark(dataset, pipeline, resamples=100, seed=5).to_json()
        assert a.encode() == b.encode()
        payload = json.loads(a)
        assert payload["overall"]["em"] == 100.0

    def test_table_contains_groups(self):
        dataset = [
            example("1", domain="epilepsy", role="doctor", question="q1", gold="g"),
            example("2", domain="sleep", role="nurse", question="q2", gold="g"),
        ]
        pipeline = EchoPipeline({"q1": "g", "q2": "x"})
        table = run_benchmark(dataset, pipeline, resamples=50, seed=1).format_table()
        for token in ("epilepsy", "sleep", "Overall", "doctor", "nurse", "F1", "EM"):
            assert token in table

    def test_empty_dataset_rejected(self):
        with pytest.raises(PreconditionError):
            run_benchmark([], EchoPipeline({}), 0, 0)


class TestLoadQa:
    def test_reads_fixture_dataset(self, corpus_dir):
        examples = load_qa(corpus_dir / "qa.jsonl")
        assert len(examples) == 12
        assert {e.domain for e in examples} >= {"epilepsy", "depression", "sleep"}
        assert any(e.eeg_ref for e in examples)

    def test_line_numbers_on_bad_rows(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        path.write_text('{"id": "1", "question": "q", "gold": "g"}\n{"id": "2"}\n')
        with pytest.raises(PreconditionError, match="line 2"):
            load_qa(path)

    @pytest.mark.parametrize("question", ["", " \t\n"])
    def test_blank_question_rejected(self, question):
        with pytest.raises(PreconditionError, match="example '1' has an empty question"):
            QaExample(id="1", domain="d", role="r", question=question, gold="g")

    def test_empty_gold_rejected(self):
        with pytest.raises(PreconditionError):
            QaExample(id="1", domain="d", role="r", question="q", gold="  ")
