"""Tests for the shared analyzer pipeline."""

import copy
import dataclasses
import pickle
import sys
import threading
from unittest import mock

import pytest

from repro.text import analyzer as analyzer_module
from repro.text.analyzer import Analyzer, default_analyzer, surface_analyzer
from repro.text.tokenizer import token_texts


def _uncached(analyzer: Analyzer, text: str) -> list[str]:
    """``analyze`` without the memo: the per-token kernel over the tokens."""
    terms = map(analyzer.analyze_token, token_texts(text))
    return [term for term in terms if term is not None]


def _small_memo_analyzer(capacity: int) -> Analyzer:
    with mock.patch.object(analyzer_module, "MEMO_CAPACITY", capacity):
        return default_analyzer()


class TestDefaultAnalyzer:
    def test_full_pipeline(self):
        analyzer = default_analyzer()
        assert analyzer.analyze("The outbreaks were spreading!") == [
            "outbreak",
            "spread",
        ]

    def test_stopwords_removed(self):
        assert default_analyzer().analyze("the and of") == []

    def test_case_folded(self):
        analyzer = default_analyzer()
        assert analyzer.analyze("COVID Covid covid") == ["covid"] * 3

    def test_accents_folded(self):
        assert default_analyzer().analyze("café") == ["cafe"]

    def test_hyphenated_terms_survive(self):
        assert "covid-19" in default_analyzer().analyze("the COVID-19 articles")

    def test_offsets_preserved_through_analysis(self):
        text = "The Outbreak Spread."
        analyzer = default_analyzer()
        for analyzed in analyzer.analyze_tokens(text):
            surface = text[analyzed.start : analyzed.end]
            assert surface == analyzed.token.text

    def test_analyze_unique(self):
        terms = default_analyzer().analyze_unique("covid covid outbreak")
        assert terms == {"covid", "outbreak"}

    def test_term_of_single_word(self):
        assert default_analyzer().term_of("Outbreaks") == "outbreak"

    def test_term_of_stopword_is_none(self):
        assert default_analyzer().term_of("the") is None


class TestConfigurations:
    def test_surface_analyzer_keeps_everything(self):
        analyzer = surface_analyzer()
        assert analyzer.analyze("The Outbreaks") == ["the", "outbreaks"]

    def test_no_stemming(self):
        analyzer = Analyzer(stem=False)
        assert analyzer.analyze("outbreaks spreading") == ["outbreaks", "spreading"]

    def test_min_token_length(self):
        analyzer = Analyzer(min_token_length=3, remove_stopwords=False, stem=False)
        assert analyzer.analyze("a of the cat") == ["the", "cat"]

    def test_shared_meaning_of_term(self):
        # The same analyzer must give identical terms for query and document —
        # the consistency the counterfactual algorithms rely on.
        analyzer = default_analyzer()
        query_terms = set(analyzer.analyze("covid outbreak"))
        doc_terms = set(
            analyzer.analyze("The COVID outbreaks are spreading everywhere.")
        )
        assert query_terms <= doc_terms


class TestImmutableConfig:
    """A memo must never outlive the config it was computed under."""

    def test_assigning_a_field_raises(self):
        analyzer = default_analyzer()
        analyzer.analyze("outbreaks")
        with pytest.raises(dataclasses.FrozenInstanceError):
            analyzer.stem = False
        assert analyzer.analyze("outbreaks") == ["outbreak"]

    def test_replace_starts_with_a_fresh_memo(self):
        analyzer = default_analyzer()
        assert analyzer.analyze("outbreaks spreading") == ["outbreak", "spread"]
        unstemmed = dataclasses.replace(analyzer, stem=False)
        assert unstemmed.memo is not analyzer.memo
        assert unstemmed.memo.stats()["entries"] == 0
        assert unstemmed.analyze("outbreaks spreading") == [
            "outbreaks",
            "spreading",
        ]

    def test_config_is_unchanged_by_the_memo(self):
        assert Analyzer().to_config() == {
            "lowercase": True,
            "remove_stopwords": True,
            "stem": True,
            "min_token_length": 1,
        }

    def test_copies_start_with_an_empty_memo(self):
        analyzer = surface_analyzer()
        analyzer.analyze("The Outbreaks")
        for clone in (copy.deepcopy(analyzer), pickle.loads(pickle.dumps(analyzer))):
            assert clone.to_config() == analyzer.to_config()
            assert clone.memo.stats()["entries"] == 0
            assert clone.analyze("The Outbreaks") == ["the", "outbreaks"]


class TestTokenMemo:
    def test_counts_each_token_lookup(self):
        analyzer = default_analyzer()
        analyzer.analyze("covid covid outbreak the")
        stats = analyzer.memo.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 3, 3)
        analyzer.analyze_tokens("the covid")
        analyzer.term_of("outbreak")
        stats = analyzer.memo.stats()
        assert (stats["hits"], stats["misses"], stats["entries"]) == (4, 3, 3)

    def test_full_memo_evicts_its_oldest_half(self):
        analyzer = _small_memo_analyzer(4)
        words = [f"word{i}" for i in range(10)]
        assert analyzer.analyze(" ".join(words)) == words
        stats = analyzer.memo.stats()
        assert stats["capacity"] == 4
        assert stats["entries"] <= 4
        assert stats["evictions"] == 10 - stats["entries"]
        assert list(analyzer.memo.entries) == words[-stats["entries"]:]
        assert analyzer.analyze("word0 word9") == ["word0", "word9"]

    def test_concurrent_analysis_with_evictions_is_exact(self):
        analyzer = _small_memo_analyzer(16)
        texts = [
            " ".join(f"tok{(i * 7 + j) % 97}s The" for j in range(30))
            for i in range(24)
        ]
        expected = [_uncached(default_analyzer(), text) for text in texts]
        workers, rounds = 4, 10
        barrier = threading.Barrier(workers, timeout=30)
        results: dict[int, list] = {}
        errors: list[Exception] = []

        def run(worker: int) -> None:
            try:
                barrier.wait()
                order = texts[worker:] + texts[:worker]
                results[worker] = [
                    (analyzer.analyze(text), analyzer.analyze_tokens(text))
                    for _ in range(rounds)
                    for text in order
                ]
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=run, args=(worker,))
                for worker in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(results) == workers
        for worker, pairs in results.items():
            order = expected[worker:] + expected[:worker]
            for position, (terms, analyzed) in enumerate(pairs):
                want = order[position % len(order)]
                assert terms == want
                assert [token.term for token in analyzed] == want
        stats = analyzer.memo.stats()
        assert stats["evictions"] > 0
        assert stats["entries"] <= stats["capacity"]
        # Every token lookup was counted once: no lost counter update.
        lookups = 2 * workers * rounds * sum(len(token_texts(t)) for t in texts)
        assert stats["hits"] + stats["misses"] == lookups
