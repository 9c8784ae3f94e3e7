"""Tests for the explainer registry: registration, lookup, availability,
and per-engine memoization."""

import pytest

from repro.core.engine import CredenceEngine, EngineConfig
from repro.core.explain import ExplainRequest
from repro.core.registry import (
    DEFAULT_REGISTRY,
    ExplainerRegistry,
    available_strategies,
)
from repro.core.types import ExplanationSet
from repro.errors import (
    ConfigurationError,
    StrategyUnavailableError,
    UnknownStrategyError,
)

EXPECTED_BUILTINS = {
    "document/sentence-removal",
    "document/greedy",
    "query/augmentation",
    "instance/doc2vec",
    "instance/cosine",
    "features/ltr",
}


class _NullExplainer:
    strategy = "test/null"

    def explain(self, request: ExplainRequest) -> ExplanationSet:
        return ExplanationSet()


class TestDefaultRegistry:
    def test_builtin_names(self):
        assert EXPECTED_BUILTINS <= set(DEFAULT_REGISTRY.names())

    def test_names_sorted(self):
        names = DEFAULT_REGISTRY.names()
        assert list(names) == sorted(names)

    def test_resolve_is_a_plain_lookup(self):
        assert DEFAULT_REGISTRY.resolve("instance/doc2vec").name == "instance/doc2vec"
        with pytest.raises(UnknownStrategyError):
            DEFAULT_REGISTRY.resolve("doc2vec_nearest")

    def test_resolve_unknown_raises_with_known_list(self):
        with pytest.raises(UnknownStrategyError) as excinfo:
            DEFAULT_REGISTRY.resolve("document/nope")
        assert excinfo.value.strategy == "document/nope"
        assert "document/sentence-removal" in excinfo.value.known

    def test_module_level_helper(self):
        assert set(available_strategies()) == set(DEFAULT_REGISTRY.names())

    def test_describe_without_engine(self):
        records = DEFAULT_REGISTRY.describe()
        assert {record["name"] for record in records} >= EXPECTED_BUILTINS
        assert all("available" not in record for record in records)

    def test_describe_with_engine_flags_unavailable(self, bm25_engine):
        records = {
            record["name"]: record
            for record in DEFAULT_REGISTRY.describe(bm25_engine)
        }
        assert records["document/sentence-removal"]["available"] is True
        assert records["features/ltr"]["available"] is False
        assert "unavailable_reason" in records["features/ltr"]


class TestCustomRegistry:
    def test_register_and_get(self, bm25_engine):
        registry = ExplainerRegistry()

        @registry.register("test/null", description="does nothing")
        def _build(engine):
            return _NullExplainer()

        assert registry.names() == ("test/null",)
        explainer = registry.get(bm25_engine, "test/null")
        assert explainer.strategy == "test/null"

    def test_duplicate_registration_rejected(self):
        registry = ExplainerRegistry()
        registry.register("test/null")(lambda engine: _NullExplainer())
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("test/null")(lambda engine: _NullExplainer())

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            ExplainerRegistry().register("  ")

    def test_factory_called_once_per_engine(self, bm25_engine):
        registry = ExplainerRegistry()
        calls = []

        @registry.register("test/null")
        def _build(engine):
            calls.append(engine)
            return _NullExplainer()

        first = registry.get(bm25_engine, "test/null")
        second = registry.get(bm25_engine, "test/null")
        assert first is second
        assert len(calls) == 1

    def test_batch_builds_each_explainer_once(self, covid_documents):
        registry = ExplainerRegistry()
        builds, explains = [], []

        class _CountingExplainer(_NullExplainer):
            def explain(self, request):
                explains.append(request)
                return super().explain(request)

        def factory(name):
            def build(engine):
                builds.append(name)
                return _CountingExplainer()

            return build

        for name in ("test/a", "test/b"):
            registry.register(name)(factory(name))
        engine = CredenceEngine(
            covid_documents,
            EngineConfig(ranker="bm25", seed=5),
            registry=registry,
        )
        requests = [
            ExplainRequest("covid outbreak", "anything", strategy=name)
            for name in ("test/a", "test/b") * 3
        ]
        responses = engine.explain_batch(requests)
        assert all(response.ok for response in responses)
        assert explains == requests
        assert sorted(builds) == ["test/a", "test/b"]

    def test_distinct_engines_get_distinct_instances(self, covid_documents):
        registry = ExplainerRegistry()
        registry.register("test/null")(lambda engine: _NullExplainer())
        engine_a = CredenceEngine(
            covid_documents, EngineConfig(ranker="bm25", seed=5)
        )
        engine_b = CredenceEngine(
            covid_documents, EngineConfig(ranker="bm25", seed=5)
        )
        assert registry.get(engine_a, "test/null") is not registry.get(
            engine_b, "test/null"
        )

    def test_availability_predicate_gates_get(self, bm25_engine):
        registry = ExplainerRegistry()
        registry.register("test/never", available=lambda engine: "not today")(
            lambda engine: _NullExplainer()
        )
        assert registry.available_strategies(bm25_engine) == ()
        assert registry.available_strategies() == ("test/never",)
        with pytest.raises(StrategyUnavailableError, match="not today"):
            registry.get(bm25_engine, "test/never")

    def test_engine_uses_injected_registry(self, covid_documents):
        registry = ExplainerRegistry()
        registry.register("test/null")(lambda engine: _NullExplainer())
        engine = CredenceEngine(
            covid_documents,
            EngineConfig(ranker="bm25", seed=5),
            registry=registry,
        )
        assert engine.available_strategies() == ("test/null",)
        response = engine.explain(
            ExplainRequest("covid outbreak", "anything", strategy="test/null")
        )
        assert response.ok and len(response) == 0


class TestNoEngineRetention:
    def test_memoised_explainers_do_not_pin_the_engine(self, covid_documents):
        import gc
        import weakref

        engine = CredenceEngine(
            covid_documents, EngineConfig(ranker="bm25", seed=5)
        )
        # Strategies whose explainers live on the engine are the risky
        # ones: a factory closure capturing the engine would make the
        # registry's weak-keyed cache hold its own key alive.
        for strategy in (
            "document/sentence-removal",
            "document/greedy",
            "query/augmentation",
        ):
            DEFAULT_REGISTRY.get(engine, strategy)
        ref = weakref.ref(engine)
        del engine
        gc.collect()
        assert ref() is None


def _serve_one_request(documents, strategy: str):
    """Weak references to an engine and its index after it served one
    ``strategy`` request and was dropped."""
    import weakref

    from repro.datasets.covid import DEMO_QUERY, FAKE_NEWS_DOC_ID

    engine = CredenceEngine(
        documents, EngineConfig(ranker="bm25", seed=5, doc2vec_epochs=2)
    )
    engine.explain(
        ExplainRequest(DEMO_QUERY, FAKE_NEWS_DOC_ID, strategy=strategy, samples=20)
    )
    return weakref.ref(engine), weakref.ref(engine.index)


class TestEngineRelease:
    def test_doc2vec_explainer_does_not_pin_the_engine(self, covid_documents):
        import gc

        engine, index = _serve_one_request(covid_documents, "instance/doc2vec")
        gc.collect()
        assert engine() is None and index() is None

    @pytest.mark.parametrize(
        "strategy",
        sorted(EXPECTED_BUILTINS - {"features/ltr"}),
    )
    def test_a_dropped_engine_frees_its_index_without_the_collector(
        self, covid_documents, strategy
    ):
        # No memo may reference its owner: with the cycle collector off,
        # reference counting alone must free what one request built.
        import gc

        gc.collect()
        gc.disable()
        try:
            engine, index = _serve_one_request(covid_documents, strategy)
            assert engine() is None and index() is None
        finally:
            gc.enable()


class TestLtrAvailability:
    @pytest.fixture(scope="class")
    def ltr_engine(self):
        from repro.datasets.synthetic import synthetic_corpus
        from repro.index.inverted import InvertedIndex
        from repro.ltr.dataset import assign_priors, synthetic_letor_dataset
        from repro.ltr.models import LinearLtrModel
        from repro.ltr.ranker import LtrRanker

        corpus = assign_priors(synthetic_corpus(size=60, seed=3), seed=7)
        examples = synthetic_letor_dataset(
            corpus,
            ["virus hospital patients", "markets stocks investors"],
            seed=11,
        )
        ranker = LtrRanker(
            InvertedIndex.from_documents(corpus), LinearLtrModel.fit(examples)
        )
        return CredenceEngine(corpus, ranker=ranker)

    def test_ltr_strategy_available(self, ltr_engine):
        assert "features/ltr" in ltr_engine.available_strategies()

    def test_ltr_strategy_runs_through_unified_api(self, ltr_engine):
        query = "virus hospital patients"
        target = ltr_engine.rank(query, k=10).doc_ids[-1]
        response = ltr_engine.explain(
            ExplainRequest(query, target, strategy="features/ltr", k=10)
        )
        assert response.strategy == "features/ltr"
        assert response.ok
        if response.explanations:  # search can legitimately exhaust
            assert response[0].new_rank > 10
