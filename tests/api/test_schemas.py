"""Tests for request validation schemas."""

import pytest

from repro.api.schemas import (
    BuilderRequest,
    RankRequest,
    TopicsRequest,
    parse_explain_request,
    parse_perturbation,
)
from repro.core.explain import DEFAULT_STRATEGY
from repro.core.perturbations import RemoveSentences, RemoveTerm, ReplaceTerm
from repro.errors import BadRequestError


class TestRankRequest:
    def test_parses_and_defaults(self):
        request = RankRequest.parse({"query": "covid"})
        assert request.k == 10

    def test_rejects_empty_query(self):
        with pytest.raises(BadRequestError, match="query"):
            RankRequest.parse({"query": "  "})

    def test_rejects_non_object(self):
        with pytest.raises(BadRequestError):
            RankRequest.parse(["not", "an", "object"])

    def test_rejects_bool_as_int(self):
        with pytest.raises(BadRequestError):
            RankRequest.parse({"query": "q", "k": True})

    def test_rejects_zero_k(self):
        with pytest.raises(BadRequestError):
            RankRequest.parse({"query": "q", "k": 0})


class TestExplanationRequests:
    def test_explain_request(self):
        request = parse_explain_request(
            {"query": "q", "doc_id": "d", "n": 2, "k": 5}
        )
        assert (request.n, request.k) == (2, 5)

    def test_explain_request_rejects_method_field(self):
        with pytest.raises(BadRequestError, match="method"):
            parse_explain_request(
                {"query": "q", "doc_id": "d", "method": "magic"}
            )

    def test_explain_request_defaults(self):
        request = parse_explain_request({"query": "q", "doc_id": "d"})
        assert request.strategy == DEFAULT_STRATEGY
        assert request.samples == 50


class TestPerturbationParsing:
    def test_replace_term(self):
        perturbation = parse_perturbation(
            {"type": "replace_term", "term": "covid", "replacement": "flu"}
        )
        assert perturbation == ReplaceTerm("covid", "flu")

    def test_remove_term(self):
        assert parse_perturbation({"type": "remove_term", "term": "x"}) == RemoveTerm("x")

    def test_remove_sentences(self):
        perturbation = parse_perturbation(
            {"type": "remove_sentences", "indices": [0, 4]}
        )
        assert perturbation == RemoveSentences((0, 4))

    def test_remove_sentences_validates_indices(self):
        with pytest.raises(BadRequestError):
            parse_perturbation({"type": "remove_sentences", "indices": [-1]})
        with pytest.raises(BadRequestError):
            parse_perturbation({"type": "remove_sentences", "indices": [True]})

    def test_unknown_type(self):
        with pytest.raises(BadRequestError, match="unknown perturbation"):
            parse_perturbation({"type": "teleport"})


class TestBuilderRequest:
    def test_requires_exactly_one_edit_source(self):
        with pytest.raises(BadRequestError):
            BuilderRequest.parse({"query": "q", "doc_id": "d"})
        with pytest.raises(BadRequestError):
            BuilderRequest.parse(
                {
                    "query": "q",
                    "doc_id": "d",
                    "edited_body": "text",
                    "perturbations": [{"type": "remove_term", "term": "x"}],
                }
            )

    def test_parses_perturbation_list(self):
        request = BuilderRequest.parse(
            {
                "query": "q",
                "doc_id": "d",
                "perturbations": [
                    {"type": "replace_term", "term": "a", "replacement": "b"}
                ],
            }
        )
        assert request.perturbations == (ReplaceTerm("a", "b"),)

    def test_empty_perturbation_list_rejected(self):
        with pytest.raises(BadRequestError):
            BuilderRequest.parse({"query": "q", "doc_id": "d", "perturbations": []})

    def test_edited_body_variant(self):
        request = BuilderRequest.parse(
            {"query": "q", "doc_id": "d", "edited_body": "new text"}
        )
        assert request.edited_body == "new text"
        assert request.perturbations is None


class TestTopicsRequest:
    def test_defaults(self):
        request = TopicsRequest.parse({"query": "q"})
        assert request.num_topics == 5
        assert request.terms_per_topic == 10
