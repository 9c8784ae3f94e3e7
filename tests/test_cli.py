"""Tests for the command-line interface (in-process, no subprocesses)."""

import json

import pytest

from repro.cli import main
from repro.datasets.covid import DEMO_QUERY, FAKE_NEWS_DOC_ID
from repro.datasets.loaders import save_jsonl


class TestRank:
    def test_rank_prints_table(self, capsys):
        code = main(["rank", "--query", DEMO_QUERY, "--k", "5"])
        captured = capsys.readouterr()
        assert code == 0
        assert len(captured.out.strip().splitlines()) == 5

    def test_rank_json_output(self, capsys):
        code = main(["rank", "--query", DEMO_QUERY, "--k", "3", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert len(payload["ranking"]) == 3

    def test_rank_custom_corpus(self, capsys, tmp_path, tiny_docs):
        corpus = tmp_path / "docs.jsonl"
        save_jsonl(tiny_docs, corpus)
        code = main(
            ["rank", "--corpus", str(corpus), "--query", "covid", "--k", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 2
        assert "d5" in out  # the doc mentioning covid twice ranks first


class TestUnifiedExplain:
    def test_explain_document_strategy(self, capsys):
        code = main(
            [
                "explain",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--strategy", "document/sentence-removal",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "removing sentence(s)" in out

    def test_explain_query_strategy(self, capsys):
        code = main(
            [
                "explain",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--strategy", "query/augmentation",
                "--n", "2",
                "--threshold", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert DEMO_QUERY in out

    def test_explain_instance_cosine_strategy(self, capsys):
        code = main(
            [
                "explain",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--strategy", "instance/cosine",
                "--samples", "30",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "%" in out

    def test_explain_json_envelope(self, capsys):
        code = main(
            [
                "explain",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--strategy", "instance/cosine",
                "--samples", "30",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["strategy"] == "instance/cosine"
        assert payload["elapsed_seconds"] >= 0.0
        assert payload["explanations"]

    def test_unknown_strategy_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "explain",
                    "--query", DEMO_QUERY,
                    "--doc", FAKE_NEWS_DOC_ID,
                    "--strategy", "magic/crystal",
                ]
            )

    @pytest.mark.parametrize("alias", ["doc2vec_nearest", "cosine_sampled"])
    def test_former_alias_rejected_by_parser(self, alias):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "explain",
                    "--query", DEMO_QUERY,
                    "--doc", FAKE_NEWS_DOC_ID,
                    "--strategy", alias,
                ]
            )
        assert excinfo.value.code == 2

    def test_unavailable_strategy_clean_error(self, capsys):
        code = main(
            [
                "explain",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--strategy", "features/ltr",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "unavailable" in captured.err

    def test_unranked_document_clean_error(self, capsys):
        code = main(
            ["explain", "--query", DEMO_QUERY, "--doc", "markets-0002"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "not in the top-10" in captured.err

    def test_strategies_listing(self, capsys):
        code = main(["strategies"])
        out = capsys.readouterr().out
        assert code == 0
        assert "document/sentence-removal" in out
        assert "query/augmentation" in out
        assert "(unavailable)" in out  # features/ltr under a lexical ranker

    def test_strategies_json(self, capsys):
        code = main(["strategies", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        names = {record["name"] for record in payload["strategies"]}
        assert "instance/doc2vec" in names


class TestExplainBatch:
    """Several ``--doc`` flags, or ``--workers``/``--executor``, run
    ``explain_batch``; single-request features are refused there."""

    _ARGS = ["explain", "--query", DEMO_QUERY, "--doc", FAKE_NEWS_DOC_ID]

    def test_workers_batch_envelope(self, capsys):
        code = main(
            self._ARGS + ["--doc", "covid-genuine-05", "--workers", "2", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [r["doc_id"] for r in payload["responses"]] == [
            FAKE_NEWS_DOC_ID,
            "covid-genuine-05",
        ]

    @pytest.mark.parametrize(
        "extra",
        [
            ["--doc", "covid-genuine-01", "--stream"],
            ["--doc", "covid-genuine-01", "--profile"],
            ["--workers", "2", "--stream"],
            ["--executor", "thread", "--profile"],
        ],
    )
    def test_single_request_flags_rejected_on_batch(self, capsys, extra):
        code = main(self._ARGS + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert "--stream and --profile" in captured.err
        assert captured.out == ""


class TestBuilder:
    def test_builder_valid_edit(self, capsys):
        code = main(
            [
                "builder",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--replace", "covid=flu",
                "--remove", "outbreak",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "VALID" in out

    def test_builder_requires_edits(self):
        with pytest.raises(SystemExit):
            main(["builder", "--query", DEMO_QUERY, "--doc", FAKE_NEWS_DOC_ID])

    def test_builder_bad_replace_spec(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "builder",
                    "--query", DEMO_QUERY,
                    "--doc", FAKE_NEWS_DOC_ID,
                    "--replace", "justaterm",
                ]
            )


class TestIndexCommand:
    def test_index_demo_corpus_plain(self, capsys):
        code = main(["index"])
        out = capsys.readouterr().out
        assert code == 0
        assert "indexed 62 documents" in out
        assert "1 shard (hash router): shard 0: 62" in out

    def test_index_sharded_with_save(self, capsys, tmp_path, tiny_docs):
        corpus = tmp_path / "docs.jsonl"
        save_jsonl(tiny_docs, corpus)
        out_path = tmp_path / "built.idx"
        code = main(
            [
                "index",
                "--corpus", str(corpus),
                "--shards", "2",
                "--save", str(out_path),
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["shards"] == 2
        assert payload["router"] == "hash"
        assert payload["format"] == "v3"
        assert sum(payload["shard_documents"]) == payload["documents"]
        from repro.index.sharding import ShardedIndex
        from repro.index.storage import load_index

        loaded = load_index(out_path, mode="memory")
        assert isinstance(loaded, ShardedIndex)
        assert loaded.shard_count == 2
        assert len(loaded) == len(tiny_docs)

    def test_index_round_robin_router(self, capsys, tmp_path, tiny_docs):
        corpus = tmp_path / "docs.jsonl"
        save_jsonl(tiny_docs, corpus)
        code = main(
            [
                "index",
                "--corpus", str(corpus),
                "--shards", "3",
                "--router", "round-robin",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["router"] == "round-robin"
        assert max(payload["shard_documents"]) - min(payload["shard_documents"]) <= 1

    def test_index_rejects_bad_shards(self):
        with pytest.raises(SystemExit):
            main(["index", "--shards", "0"])


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["teleport"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])


class TestSearchOptions:
    """`explain --search ...` threads the kernel options through."""

    def test_beam_search_flags(self, capsys):
        code = main(
            [
                "explain",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--search", "beam",
                "--beam-width", "4",
                "--budget", "5000",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["search_strategy"] == "beam"
        assert payload["explanations"]

    def test_anytime_with_deadline(self, capsys):
        code = main(
            [
                "explain",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--search", "anytime",
                "--deadline-ms", "500",
                "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["search_strategy"] == "anytime"

    def test_unknown_search_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "explain",
                    "--query", DEMO_QUERY,
                    "--doc", FAKE_NEWS_DOC_ID,
                    "--search", "simulated-annealing",
                ]
            )
        assert excinfo.value.code == 2

    def test_invalid_budget_clean_exit_2(self, capsys):
        code = main(
            [
                "explain",
                "--query", DEMO_QUERY,
                "--doc", FAKE_NEWS_DOC_ID,
                "--budget", "0",
            ]
        )
        assert code == 2
        assert "budget" in capsys.readouterr().err
