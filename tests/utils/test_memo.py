"""Tests for the shared bounded, version-keyed memo."""

import copy
import pickle
import sys
import threading

import pytest

from repro.errors import ConfigurationError
from repro.utils.memo import Memo


class _Index:
    """The one attribute a memo reads from an index."""

    def __init__(self):
        self.version = 0


def _double(key):
    return key * 2


class TestBound:
    def test_full_memo_drops_its_oldest_half_in_insertion_order(self):
        memo = Memo(4)
        for key in range(4):
            memo.get(key, _double)
        assert list(memo.entries) == [0, 1, 2, 3]
        memo.get(4, _double)
        assert list(memo.entries) == [2, 3, 4]
        assert memo.evictions == 2
        for key in (5, 6):
            memo.get(key, _double)
        assert list(memo.entries) == [4, 5, 6]
        assert memo.evictions == 4

    def test_hits_do_not_reorder_entries(self):
        memo = Memo(2)
        memo.get("a", str.upper)
        memo.get("b", str.upper)
        assert memo.get("a", str.upper) == "A"
        memo.get("c", str.upper)
        assert list(memo.entries) == ["b", "c"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Memo(0)


class TestVersionKeying:
    def test_memo_empties_when_the_version_moves(self):
        index = _Index()
        memo = Memo(8, index)
        calls = []

        def compute(key):
            calls.append(key)
            return (key, index.version)

        assert memo.get("a", compute) == ("a", 0)
        assert memo.get("b", compute) == ("b", 0)
        assert memo.get("a", compute) == ("a", 0)
        index.version += 1
        assert memo.get("a", compute) == ("a", 1)
        assert calls == ["a", "b", "a"]
        assert memo.entries == {"a": ("a", 1)}

    def test_value_computed_across_a_move_is_returned_not_stored(self):
        index = _Index()
        memo = Memo(8, index)

        def mutating(key):
            index.version += 1
            return key

        assert memo.get("a", mutating) == "a"
        assert "a" not in memo
        assert memo.get("a", _double) == "aa"
        assert memo.entries == {"a": "aa"}

    def test_memo_without_an_index_never_empties(self):
        memo = Memo(8)
        memo.get("a", _double)
        assert memo.get("a", pytest.fail) == "aa"


class TestCounters:
    def test_record_counts_hits_as_lookups_minus_fresh_entries(self):
        memo = Memo(8)
        memo.record(5, {"a": 1, "b": None})
        assert memo.entries == {"a": 1, "b": None}
        assert (memo.hits, memo.misses) == (3, 2)

    def test_stats_has_the_analyzer_shape(self):
        memo = Memo(2)
        for key in ("a", "a", "b", "c"):
            memo.get(key, _double)
        assert memo.stats() == {
            "entries": 2,
            "capacity": 2,
            "hits": 1,
            "misses": 3,
            "evictions": 1,
        }

    def test_a_value_that_does_not_fit_is_a_miss_and_stays_stored(self):
        memo = Memo(1)
        memo.get("a", _double)
        assert memo.get("a", str.upper, lambda value: value == "AA") == "A"
        assert memo.get("a", pytest.fail, lambda value: value == "aa") == "aa"
        assert memo.entries == {"a": "aa"}
        assert (memo.hits, memo.misses, memo.evictions) == (1, 2, 0)

    def test_a_hit_takes_no_lock(self):
        memo = Memo(2)
        memo.get("a", _double)
        results = []
        with memo._lock:
            reader = threading.Thread(
                target=lambda: results.append(memo.get("a", pytest.fail))
            )
            reader.start()
            reader.join(timeout=5)
        assert not reader.is_alive()
        assert results == ["aa"]


class TestCopies:
    @pytest.mark.parametrize(
        "clone",
        (copy.copy, copy.deepcopy, lambda memo: pickle.loads(pickle.dumps(memo))),
        ids=("copy", "deepcopy", "pickle"),
    )
    def test_copy_is_empty_with_the_same_capacity(self, clone):
        memo = Memo(3, _Index())
        memo.get("a", _double)
        copied = clone(memo)
        assert copied.stats() == {
            "entries": 0,
            "capacity": 3,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
        }
        assert copied.get("b", _double) == "bb"


class TestConcurrency:
    THREADS = 6  # more threads than cores
    ROUNDS = 2000

    def test_gets_racing_version_bumps_raise_nothing(self):
        index = _Index()
        memo = Memo(16, index)
        errors: list[BaseException] = []
        wrong: list[tuple] = []
        stop = threading.Event()

        def reader(worker):
            try:
                for step in range(self.ROUNDS):
                    key = (worker * 7 + step) % 40
                    value = memo.get(key, _double)
                    if value != key * 2:
                        wrong.append((key, value))
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        def bumper():
            while not stop.is_set():
                index.version += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            writer = threading.Thread(target=bumper)
            readers = [
                threading.Thread(target=reader, args=(worker,))
                for worker in range(self.THREADS)
            ]
            writer.start()
            for thread in readers:
                thread.start()
            for thread in readers:
                thread.join(timeout=60)
            stop.set()
            writer.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (writer, *readers))
        assert not errors, errors
        assert not wrong
        stats = memo.stats()
        assert stats["entries"] <= stats["capacity"]
        assert stats["misses"] >= 40
