"""Unit tests for string metrics: edit distance and variants."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MetricError, ParameterError
from repro.metrics import (
    DamerauLevenshteinDistance,
    EditDistance,
    RelativeEditDistance,
    WeightedEditDistance,
    edit_distance,
)
from repro.metrics.string import damerau_levenshtein, levenshtein, levenshtein_block
from repro.robustness import GuardedMetric


class TestEditDistanceFunction:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("", "abc", 3),
            ("abc", "", 3),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
            ("intention", "execution", 5),
            ("a", "b", 1),
            ("ab", "ba", 2),  # plain Levenshtein: transposition costs 2
        ],
    )
    def test_known_values(self, a, b, expected):
        assert edit_distance(a, b) == expected

    def test_symmetry(self):
        assert edit_distance("sunday", "saturday") == edit_distance("saturday", "sunday")

    def test_upper_bound_short_circuits(self):
        # True distance is 5 but we cap at 2.
        assert edit_distance("intention", "execution", upper_bound=2) == 2

    def test_upper_bound_no_effect_when_within(self):
        assert edit_distance("kitten", "sitting", upper_bound=10) == 3

    def test_upper_bound_on_length_difference(self):
        assert edit_distance("", "abcdef", upper_bound=2) == 2

    @pytest.mark.parametrize("a,b,bound", [("aaaa", "b", 2), ("ab", "aaaaaab", 1)])
    def test_upper_bound_caps_in_both_argument_orders(self, a, b, bound):
        # No DP row's minimum exceeds the bound one way round, so only the
        # final cap keeps the bounded distance symmetric.
        assert edit_distance(a, b, upper_bound=bound) == bound
        assert edit_distance(b, a, upper_bound=bound) == bound

    def test_weighted_costs(self):
        # Deleting 3 chars at cost 0.5 each.
        assert edit_distance("abcdef", "abc", delete_cost=0.5) == pytest.approx(1.5)

    def test_substitution_cost(self):
        assert edit_distance("abc", "axc", substitute_cost=0.4) == pytest.approx(0.4)


class TestEditDistanceMetric:
    def test_counts_calls(self):
        m = EditDistance()
        m.distance("abc", "abd")
        assert m.n_calls == 1

    def test_rejects_non_string(self):
        m = EditDistance()
        with pytest.raises(MetricError):
            m.distance("abc", 42)

    def test_upper_bound_param_validation(self):
        with pytest.raises(ParameterError):
            EditDistance(upper_bound=0)

    def test_one_to_many(self):
        m = EditDistance()
        out = m.one_to_many("cat", ["cat", "cut", "dog"])
        assert list(out) == [0, 1, 3]

    @pytest.mark.parametrize("a,b,bound", [("aaaa", "b", 2.0), ("ab", "aaaaaab", 1.0)])
    def test_upper_bound_is_symmetric(self, a, b, bound):
        m = EditDistance(upper_bound=bound)
        assert m.distance(a, b) == m.distance(b, a) == bound
        assert m.one_to_many(a, [b]).tolist() == m.one_to_many(b, [a]).tolist() == [bound]
        assert m.pairwise([a, b]).tolist() == [[0.0, bound], [bound, 0.0]]


class TestWeightedEditDistance:
    def test_symmetric(self):
        m = WeightedEditDistance(indel_cost=0.5, substitute_cost=0.8)
        assert m.distance("abc", "xbcd") == m.distance("xbcd", "abc")

    def test_rejects_metric_violating_costs(self):
        with pytest.raises(ParameterError):
            WeightedEditDistance(indel_cost=0.3, substitute_cost=1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            WeightedEditDistance(indel_cost=0)


class TestDamerauLevenshtein:
    def test_transposition_costs_one(self):
        assert damerau_levenshtein("ab", "ba") == 1

    def test_matches_levenshtein_without_transpositions(self):
        assert damerau_levenshtein("kitten", "sitting") == 3

    def test_known_osa(self):
        assert damerau_levenshtein("ca", "abc") == 3  # OSA restriction

    def test_metric_class(self):
        m = DamerauLevenshteinDistance()
        assert m.distance("word", "wrod") == 1


class TestRelativeEditDistance:
    def test_normalizes_by_longer(self):
        m = RelativeEditDistance()
        assert m.distance("abcd", "abce") == pytest.approx(0.25)

    def test_identical(self):
        assert RelativeEditDistance().distance("same", "same") == 0.0

    def test_empty_both(self):
        assert RelativeEditDistance().distance("", "") == 0.0

    def test_completely_different(self):
        assert RelativeEditDistance().distance("aaaa", "bbbb") == pytest.approx(1.0)

    def test_in_unit_interval(self):
        m = RelativeEditDistance()
        for a, b in [("a", "bcdef"), ("xy", "yx"), ("", "abc")]:
            assert 0.0 <= m.distance(a, b) <= 1.0

    def test_equals_scalar_edit_distance_over_longer(self):
        rng = random.Random(3)
        m = RelativeEditDistance()
        for _ in range(200):
            a, b = (
                "".join(rng.choice("abcd ") for _ in range(rng.randrange(0, 90)))
                for _ in range(2)
            )
            expected = edit_distance(a, b) / max(len(a), len(b)) if a or b else 0.0
            assert m.distance(a, b) == expected


class TestLevenshteinBlock:
    """The bit-parallel row function must equal the scalar DP exactly."""

    def test_matches_scalar_on_random_strings(self):
        rng = random.Random(7)
        words = [
            "".join(rng.choice("abcde") for _ in range(rng.randrange(0, 10)))
            for _ in range(120)
        ]
        for query in ["", "a", "edcba", "abcde", words[0], words[50]]:
            got = levenshtein_block(query, words)
            assert got.dtype == float
            assert list(got) == [edit_distance(query, w) for w in words]

    def test_edge_shapes(self):
        assert len(levenshtein_block("abc", [])) == 0
        assert list(levenshtein_block("", ["", "ab", "xyz"])) == [0.0, 2.0, 3.0]
        assert list(levenshtein_block("abc", ["", ""])) == [3.0, 3.0]

    def test_unicode_and_padding_mix(self):
        targets = ["", "á", "ábç∂", "😀x", "a" * 40, "ábç∂éf"]
        for query in ["ábç", "😀", "aaaa"]:
            got = levenshtein_block(query, targets)
            assert list(got) == [edit_distance(query, t) for t in targets]

    def test_one_to_many_uses_block_path_with_exact_counting(self):
        metric = EditDistance()
        words = ["cat", "cot", "dogs", "", "tack"]
        row = metric.one_to_many("cat", words)
        assert list(row) == [edit_distance("cat", w) for w in words]
        assert metric.n_calls == len(words)
        # cross/pairwise route through one_to_many: same values, same counts.
        cross = metric.cross(words[:2], words)
        assert metric.n_calls == len(words) + 2 * len(words)
        assert cross[0].tolist() == row.tolist()
        pair = metric.pairwise(words)
        assert metric.n_calls == len(words) + 2 * len(words) + 5 * 4 // 2
        assert pair[1][0] == edit_distance("cot", "cat")

    def test_upper_bound_falls_back_to_scalar_loop(self):
        bounded = EditDistance(upper_bound=2.0)
        words = ["kitten", "intention", "cat"]
        row = bounded.one_to_many("execution", words)
        assert list(row) == [
            edit_distance("execution", w, upper_bound=2.0) for w in words
        ]


class TestEditDistanceMaskMemo:
    """``EditDistance`` keeps the last query's match masks, by identity."""

    def test_rows_equal_fresh_block_rows(self):
        rng = random.Random(3)
        words = ["".join(rng.choice("abcd") for _ in range(rng.randrange(0, 9))) for _ in range(40)]
        same = "".join(["ab", "cd"])
        equal = "".join(["a", "bcd"])
        queries = [words[0], words[0], same, same, equal, words[1], same, words[0]]
        for bound in (None, 2.0):
            metric = EditDistance(upper_bound=bound)
            for q in queries:
                targets = rng.sample(words, 7)
                fresh = levenshtein_block(q, targets)
                if bound is not None:
                    fresh = np.minimum(fresh, bound)
                assert metric.one_to_many(q, targets).tobytes() == fresh.tobytes()

    def test_pickled_metric_holds_no_memo(self):
        import pickle

        metric = EditDistance()
        query = "".join(["query", "-memo"])
        metric.one_to_many(query, ["q"])
        assert metric._last_query is query
        clone = pickle.loads(pickle.dumps(metric))
        assert clone._last_query is None
        assert "query-memo" not in pickle.dumps(metric).decode("latin-1")
        assert clone.one_to_many("abc", ["abd", ""]).tolist() == [1.0, 3.0]


#: Strings that stress the kernel: any code point (astral ones included),
#: a tiny alphabet with heavy repeats, and lengths past one 64-bit word.
texts = st.one_of(
    st.text(max_size=40),
    st.text(alphabet="ab😀", max_size=150),
    st.builds(lambda c, n: c * n, st.characters(), st.integers(0, 150)),
    st.text(alphabet="abcdefgh", min_size=60, max_size=150),
)


class TestBitParallelKernelProperties:
    """The scalar :func:`edit_distance` DP is the oracle for every hook."""

    @given(a=texts, b=texts)
    @settings(max_examples=150, deadline=None)
    def test_kernel_matches_scalar_dp(self, a, b):
        expected = edit_distance(a, b)
        assert levenshtein(a, b) == expected
        assert levenshtein(b, a) == expected

    @given(query=texts, targets=st.lists(texts, max_size=6))
    @settings(max_examples=75, deadline=None)
    def test_block_matches_scalar_dp(self, query, targets):
        got = levenshtein_block(query, targets)
        assert got.dtype == np.float64
        assert got.tolist() == [edit_distance(query, t) for t in targets]

    @given(
        objs=st.lists(texts, max_size=6),
        others=st.lists(texts, max_size=4),
        bound=st.sampled_from([None, 1.0, 7.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_hooks_equal_elementwise_distance(self, objs, others, bound):
        ref = EditDistance(upper_bound=bound)
        metric = EditDistance(upper_bound=bound)
        n, k = len(objs), len(others)
        if n:
            row = metric.one_to_many(objs[0], objs)
            assert row.tolist() == [ref.distance(objs[0], o) for o in objs]
            assert metric.n_calls == n
        calls = metric.n_calls
        pair = metric.pairwise(objs)
        assert metric.n_calls == calls + n * (n - 1) // 2
        assert pair.tolist() == [[ref.distance(a, b) for b in objs] for a in objs]
        calls = metric.n_calls
        cross = metric.cross(objs, others)
        assert metric.n_calls == calls + n * k
        assert cross.shape == (n, k)
        assert cross.tolist() == [[ref.distance(a, b) for b in others] for a in objs]

    @given(objs=st.lists(texts, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_guarded_pairwise_equals_bare(self, objs):
        # The guard probes the batched ``_pairwise`` hook and validates the
        # matrix; what it returns must be the bare metric's.
        n = len(objs)
        guard = GuardedMetric(EditDistance())
        assert guard.pairwise(objs).tolist() == EditDistance().pairwise(objs).tolist()
        assert guard.n_calls == n * (n - 1) // 2
