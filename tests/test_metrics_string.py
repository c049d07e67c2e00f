"""Unit tests for string metrics: edit distance and variants."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import InnerCounting
from repro.core.preclusterer import BUBBLE
from repro.datasets import make_authority_dataset
from repro.exceptions import MetricError, ParameterError
from repro.metrics import (
    DamerauLevenshteinDistance,
    EditDistance,
    RelativeEditDistance,
    WeightedEditDistance,
    edit_distance,
)
from repro.metrics.base import take
from repro.metrics.string import (
    _PACKED_MIN,
    StringBatch,
    _Lanes,
    damerau_levenshtein,
    levenshtein,
    levenshtein_block,
)
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
        targets = ["", "á", "ábç∂", "😀x", "a" * 40, "ábç∂éf", "", "日本語テキスト"]
        for query in ["ábç", "😀", "aaaa", "", "日本"]:
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


#: Lengths on both sides of every lane-width step: 32-bit lanes hold up to
#: 31 characters, 64-bit ones up to 63, then 128 and 192 bits.
_LANE_EDGES = [0, 1, 31, 32, 33, 63, 64, 65, 130]


def _word(rng, n, alphabet="abcá😀 "):
    return "".join(rng.choice(alphabet) for _ in range(n))


class TestPackedKernel:
    """Gathers of ``_PACKED_MIN`` or more targets run one lane-packed pass;
    the scalar :func:`edit_distance` DP is the oracle for every hook."""

    def test_lane_edges_match_scalar_dp(self):
        rng = random.Random(11)
        targets = [_word(rng, n) for n in _LANE_EDGES] + ["", "ab"]
        for query in ["", "a", "ábç😀", _word(rng, 31), _word(rng, 64), _word(rng, 130)]:
            got = levenshtein_block(query, targets)
            assert got.tolist() == [edit_distance(query, t) for t in targets]

    @pytest.mark.parametrize("width", [32, 64, 128])
    def test_full_lanes_keep_their_one_spare_bit(self, width):
        # Targets of ``width - 1`` characters leave one spare bit per lane,
        # so a carry out of the lane below lands right under the next
        # target: row 0 must still enter there.
        rng = random.Random(width)
        targets = [_word(rng, width - 1, "ab") for _ in range(5)]
        targets[2] = "a" * (width - 1)
        for query in ["a", "b" * 3, "a" * width, _word(rng, width + 7, "ab")]:
            got = levenshtein_block(query, targets)
            assert got.tolist() == [edit_distance(query, t) for t in targets]

    def test_lane_widths(self):
        for longest, width in [(0, 32), (31, 32), (32, 64), (63, 64), (64, 128), (130, 192)]:
            assert _Lanes(["a", "b" * longest]).width == width

    @given(query=texts, targets=st.lists(texts, min_size=_PACKED_MIN, max_size=12))
    @settings(max_examples=75, deadline=None)
    def test_packed_rows_match_scalar_dp(self, query, targets):
        expected = [edit_distance(query, t) for t in targets]
        metric = EditDistance()
        batch = metric.prepare(targets)
        assert isinstance(batch, StringBatch)
        assert levenshtein_block(query, targets).tolist() == expected
        assert metric.one_to_many(query, batch).tolist() == expected
        # Slices read ranges of the batch's lanes, packed once.
        assert metric.one_to_many(query, batch[1:]).tolist() == expected[1:]
        assert metric.one_to_many(query, batch[1:][1:-1]).tolist() == expected[2:-1]
        assert metric.one_to_many(query, batch[2:3]).tolist() == expected[2:3]
        picks = list(range(len(targets) - 1, -1, -2))
        taken = take(batch, picks)
        assert metric.one_to_many(query, taken).tolist() == [expected[j] for j in picks]

    @given(
        objs=st.lists(texts, min_size=1, max_size=9),
        others=st.lists(texts, min_size=1, max_size=9),
        bound=st.sampled_from([None, 1.0, 7.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_hook_matches_scalar_dp(self, objs, others, bound):
        def ref(a, b):
            d = edit_distance(a, b)
            return d if bound is None else min(d, bound)

        metric = EditDistance(upper_bound=bound)
        for a_side, b_side in [(objs, others), (others, objs)]:
            expected = [[ref(a, b) for b in b_side] for a in a_side]
            assert metric.cross(a_side, b_side).tolist() == expected
            assert metric.cross(metric.prepare(a_side), metric.prepare(b_side)).tolist() == expected
        matrix = [[ref(a, b) for b in objs] for a in objs]
        assert metric.pairwise(objs).tolist() == matrix
        assert metric.pairwise(metric.prepare(objs)).tolist() == matrix
        assert metric.one_to_many(others[0], objs).tolist() == [ref(others[0], b) for b in objs]

    def test_relative_gathers_equal_scalar_quotients(self):
        rng = random.Random(9)
        metric = RelativeEditDistance()
        words = [_word(rng, rng.randrange(0, 40), "abcd ") for _ in range(30)] + ["", ""]
        for query in ["", "abcd", words[3], words[7]]:
            for targets in (words, words[:3], metric.prepare(words)[5:20]):
                row = metric.one_to_many(query, targets)
                scalar = np.array([metric._distance(query, t) for t in targets])
                assert row.tobytes() == scalar.tobytes()

    def test_relative_gather_builds_the_query_masks_once(self, monkeypatch):
        import repro.metrics.string as string_module

        built = []
        real = string_module._match_masks
        monkeypatch.setattr(
            string_module, "_match_masks", lambda q: built.append(q) or real(q)
        )
        RelativeEditDistance().one_to_many("abc", ["abd", "xbc", "abcd"])
        assert built == ["abc"]

    def test_batch_indexes_like_a_list(self):
        words = ["a", "bb", "ccc", "dddd", "eeeee", "f", "gg", "hhh"]
        batch = EditDistance().prepare(words)
        assert len(batch) == 8 and list(batch) == words
        view = batch[1:7]
        assert isinstance(view, StringBatch) and list(view) == words[1:7]
        assert view[0] == "bb" and view[-1] == "gg" and list(view[1:-1]) == words[2:6]
        with pytest.raises(IndexError):
            view[6]
        # A view reads its range of the lanes its root packs, once.
        lanes, start = view[1:].lanes()
        assert start == 2 and batch.lanes() == (lanes, 0)
        # Slices too short for a packed pass, or strided, are plain lists.
        assert view[2:4] == words[3:5] and view[4:2] == []
        assert batch[::3] == words[::3]
        assert EditDistance().prepare([]) == []


class TestPackedAccounting:
    """The packed pass changes what a hook costs, never what it counts."""

    def test_oracle_totals_for_center_gathers_and_pairwise(self, inner_edit_distance):
        rng = random.Random(2)
        words = [_word(rng, rng.randrange(1, 25), "abcde") for _ in range(12)]
        metric = inner_edit_distance()
        batch = metric.prepare(words)
        metric.cross(words, batch[3:4])
        metric.cross(batch[:2], batch[5:6])
        assert (InnerCounting.evals, InnerCounting.dispatches) == (14, 2)
        metric.pairwise(words)
        assert (InnerCounting.evals, InnerCounting.dispatches) == (14 + 66, 3)
        assert metric.n_calls == InnerCounting.evals

    def test_batch_pickles_to_its_own_strings(self):
        import pickle

        metric = EditDistance()
        words = ["alpha-one", "beta-two", "gamma-three", "delta-four", "eps-five", "zeta-six"]
        batch = metric.prepare(words)
        row = metric.one_to_many("alphabet", batch[1:5])  # packs the lanes
        blob = pickle.dumps(batch[1:5])
        for absent in (b"alpha-one", b"zeta-six", b"StringBatch", b"_Lanes"):
            assert absent not in blob
        clone = pickle.loads(blob)
        assert clone == words[1:5]
        assert metric.one_to_many("alphabet", clone).tobytes() == row.tobytes()

    def test_checkpoint_resume_stays_bit_identical(self, tmp_path):
        records = make_authority_dataset(n_classes=6, n_strings=150, seed=4).strings
        path = tmp_path / "scan.ckpt"
        ref = BUBBLE(EditDistance(), max_nodes=8, seed=2).fit(records)
        interrupted = BUBBLE(EditDistance(), max_nodes=8, seed=2)
        interrupted.fit(records[:90], checkpoint_path=path, checkpoint_every=45)
        # The saved tree held prepared batches; the file holds plain lists.
        assert any(
            isinstance(getattr(leaf.aux, "batch", None), StringBatch)
            for leaf in interrupted.tree_.leaves()
        )
        assert b"StringBatch" not in path.read_bytes()
        resumed = BUBBLE(EditDistance(), max_nodes=8, seed=2).fit(records, resume_from=path)

        def leaves(model):
            return [(f.n, f.radius, f.clustroid) for f in model.tree_.leaf_features()]

        assert leaves(resumed) == leaves(ref)
