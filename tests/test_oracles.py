import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from pmlkit import (
    Alphabet,
    DiscreteChannel,
    DiscreteDistribution,
    GainFunction,
    JointModel,
    build_partition_gain,
    gain_ratio,
    geometric_binary_model,
    identity_channel,
    make_approx_gain,
    make_guessing_gain,
    partition_oracle,
    pml,
    posterior,
    randomized_function_oracle,
    randomized_strategy_check,
    shattering_value,
    subset_oracle,
    truncate_countable,
    uniform,
)
from pmlkit.errors import CapacityError, ValidationError
from pmlkit import cli, distributions, oracles
from pmlkit.modelio import save_model_json
from pmlkit.oracles import _simplex_grid
from conftest import random_full_support_model, random_model_with_zeros


def small_geometric_model(q=0.5):
    # p = 0.97 keeps the truncated support at six symbols with deficit <= 1e-9
    prior = truncate_countable("geometric", 0.97, 1e-9)
    assert prior.alphabet.size == 6
    xs = np.array(prior.alphabet.symbols, dtype=float)
    matrix = np.column_stack([q ** xs, 1 - q ** xs])
    return JointModel(prior, DiscreteChannel(prior.alphabet, Alphabet([0, 1]), matrix))


class TestGainRatio:
    def test_constant_gain_is_uninformative(self):
        rng = np.random.default_rng(3)
        model = random_full_support_model(rng, 4, 3)
        g = GainFunction(model.input_alphabet, Alphabet(["w"]), np.ones((4, 1)))
        assert gain_ratio(model, "y0", g) == pytest.approx(1.0)

    def test_inverse_prior_singleton_gain_achieves_pml(self):
        rng = np.random.default_rng(5)
        model = random_full_support_model(rng, 5, 4)
        gains = np.diag(1.0 / model.prior.probs)
        g = GainFunction(model.input_alphabet, model.input_alphabet, gains)
        for y in model.output_alphabet:
            assert math.log(gain_ratio(model, y, g)) == pytest.approx(
                pml(model, y).nats, abs=1e-10
            )

    def test_hypothesis_test_gain(self):
        rng = np.random.default_rng(8)
        model = random_full_support_model(rng, 5, 3)
        member = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        g = GainFunction(model.input_alphabet, Alphabet(["guess"]), member[:, None])
        post = posterior(model, "y1").probs
        expected = float(post @ member) / float(model.prior.probs @ member)
        assert gain_ratio(model, "y1", g) == pytest.approx(expected, abs=1e-12)

    def test_converse_bound_random_gains(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            model = random_full_support_model(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            d = int(rng.integers(1, 5))
            g = GainFunction(
                model.input_alphabet,
                Alphabet([f"w{i}" for i in range(d)]),
                rng.uniform(size=(model.input_alphabet.size, d)),
            )
            for y in model.output_alphabet:
                assert math.log(gain_ratio(model, y, g)) <= pml(model, y).nats + 1e-10

    def test_rejects_negative_gains(self):
        a = Alphabet([0, 1])
        with pytest.raises(ValidationError):
            GainFunction(a, a, np.array([[1.0, -1.0], [0.0, 0.0]]))


class TestSubsetOracle:
    def test_matches_pml_on_random_models(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            model = random_full_support_model(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
            for y in model.output_alphabet:
                assert subset_oracle(model, y) == pytest.approx(pml(model, y).nats, abs=1e-10)

    def test_independent_outcome_gives_zero(self):
        a = Alphabet(list(range(4)))
        matrix = np.tile([0.25, 0.75], (4, 1))
        model = JointModel(uniform(a), DiscreteChannel(a, Alphabet([0, 1]), matrix))
        assert subset_oracle(model, 0) == pytest.approx(0.0, abs=1e-15)

    def test_capacity_cap(self):
        model = geometric_binary_model(0.3, 0.5)  # 78 input symbols
        with pytest.raises(CapacityError):
            subset_oracle(model, 0)


class TestPartitionOracle:
    @pytest.mark.parametrize("eps", [0.2, 0.05, 0.01])
    def test_band_on_random_models(self, eps):
        rng = np.random.default_rng(19)
        for _ in range(30):
            model = random_full_support_model(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            for y in model.output_alphabet:
                target = pml(model, y).nats
                got = partition_oracle(model, y, eps)
                assert target - eps - 1e-12 <= got <= target + 1e-12

    def test_single_cell_degenerate(self):
        rng = np.random.default_rng(29)
        model = random_full_support_model(rng, 4, 4)
        target = pml(model, "y0").nats
        got = partition_oracle(model, "y0", 50.0)
        assert got >= target - 50.0 and got >= 0.0

    def test_identity_uniform(self):
        a = Alphabet(list(range(4)))
        model = JointModel(uniform(a), identity_channel(a))
        got = partition_oracle(model, 0, 0.05)
        assert math.log(4) - 0.05 - 1e-12 <= got <= math.log(4) + 1e-12

    def test_geometric_binary_close_to_exact_value(self):
        model = geometric_binary_model(0.3, 0.5)
        target = math.log(0.65 / 0.3)
        got = partition_oracle(model, 0, 0.01)
        assert abs(got - target) <= 0.01 + 1e-8

    def test_cells_partition_the_ratio_range(self):
        model = geometric_binary_model(0.3, 0.5)
        part = build_partition_gain(model, 0, 0.1)
        post = posterior(model, 0)
        covered = [x for cell in part.cells.values() for x in cell]
        assert sorted(covered, key=repr) == sorted(model.input_alphabet.symbols, key=repr)
        for w, cell in part.cells.items():
            if not math.isfinite(w):
                continue
            for x in cell:
                f = post.prob(x) / model.prior.prob(x)
                assert math.exp(w * 0.1) <= f * (1 + 1e-9)
                assert f < math.exp((w + 1) * 0.1) * (1 + 1e-9)

    def test_rejects_nonpositive_epsilon(self):
        model = small_geometric_model()
        with pytest.raises(ValidationError):
            partition_oracle(model, 0, 0.0)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_epsilon(self, eps):
        with pytest.raises(ValidationError, match=f"epsilon must be positive and finite, got {eps!r}"):
            build_partition_gain(small_geometric_model(), 0, eps)


class TestShattering:
    def test_identity_grouping_equals_pml(self):
        rng = np.random.default_rng(31)
        model = random_full_support_model(rng, 5, 4)
        grouping = {x: x for x in model.input_alphabet}
        for y in model.output_alphabet:
            assert shattering_value(model, y, grouping) == pytest.approx(
                pml(model, y).nats, abs=1e-12
            )

    def test_constant_grouping_is_zero(self):
        rng = np.random.default_rng(41)
        model = random_full_support_model(rng, 4, 4)
        grouping = {x: "all" for x in model.input_alphabet}
        assert shattering_value(model, "y0", grouping) == pytest.approx(0.0, abs=1e-15)

    def test_singletons_plus_tail_group(self):
        # retain singletons for the head, lump the tail: value dominates
        # every retained singleton ratio
        model = small_geometric_model()
        post = posterior(model, 0)
        symbols = model.input_alphabet.symbols
        grouping = {x: x for x in symbols[:3]}
        grouping.update({x: "tail" for x in symbols[3:]})
        value = shattering_value(model, 0, grouping)
        for x in symbols[:3]:
            assert value >= math.log(post.prob(x) / model.prior.prob(x)) - 1e-12

    def test_partial_grouping_rejected(self):
        model = small_geometric_model()
        with pytest.raises(ValidationError):
            shattering_value(model, 0, {model.input_alphabet.symbols[0]: 0})

    @pytest.mark.parametrize("p, q", [(0.3, 0.5), (0.1, 0.9), (0.5, 0.2)])
    def test_tail_lumped_functions_climb_to_pml(self, p, q):
        # The countable-alphabet definition takes the supremum over functions
        # of X. f_k keeps x < k and lumps the rest into one "tail" label; each
        # f_{k+1} refines f_k, so the value may not fall (beyond rounding), and
        # f_|X| separates every symbol. The 40 to 263 inputs are above every
        # enumerating oracle's cap.
        model = geometric_binary_model(p, q)
        symbols = model.input_alphabet.symbols
        assert symbols == tuple(range(1, len(symbols) + 1))
        for y in (0, 1):
            values = [
                shattering_value(model, y, {x: x if x < k else "tail" for x in symbols})
                for k in range(1, len(symbols) + 1)
            ]
            assert min(b - a for a, b in zip(values, values[1:])) >= -1e-12
            assert values[-1] == pytest.approx(pml(model, y).nats, rel=0, abs=1e-12)


class TestRandomizedFunctionOracle:
    def test_full_cardinality_equals_pml(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            model = random_full_support_model(rng, n, int(rng.integers(2, 5)))
            for y in model.output_alphabet:
                assert randomized_function_oracle(model, y, n) == pytest.approx(
                    pml(model, y).nats, abs=1e-10
                )

    def test_single_group_is_zero(self):
        rng = np.random.default_rng(47)
        model = random_full_support_model(rng, 4, 3)
        assert randomized_function_oracle(model, "y0", 1) == 0.0

    def test_monotone_in_group_count(self):
        model = small_geometric_model()
        target = pml(model, 0).nats
        values = [randomized_function_oracle(model, 0, k) for k in range(1, 7)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert all(v <= target + 1e-10 for v in values)
        assert values[-1] == pytest.approx(target, abs=1e-10)

    def test_alphabet_cap(self):
        model = geometric_binary_model(0.3, 0.5)
        with pytest.raises(CapacityError):
            randomized_function_oracle(model, 0, 3)


class TestStrategyCheck:
    def test_random_pairs_always_pass(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            model = random_full_support_model(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5)))
            d = int(rng.integers(1, 4))
            g = GainFunction(
                model.input_alphabet,
                Alphabet(list(range(d))),
                rng.uniform(size=(model.input_alphabet.size, d)),
            )
            assert randomized_strategy_check(model, "y0", g, 20)

    def test_tied_optima_boundary(self):
        rng = np.random.default_rng(61)
        model = random_full_support_model(rng, 3, 3)
        post = posterior(model, "y0").probs
        column = rng.uniform(size=3)
        g = GainFunction(
            model.input_alphabet, Alphabet([0, 1]), np.column_stack([column, column])
        )
        assert randomized_strategy_check(model, "y0", g, 20)
        pure = post @ g.gains
        # any mixture of the tied optima meets the pure optimum exactly
        assert 0.5 * pure[0] + 0.5 * pure[1] == pytest.approx(pure.max(), abs=1e-12)

    def test_vertex_only_resolution(self):
        rng = np.random.default_rng(67)
        model = random_full_support_model(rng, 3, 3)
        g = GainFunction(model.input_alphabet, Alphabet([0, 1]), rng.uniform(size=(3, 2)))
        assert randomized_strategy_check(model, "y0", g, 1)

    def test_caps(self):
        rng = np.random.default_rng(71)
        model = random_full_support_model(rng, 3, 3)
        wide = GainFunction(
            model.input_alphabet, Alphabet(list(range(5))), np.ones((3, 5))
        )
        with pytest.raises(CapacityError):
            randomized_strategy_check(model, "y0", wide, 10)
        g = GainFunction(model.input_alphabet, Alphabet([0]), np.ones((3, 1)))
        with pytest.raises(CapacityError):
            randomized_strategy_check(model, "y0", g, 51)


class TestGainConstructors:
    def test_guessing_own_value_uniform(self):
        a = Alphabet(list(range(4)))
        model = JointModel(uniform(a), identity_channel(a))
        g = make_guessing_gain(identity_channel(a))
        prior_opt = float(np.max(model.prior.probs @ g.gains))
        assert prior_opt == pytest.approx(0.25)
        assert math.log(gain_ratio(model, 0, g)) == pytest.approx(math.log(4), abs=1e-12)

    def test_constant_function_ratio_one(self):
        rng = np.random.default_rng(73)
        model = random_full_support_model(rng, 4, 3)
        sub = DiscreteChannel(
            model.input_alphabet, Alphabet(["c"]), np.ones((4, 1))
        )
        assert gain_ratio(model, "y0", make_guessing_gain(sub)) == pytest.approx(1.0)

    def test_indicator_function_reproduces_hypothesis_test(self):
        rng = np.random.default_rng(79)
        model = random_full_support_model(rng, 5, 3)
        member = np.array([1.0, 1.0, 0.0, 0.0, 1.0])
        sub = DiscreteChannel(
            model.input_alphabet, Alphabet([0, 1]), np.column_stack([1 - member, member])
        )
        g = make_guessing_gain(sub)
        post = posterior(model, "y0").probs
        pri = model.prior.probs
        expected = max(
            float(post @ member) / float(pri @ member),
            float(post @ (1 - member)) / float(pri @ (1 - member)),
        )
        assert gain_ratio(model, "y0", g) == pytest.approx(expected, abs=1e-12)

    def test_approx_gain_small_radius_equals_guessing(self):
        rng = np.random.default_rng(83)
        model = random_full_support_model(rng, 4, 3)
        sub = DiscreteChannel(
            model.input_alphabet,
            Alphabet([1, 2, 3]),
            rng.dirichlet(np.ones(3), size=4),
        )
        exact = make_guessing_gain(sub)
        approx = make_approx_gain(sub, 0.5)
        np.testing.assert_allclose(approx.gains, exact.gains, atol=1e-15)

    def test_approx_gain_huge_radius_is_uninformative(self):
        rng = np.random.default_rng(89)
        model = random_full_support_model(rng, 4, 3)
        sub = DiscreteChannel(
            model.input_alphabet, Alphabet([1, 2, 3]), rng.dirichlet(np.ones(3), size=4)
        )
        g = make_approx_gain(sub, 10.0)
        np.testing.assert_allclose(g.gains, np.ones_like(g.gains), atol=1e-12)
        assert gain_ratio(model, "y0", g) == pytest.approx(1.0)

    def test_approx_gain_neighbors_bounded_by_pml(self):
        a = Alphabet(list(range(1, 6)))
        model = JointModel(uniform(a), identity_channel(a))
        g = make_approx_gain(identity_channel(a), 1.5)
        # each estimate also collects its +-1 neighbors
        assert g.gains[0, 1] == 1.0 and g.gains[0, 2] == 0.0
        for y in a:
            assert math.log(gain_ratio(model, y, g)) <= pml(model, y).nats + 1e-12

    def test_approx_gain_requires_integer_labels(self):
        a = Alphabet(["p", "q"])
        sub = DiscreteChannel(a, a, np.eye(2))
        with pytest.raises(ValidationError):
            make_approx_gain(sub, 1.0)


# The loop versions the array oracles replaced, kept as references.


@lru_cache(maxsize=None)
def _reference_set_partitions(n, max_groups):
    """Restricted growth strings by recursion, bucketed by block count."""
    buckets = [[] for _ in range(max_groups)]

    def extend(prefix, used):
        i = len(prefix)
        if i == n:
            buckets[used - 1].append(prefix)
            return
        for g in range(min(used + 1, max_groups)):
            extend(prefix + (g,), max(used, g + 1))

    extend((), 0)
    return tuple(np.array(b, dtype=np.intp) for b in buckets if b)


def _set_partitions(n, max_groups):
    """All partitions of n <= 16 items into at most max_groups unlabeled blocks.

    Row r holds the bit masks of partition r's blocks, 0 for an unused
    block.  The rows are the restricted growth strings in lexicographic
    order, grown one item at a time: a string using u labels gives item i
    each label below min(u + 1, max_groups).
    """
    blocks = np.zeros((1, max_groups), dtype=np.uint16)
    used = np.zeros(1, dtype=np.intp)
    for i in range(n):
        fan = np.minimum(used + 1, max_groups)
        parent = np.repeat(np.arange(len(used)), fan)
        label = np.arange(len(parent)) - np.repeat(np.cumsum(fan) - fan, fan)
        blocks = blocks[parent]
        blocks[np.arange(len(parent)), label] |= 1 << i
        used = np.maximum(used[parent], label + 1)
    blocks.setflags(write=False)
    return blocks


def _count_partitions(n, max_groups):
    """Restricted Bell number via the Stirling triangle."""
    row = [1]  # partitions of 1 element into exactly j+1 blocks
    for m in range(2, n + 1):
        new = [0] * min(m, max_groups)
        for j, cnt in enumerate(row):
            if j < len(new):
                new[j] += cnt * (j + 1)
            if j + 1 < len(new):
                new[j + 1] += cnt
        row = new
    return sum(row) if n >= 1 else 0


def _reference_best_set_ratio(post_sums, prior_sums):
    ratios = np.ones_like(post_sums)
    pos = prior_sums > 0
    ratios[pos] = post_sums[pos] / prior_sums[pos]
    if ((~pos) & (post_sums > 0)).any():
        return math.inf
    return float(ratios.max())


def _reference_subset_oracle(model, y):
    """Event masses by concatenating doublings."""
    post = posterior(model, y).probs
    prior = model.prior.probs
    post_sums = np.zeros(1)
    prior_sums = np.zeros(1)
    for i in range(model.input_alphabet.size):
        post_sums = np.concatenate([post_sums, post_sums + post[i]])
        prior_sums = np.concatenate([prior_sums, prior_sums + prior[i]])
    best = _reference_best_set_ratio(post_sums[1:], prior_sums[1:])
    return math.log(best) if best > 0 else -math.inf


def _reference_function_oracle(model, y, max_groups):
    """Per-bucket loop: block masses as (assignments == g) @ post."""
    k = min(max_groups, model.input_alphabet.size)
    post = posterior(model, y).probs
    prior = model.prior.probs
    best = 1.0
    for assignments in _reference_set_partitions(model.input_alphabet.size, k):
        blocks = int(assignments.max()) + 1
        post_cells = np.stack([(assignments == g) @ post for g in range(blocks)], axis=1)
        prior_cells = np.stack([(assignments == g) @ prior for g in range(blocks)], axis=1)
        ratios = np.ones_like(post_cells)
        pos = prior_cells > 0
        ratios[pos] = post_cells[pos] / prior_cells[pos]
        if np.any((~pos) & (post_cells > 0)):
            return math.inf
        best = max(best, float(ratios.max(axis=1).max()))
    return math.log(best)


def _reference_simplex_grid(dim, resolution):
    for counts in itertools.product(range(resolution + 1), repeat=dim - 1):
        rest = resolution - sum(counts)
        if rest >= 0:
            yield np.array(counts + (rest,), dtype=float) / resolution


def _reference_strategy_check(model, y, g, grid_resolution):
    pure = g.expected_gain(posterior(model, y).probs)
    best_pure = float(pure.max())
    for weights in _reference_simplex_grid(g.estimate_alphabet.size, grid_resolution):
        if float(weights @ pure) > best_pure + 1e-12:
            return False
    return True


def _seeded_models(seed, count, max_inputs):
    """Full-support models and models with zero-prior atoms and posterior zeros."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n_in, n_out = int(rng.integers(1, max_inputs + 1)), int(rng.integers(1, 6))
        make = random_model_with_zeros if i % 2 else random_full_support_model
        yield make(rng, n_in, n_out)


def _outcomes(model):
    return [y for y, w in zip(model.output_alphabet.symbols, model.marginal.probs) if w > 0]


def _grouping_max(model, y, partitions):
    """log max(1, best block ratio) from shattering_value, one grouping per row."""
    best = 0.0
    for rows in partitions:
        for row in rows:
            grouping = dict(zip(model.input_alphabet.symbols, row.tolist()))
            best = max(best, shattering_value(model, y, grouping))
    return best


class TestArrayEnumerationAgainstReferences:
    def test_seeded_models_cover_zeros(self):
        models = list(_seeded_models(101, 40, 12))
        assert any((m.prior.probs == 0).any() for m in models)
        assert any((posterior(m, y).probs == 0).any() for m in models for y in _outcomes(m))

    def test_subset_oracle_bit_for_bit(self):
        for model in _seeded_models(101, 40, 12):
            for y in _outcomes(model):
                assert subset_oracle(model, y) == _reference_subset_oracle(model, y)

    def test_function_oracle_bit_for_bit_against_groupings(self):
        # The array oracle and shattering_value both form a block's mass by
        # adding its atoms in index order, so the two routes agree exactly.
        for model in _seeded_models(103, 30, 7):
            n = model.input_alphabet.size
            for y in _outcomes(model):
                for k in range(1, n + 1):
                    expected = _grouping_max(model, y, _reference_set_partitions(n, k))
                    assert randomized_function_oracle(model, y, k) == expected

    def test_function_oracle_against_per_bucket_loop(self):
        # The loop formed block masses as a BLAS matrix-vector product, whose
        # summation order is the kernel's, not index order; for blocks of four
        # or more atoms the two sums can differ in the last bits.  That shows
        # where the posterior equals the prior up to rounding and the best
        # ratio is 1 + a few ulp, so the logs may differ by the rounding of
        # two sums of at most n terms.
        for model in _seeded_models(107, 30, 10):
            n = model.input_alphabet.size
            tol = 4 * n * np.finfo(float).eps
            for y in _outcomes(model)[:2]:
                for k in range(1, n + 1):
                    got = randomized_function_oracle(model, y, k)
                    assert got == pytest.approx(_reference_function_oracle(model, y, k), abs=tol)

    def test_strategy_check_bit_for_bit(self):
        rng = np.random.default_rng(109)
        for model in _seeded_models(109, 20, 8):
            for y in _outcomes(model):
                d = int(rng.integers(1, 5))
                g = GainFunction(
                    model.input_alphabet,
                    Alphabet(list(range(d))),
                    rng.uniform(size=(model.input_alphabet.size, d)),
                )
                for resolution in (1, 7, 20):
                    got = randomized_strategy_check(model, y, g, resolution)
                    assert got is _reference_strategy_check(model, y, g, resolution)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_partition_counts_and_blocks(self, n):
        full = (1 << n) - 1
        for k in range(1, n + 1):
            blocks = _set_partitions(n, k)
            assert blocks.shape == (_count_partitions(n, k), k)
            assert not blocks.flags.writeable
            union = np.bitwise_or.reduce(blocks, axis=1)
            assert (union == full).all()
            assert (blocks.sum(axis=1) == union).all()  # pairwise disjoint
            canonical = np.sort(blocks, axis=1)
            canonical = canonical[np.lexsort(canonical.T[::-1])]
            assert np.diff(canonical, axis=0).any(axis=1).all()  # no repeated partition

    @pytest.mark.parametrize("n", range(1, 9))
    def test_partitions_equal_reference_strings(self, n):
        for k in range(1, n + 1):
            strings = np.concatenate(_reference_set_partitions(n, k))
            masks = np.zeros((len(strings), k), dtype=np.intp)
            for i in range(n):
                masks[np.arange(len(strings)), strings[:, i]] |= 1 << i
            assert sorted(map(tuple, masks)) == sorted(map(tuple, _set_partitions(n, k)))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_block_events_are_the_reference_blocks(self, n):
        # The rule randomized_function_oracle scores by: with k >= 2 groups
        # every event is a block of some grouping, and with one group only
        # the full event is.  A label a string leaves unused marks the empty
        # event, whose ratio 0/0 reads 1 like the oracle's clamp.
        bits = 1 << np.arange(n)
        events = np.arange(1 << n)
        for k in range(1, n + 1):
            strings = np.concatenate(_reference_set_partitions(n, k))
            expected = np.zeros(1 << n, dtype=bool)
            for g in range(k):
                expected[((strings == g) * bits).sum(axis=1)] = True
            rule = events >= 0 if k >= 2 else events == events[-1]
            assert np.array_equal(expected, rule)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("resolution", [1, 7, 50])
    def test_simplex_grid_rows_in_generator_order(self, dim, resolution):
        grid = _simplex_grid(dim, resolution)
        expected = np.array(list(_reference_simplex_grid(dim, resolution)))
        assert grid.shape == expected.shape
        assert np.array_equal(grid, expected)
        assert not grid.flags.writeable


def _served_from_cache(cached, *args) -> bool:
    """Whether the lru_cache'd function answers these arguments from the one
    entry the last call left, returning the same object twice."""
    hits = cached.cache_info().hits
    first = cached(*args)
    return cached.cache_info().hits == hits + 1 and cached(*args) is first


class TestPriorEventMemo:
    """The prior's event table is memoized per prior; no call may read
    the table of another model."""

    def test_alternating_models_never_see_a_stale_table(self):
        full = random_full_support_model(np.random.default_rng(131), 6, 3)
        zeros = random_model_with_zeros(np.random.default_rng(137), 6, 4)
        assert (full.prior.probs > 0).all() and (zeros.prior.probs == 0).any()
        partitions = _reference_set_partitions(6, 6)
        for model in (full, zeros, full):
            for y in _outcomes(model):
                assert subset_oracle(model, y) == _reference_subset_oracle(model, y)
                assert _served_from_cache(oracles._prior_events, model.prior)
                expected = _grouping_max(model, y, partitions)
                assert randomized_function_oracle(model, y, 6) == expected

    def test_plain_divide_at_the_subset_cap(self):
        n = oracles.SUBSET_CAP
        full = random_full_support_model(np.random.default_rng(139), n, 2)
        zeros = random_model_with_zeros(np.random.default_rng(149), n, 3)
        assert 0 < (zeros.prior.probs == 0).sum() < n
        for model in (full, zeros):
            y = _outcomes(model)[0]
            assert subset_oracle(model, y) == _reference_subset_oracle(model, y)
            masked = oracles._set_ratios(
                oracles._subset_sums(posterior(model, y).probs),
                oracles._subset_sums(model.prior.probs),
            )
            assert np.array_equal(oracles._event_ratios(model, y), masked)


class TestPosteriorMemo:
    """Oracles share one posterior per (model, outcome); no call may read the
    posterior of another model."""

    @staticmethod
    def _every_oracle(model, y):
        rng = np.random.default_rng(157)
        n = model.input_alphabet.size
        g = GainFunction(model.input_alphabet, Alphabet([0, 1, 2]), rng.uniform(size=(n, 3)))
        halves = dict(zip(model.input_alphabet.symbols, [i % 2 for i in range(n)]))
        return (
            subset_oracle(model, y),
            partition_oracle(model, y, 0.05),
            build_partition_gain(model, y, 0.01).cells,
            shattering_value(model, y, halves),
            gain_ratio(model, y, g),
            randomized_strategy_check(model, y, g, 7),
            tuple(randomized_function_oracle(model, y, k) for k in (1, 2, n)),
        )

    def test_alternating_models_never_see_a_stale_posterior(self, monkeypatch):
        # Both models label their outcomes 0, 1, ..., so a memo keyed on the
        # outcome alone would serve the first model's posteriors to the second.
        full = random_model_with_zeros(np.random.default_rng(163), 6, 3)
        full = JointModel(uniform(full.input_alphabet), full.channel)
        zeros = random_model_with_zeros(np.random.default_rng(137), 6, 4)
        assert (full.prior.probs > 0).all() and (zeros.prior.probs == 0).any()
        with monkeypatch.context() as m:
            m.setattr(oracles, "_posterior", posterior)
            expected = {id(model): [self._every_oracle(model, y) for y in _outcomes(model)]
                        for model in (full, zeros)}
        for model in (full, zeros, full):
            for y, want in zip(_outcomes(model), expected[id(model)]):
                assert self._every_oracle(model, y) == want
                assert _served_from_cache(oracles._posterior, model, y)

    def test_strategies_build_one_posterior_per_outcome(self, tmp_path, monkeypatch, capsys):
        model = random_full_support_model(np.random.default_rng(167), 12, 6)
        path = tmp_path / "model.json"
        save_model_json(model, path)
        built = []
        original = distributions.DiscreteDistribution.__post_init__

        def counting(self):
            original(self)
            built.append(self.alphabet.size)

        monkeypatch.setattr(distributions.DiscreteDistribution, "__post_init__", counting)
        argv = ["verify", str(path), "--oracle", "strategies", "--gains", "6"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        # the prior is the one other law over the 12 inputs
        assert built.count(12) - 1 <= 6


def test_function_oracle_covers_every_map_to_k_labels():
    # Every map E -> [k] from itertools.product, scored by shattering_value:
    # a route that shares no code with the partition enumeration.
    models = list(_seeded_models(113, 12, 5))
    models.append(random_model_with_zeros(np.random.default_rng(127), 6, 3))
    for model in models:
        n = model.input_alphabet.size
        y = _outcomes(model)[-1]
        for k in range(1, n + 1):
            best = max(
                shattering_value(model, y, dict(zip(model.input_alphabet.symbols, labels)))
                for labels in itertools.product(range(k), repeat=n)
            )
            got = randomized_function_oracle(model, y, k)
            assert got == pytest.approx(max(best, 0.0), rel=1e-15, abs=0.0)


def test_binary_functions_suffice():
    # Every non-empty event is a block of the grouping {A, E \ A} (or of the
    # one-block grouping), so with two groups or more the function oracle is
    # the subset oracle, clamped at 0, bit for bit.
    models = list(_seeded_models(151, 60, 9))
    assert any((m.prior.probs == 0).any() for m in models if m.input_alphabet.size >= 2)
    cases = 0
    for model in models:
        n = model.input_alphabet.size
        if n < 2:
            continue
        for y in _outcomes(model):
            expected = max(0.0, subset_oracle(model, y))
            for k in range(2, n + 2):
                assert randomized_function_oracle(model, y, k) == expected
                cases += 1
    assert cases > 500
