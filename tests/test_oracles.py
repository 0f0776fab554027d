import itertools
import math
import tracemalloc
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
from pmlkit.errors import AlphabetMismatchError, CapacityError, ValidationError
from pmlkit import cli, distributions, oracles
from pmlkit.modelio import save_model_json
from pmlkit.oracles import _simplex_grid, atom_gain, atom_ratio
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

    def test_all_zero_gain_reads_zero_over_zero_as_one(self):
        model = random_full_support_model(np.random.default_rng(3), 4, 3)
        g = GainFunction(model.input_alphabet, Alphabet(["w"]), np.zeros((4, 1)))
        assert gain_ratio(model, "y0", g) == 1.0

    def test_rejects_negative_gains(self):
        a = Alphabet([0, 1])
        with pytest.raises(ValidationError):
            GainFunction(a, a, np.array([[1.0, -1.0], [0.0, 0.0]]))

    def test_rejects_a_table_of_the_wrong_shape(self):
        a = Alphabet([0, 1])
        with pytest.raises(ValidationError) as exc:
            GainFunction(a, Alphabet(["w"]), np.ones((2, 2)))
        assert str(exc.value) == "gain table shape (2, 2) does not match alphabets (2, 1)"


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

    def test_refuses_a_cell_whose_gain_overflows(self):
        a = Alphabet([0, 1, 2])
        model = JointModel(DiscreteDistribution(a, [0.5, 0.5, 5e-324]),
                           DiscreteChannel(a, Alphabet([0, 1]),
                                           [[0.5, 0.5], [0.9, 0.1], [0.01, 0.99]]))
        for y in (0, 1):  # the atom's cell: -inf (posterior 0) at y = 0, its own at y = 1
            with pytest.raises(CapacityError, match="has prior mass 5e-324, whose gain"):
                partition_oracle(model, y, 0.05)
            assert subset_oracle(model, y) == pytest.approx(pml(model, y).nats, abs=1e-12)

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

    @pytest.mark.parametrize("k", range(2, 6))
    def test_two_groups_on_meet_the_exact_band(self, k):
        # The binary-function reduction: from two groups on, every event is a block, so
        # the oracle equals pml at any k, also below |X|, within verify's exact band.
        for model in _seeded_models(60 + k, 12, 9):
            for y in _outcomes(model):
                assert randomized_function_oracle(model, y, k) == pytest.approx(
                    pml(model, y).nats, rel=0, abs=cli.GAP_TOL
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

    @pytest.mark.parametrize("constant", [1e5, 1e8])
    def test_a_constant_gain_passes_at_any_scale(self, constant):
        # every mixture of equal expected gains is that gain; rounding may put a
        # mixture's sum an ulp above it, which a slack of 1e-12 alone misses past 1e4
        model = random_full_support_model(np.random.default_rng(229), 3, 3)
        g = GainFunction(model.input_alphabet, Alphabet([0, 1, 2]), np.full((3, 3), constant))
        assert randomized_strategy_check(model, "y0", g, 50)

    def test_vertex_only_resolution(self):
        rng = np.random.default_rng(67)
        model = random_full_support_model(rng, 3, 3)
        g = GainFunction(model.input_alphabet, Alphabet([0, 1]), rng.uniform(size=(3, 2)))
        assert randomized_strategy_check(model, "y0", g, 1)

    @pytest.mark.parametrize("route", [
        lambda model, g: gain_ratio(model, "y0", g),
        lambda model, g: randomized_strategy_check(model, "y0", g, 10),
    ], ids=["gain_ratio", "strategy_check"])
    def test_rejects_another_secret_alphabet(self, route):
        model = random_full_support_model(np.random.default_rng(71), 3, 3)
        g = GainFunction(Alphabet(["a", "b", "c"]), Alphabet([0, 1]), np.ones((3, 2)))
        with pytest.raises(AlphabetMismatchError, match="secret alphabet does not match"):
            route(model, g)

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

    @pytest.mark.parametrize("resolution", [0, -2])
    def test_resolution_below_one_is_a_validation_error(self, resolution):
        model = random_full_support_model(np.random.default_rng(71), 3, 3)
        g = GainFunction(model.input_alphabet, Alphabet([0]), np.ones((3, 1)))
        with pytest.raises(ValidationError, match=f"must be >= 1, got {resolution}"):
            randomized_strategy_check(model, "y0", g, resolution)


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

    def test_approx_gain_requires_a_positive_radius(self):
        with pytest.raises(ValidationError, match="radius must be positive, got 0"):
            make_approx_gain(identity_channel(Alphabet([1, 2])), 0)


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


def _reference_shattering_value(model, y, grouping):
    """Group masses summed one atom at a time, in index order."""
    groups = sorted({grouping[x] for x in model.input_alphabet}, key=repr)
    index = {g: i for i, g in enumerate(groups)}
    post = posterior(model, y).probs
    prior = model.prior.probs
    post_w = np.zeros(len(groups))
    prior_w = np.zeros(len(groups))
    for i, x in enumerate(model.input_alphabet.symbols):
        j = index[grouping[x]]
        post_w[j] += post[i]
        prior_w[j] += prior[i]
    return math.log(_reference_best_set_ratio(post_w, prior_w))


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

    def test_shattering_value_bit_for_bit(self):
        rng = np.random.default_rng(199)
        for model in _seeded_models(199, 40, 12):
            n = model.input_alphabet.size
            for y in _outcomes(model):
                for k in (1, 2, 3, n):
                    labels = rng.integers(0, k, n).tolist()
                    grouping = dict(zip(model.input_alphabet.symbols, labels))
                    assert shattering_value(model, y, grouping) == (
                        _reference_shattering_value(model, y, grouping))

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
            buckets = _reference_set_partitions(n, k)
            assert all((strings.max(axis=1) == g).all() for g, strings in enumerate(buckets))
            strings = np.concatenate(buckets)
            assert len(strings) == _count_partitions(n, k)
            blocks = np.zeros((len(strings), k), dtype=np.intp)
            for i in range(n):
                blocks[np.arange(len(strings)), strings[:, i]] |= 1 << i
            union = np.bitwise_or.reduce(blocks, axis=1)
            assert (union == full).all()
            assert (blocks.sum(axis=1) == union).all()  # pairwise disjoint
            canonical = np.sort(blocks, axis=1)
            canonical = canonical[np.lexsort(canonical.T[::-1])]
            assert np.diff(canonical, axis=0).any(axis=1).all()  # no repeated partition

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
            assert oracles._event_extremes(model, y) == _full_table_extremes(model, y)


def _full_table_extremes(model, y):
    """The largest ratio over the non-empty events and the full event's
    ratio, read from one 2^n-entry table of each law's event masses."""
    masked = oracles._set_ratios(
        oracles._subset_sums(posterior(model, y).probs),
        oracles._subset_sums(model.prior.probs),
    )
    return float(masked[1:].max()), float(masked[-1])


def _with_zero_atoms(seed, n, zeros):
    """A full-support model on n inputs whose prior is then zeroed at ``zeros``."""
    model = random_full_support_model(np.random.default_rng(seed), n, 3)
    prior = model.prior.probs.copy()
    prior[list(zeros)] = 0.0
    prior /= prior.sum()
    return JointModel(DiscreteDistribution(model.input_alphabet, prior), model.channel)


class TestBlockedEvents:
    """At every size the event oracles score blocks of at most 2^13 events
    that share their high atoms, never a whole 2^n table; up to 13 inputs
    the one block holds every event."""

    @pytest.mark.parametrize("where, n", [
        (where, n) for n in (13, 14, 15, 16, 17, oracles.SUBSET_CAP)
        for where in ("low", "high", "all_high", "all_low") if (where, n) != ("all_low", 13)])
    def test_extremes_bit_for_bit_against_the_full_table(self, n, where):
        # zero atoms among the first 13 atoms, among the later ones, on
        # every later one (with a low one too, so a block whose high atoms
        # are all null also holds null events of its low atoms), or on each
        # of the first 13, so that every event of the first block is null
        # and np.fmax sees only NaN there; at 13 inputs the atoms from 13 on
        # do not exist, and some atom must carry the prior
        zeros = {"low": [1, 4, 12], "high": [2, 13, n - 1], "all_high": [5, *range(13, n)],
                 "all_low": range(13)}
        model = _with_zero_atoms(193 + n, n, [z for z in zeros[where] if z < n])
        for y in _outcomes(model):
            first, full = _full_table_extremes(model, y)
            assert oracles._event_extremes(model, y) == (first, full)
            # the prior's memo holds one block, never a table of 2^n masses
            assert oracles._prior_events(model.prior).size == 1 << min(n, oracles.BLOCK_BITS)
            assert subset_oracle(model, y) == math.log(first)
            for k in (2, n + 1):
                assert randomized_function_oracle(model, y, k) == math.log(max(1.0, first))
            assert randomized_function_oracle(model, y, 1) == math.log(max(1.0, full))

    def test_the_cap_holds_blocks_not_tables(self):
        model = random_full_support_model(np.random.default_rng(199), oracles.SUBSET_CAP, 2)
        subset_oracle(model, "y0")  # fills the prior's memo
        assert oracles._prior_events(model.prior).size == 1 << oracles.BLOCK_BITS
        tracemalloc.start()
        try:
            subset_oracle(model, "y1")
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 2^20 table of floats is 8 MiB; nothing a call allocates outlives it
        assert peak < 2 * 2**20
        assert left < 0.1 * 2**20


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


def test_strategies_score_each_drawn_gain_once(tmp_path, monkeypatch, capsys):
    # one gain_ratio per drawn gain at each outcome, in draw order; the atom gain
    # takes its own route, and no second pass re-scores a drawn gain
    model = random_model_with_zeros(np.random.default_rng(231), 7, 5)
    path = tmp_path / "model.json"
    save_model_json(model, path)
    calls = []

    def counting(model, y, g):
        calls.append((y, g))
        return gain_ratio(model, y, g)

    monkeypatch.setattr(cli, "gain_ratio", counting)
    assert cli.main(["verify", str(path), "--oracle", "strategies", "--gains", "4"]) == 0
    capsys.readouterr()
    gains = [g for _, g in calls[:4]]
    assert len(set(map(id, gains))) == 4
    assert calls == [(y, g) for y in _outcomes(model) for g in gains]


def test_strategies_hold_no_table_over_pairs_of_inputs(tmp_path, capsys):
    # The atom gain is held as its 1,000 diagonal entries and scored from them: a
    # dense 1,000 x 1,000 table of floats, or one product with it, is 8 MB.
    model = random_full_support_model(np.random.default_rng(233), 1000, 2)
    path = tmp_path / "wide.json"
    save_model_json(model, path)
    tracemalloc.start()
    try:
        code = cli.main(["verify", str(path), "--oracle", "strategies", "--gains", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak < 2**20


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


@pytest.mark.parametrize("n", [11, oracles.SUBSET_CAP])
def test_binary_functions_suffice_up_to_the_subset_cap(n):
    # The function oracle scores the subset oracle's events under its cap,
    # above the ten inputs it once stopped at.
    model = random_model_with_zeros(np.random.default_rng(181 + n), n, 3)
    assert 0 < (model.prior.probs == 0).sum() < n
    for y in _outcomes(model):
        expected = max(0.0, subset_oracle(model, y))
        for k in (2, n // 2, n + 1):
            assert randomized_function_oracle(model, y, k) == expected


def test_event_oracles_share_one_cap():
    model = random_full_support_model(np.random.default_rng(191), oracles.SUBSET_CAP + 1, 2)
    message = "subset and function oracles enumerate 2^n events; n=21 exceeds cap 20"
    for route in (lambda: subset_oracle(model, "y0"),
                  lambda: randomized_function_oracle(model, "y0", 2),
                  lambda: randomized_function_oracle(model, "y0", 0)):
        with pytest.raises(CapacityError) as exc:
            route()
        assert str(exc.value) == message


@pytest.mark.parametrize("oracle, message", [
    (subset_oracle, "the largest event ratio at outcome 1 overflows a float"),
    (lambda model, y: randomized_function_oracle(model, y, 2),
     "the largest event ratio at outcome 1 overflows a float"),
    (lambda model, y: shattering_value(model, y, {0: 0, 1: 1}),
     "the largest group ratio at outcome 1 overflows a float"),
    (lambda model, y: build_partition_gain(model, y, 0.05),
     "at outcome 1 the band log(ratio) / eps of input 1 overflows a float"),
    (lambda model, y: gain_ratio(model, y, GainFunction(model.input_alphabet, Alphabet([0]),
                                                        np.array([[0.0], [1.0]]))),
     "the gain ratio at outcome 1 overflows a float"),
    (lambda model, y: atom_gain(model),
     "prior atom 1 has mass 5e-324, whose gain 1/mass overflows a float"),
], ids=["subset", "functions", "shattering", "partition_gain", "gain_ratio", "atom_gain"])
def test_ratios_past_the_float_range_are_refused(oracle, message):
    # Outcome 1 reveals the prior atom of 5e-324: its pml of 744.44 nats lies past
    # log(DBL_MAX), so the atom's ratio, and every event's holding it, is +inf.
    a = Alphabet([0, 1])
    model = JointModel(DiscreteDistribution(a, [1.0, 5e-324]), identity_channel(a))
    assert pml(model, 1).nats == pytest.approx(744.44, abs=0.01)
    with pytest.raises(CapacityError) as exc:
        oracle(model, 1)
    assert str(exc.value) == message


def test_the_atom_gain_refuses_its_first_atom_past_the_float_range():
    # both subnormal atoms have a 1/mass past DBL_MAX; the refusal names the first
    a = Alphabet(["a", "b", "c", "d"])
    prior = DiscreteDistribution(a, [0.5, 1e-320, 0.5, 5e-324])
    model = JointModel(prior, identity_channel(a))
    with pytest.raises(CapacityError, match=r"^prior atom 'b' has mass 1e-320, whose gain 1/mass "
                                            r"overflows a float$"):
        atom_gain(model)


def test_the_atom_gain_attains_pml():
    # g(x, w) = 1{x = w} / P_X(x): its prior optimum is 1 and its posterior optimum
    # max_x P(x|y) / P(x), so its log ratio is pml, zero-prior atoms included
    models = [random_full_support_model(np.random.default_rng(173), 9, 5),
              random_model_with_zeros(np.random.default_rng(179), 9, 6)]
    for model in models:
        gain = atom_gain(model)
        assert gain.shape == (model.input_alphabet.size,)
        assert np.array_equal(gain > 0, model.prior.probs > 0)
        assert abs(float(np.max(model.prior.probs * gain)) - 1.0) <= 2.3e-16
        for y in _outcomes(model):
            assert abs(math.log(atom_ratio(model, y, gain)) - pml(model, y).nats) <= 1e-14


def _with_subnormal_atom(model):
    """``model`` with its last prior atom moved to 1e-308, subnormal, whose 1/mass is finite."""
    prior = model.prior.probs.copy()
    prior[-1], prior[0] = 1e-308, prior[0] + prior[-1]
    return JointModel(DiscreteDistribution(model.input_alphabet, prior), model.channel)


def test_the_atom_diagonal_scores_as_its_dense_table():
    # Each column of the dense table diag(g) holds one entry, so every expected gain,
    # and so the ratio, has the same bits from the diagonal alone.
    models = [random_model_with_zeros(np.random.default_rng(seed), n, 5)
              for seed, n in ((211, 7), (223, 12), (227, 30))]
    models += [_with_subnormal_atom(model) for model in models]
    assert all((model.prior.probs == 0).any() for model in models)
    for model in models:
        gain = atom_gain(model)
        dense = GainFunction(model.input_alphabet, model.input_alphabet, np.diag(gain))
        for y in _outcomes(model):
            assert atom_ratio(model, y, gain) == gain_ratio(model, y, dense)


def _gain(model):
    n = model.input_alphabet.size
    return GainFunction(model.input_alphabet, Alphabet([0, 1]), np.ones((n, 2)))


@pytest.mark.parametrize("oracle", [
    lambda model, y: subset_oracle(model, y),
    lambda model, y: partition_oracle(model, y, 0.05),
    lambda model, y: build_partition_gain(model, y, 0.05),
    lambda model, y: shattering_value(model, y, {x: 0 for x in model.input_alphabet}),
    lambda model, y: shattering_value(model, y, {}),
    lambda model, y: gain_ratio(model, y, _gain(model)),
    lambda model, y: randomized_strategy_check(model, y, _gain(model), 10),
    *(lambda model, y, k=k: randomized_function_oracle(model, y, k) for k in (1, 2)),
], ids=["subset", "partition", "partition_gain", "shattering", "shattering_partial_grouping",
        "gain_ratio", "strategies", "functions1", "functions2"])
def test_every_oracle_refuses_a_zero_probability_outcome(oracle):
    # Outcome "never" has P_Y = 0; a partial grouping still names the outcome.
    a = Alphabet(["x0", "x1", "x2"])
    matrix = np.array([[0.5, 0.5, 0.0], [0.25, 0.75, 0.0], [1.0, 0.0, 0.0]])
    model = JointModel(uniform(a), DiscreteChannel(a, Alphabet(["y0", "y1", "never"]), matrix))
    with pytest.raises(ValidationError, match="outcome 'never' has zero probability"):
        oracle(model, "never")
