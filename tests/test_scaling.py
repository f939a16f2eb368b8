"""Budget planner: parameter counts, token floors, dollar figures."""

import numpy as np
import pytest

from sopipeline.errors import UsageError
from sopipeline.mlm import EncoderConfig, build_encoder
from sopipeline.scaling import (
    ModelShape,
    estimate_cost,
    estimate_params,
    min_tokens,
    plan_budget,
)


class TestEstimateParams:
    def test_large_published_shape(self):
        params = estimate_params(ModelShape(24, 1536, 50_000, 2048, head_tied=True))
        assert abs(params - 762e6) / 762e6 < 0.02

    def test_base_published_shape(self):
        params = estimate_params(ModelShape(12, 768, 50_000, 2048, head_tied=True))
        assert abs(params - 125e6) / 125e6 < 0.05

    def test_degenerate_zero_layers(self):
        shape = ModelShape(0, 10, 100, 16, head_tied=True)
        assert estimate_params(shape) == (100 + 16) * 10 + 2 * 10
        untied = ModelShape(0, 10, 100, 16, head_tied=False)
        assert estimate_params(untied) == (100 + 16) * 10 + 2 * 10 + 10 * 100 + 100

    def test_matches_exact_tensor_enumeration(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n_heads = int(rng.integers(1, 4))
            d = n_heads * 2 * int(rng.integers(1, 5))
            shape = ModelShape(
                n_layers=int(rng.integers(0, 4)),
                hidden=d,
                vocab_size=int(rng.integers(10, 200)),
                max_positions=int(rng.integers(4, 64)),
                head_tied=bool(rng.integers(0, 2)),
            )
            model = build_encoder(
                EncoderConfig(
                    n_layers=shape.n_layers,
                    hidden=shape.hidden,
                    n_heads=n_heads,
                    vocab_size=shape.vocab_size,
                    max_positions=shape.max_positions,
                    tied_head=shape.head_tied,
                )
            )
            assert estimate_params(shape) == model.parameter_count, shape

    def test_monotonicity(self):
        base = ModelShape(4, 64, 1000, 128, head_tied=True)
        p0 = estimate_params(base)
        assert estimate_params(ModelShape(5, 64, 1000, 128, True)) > p0
        assert estimate_params(ModelShape(4, 66, 1000, 128, True)) > p0
        assert estimate_params(ModelShape(4, 64, 1001, 128, True)) > p0
        assert estimate_params(ModelShape(4, 64, 1000, 129, True)) > p0

    def test_odd_hidden_rejected(self):
        with pytest.raises(UsageError):
            ModelShape(1, 63, 100, 16)


class TestMinTokens:
    def test_published_floor(self):
        assert min_tokens(762_000_000) == 15_240_000_000
        assert min_tokens(762_000_000) >= 15_000_000_000

    def test_unit(self):
        assert min_tokens(1) == 20

    def test_linearity(self):
        assert min_tokens(110_000_000) == 2_200_000_000

    def test_rejects_nonpositive(self):
        with pytest.raises(UsageError):
            min_tokens(0)


class TestEstimateCost:
    def test_large_run(self):
        assert estimate_cost(2880, 1.0, 1.8) == 1600

    def test_base_run(self):
        assert estimate_cost(672, 1.0, 1.8) == 374

    def test_one_dollar(self):
        assert estimate_cost(1.8, 1.0, 1.8) == 1

    def test_ceiling_linearity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            h = float(rng.uniform(1, 5000))
            k = int(rng.integers(2, 9))
            single = estimate_cost(h, 1.0, 1.8)
            scaled = estimate_cost(k * h, 1.0, 1.8)
            assert abs(scaled - k * single) <= k  # ceil rounding slack

    def test_rejects_nonpositive(self):
        with pytest.raises(UsageError):
            estimate_cost(0, 1.0, 1.8)

    @pytest.mark.parametrize("hours, rate, ratio", [(1e308, 10.0, 1.8), (1e300, 1.0, 1e-300)])
    def test_product_beyond_float_range_names_it(self, hours, rate, ratio):
        with pytest.raises(UsageError, match="^gpu_hours x rate_per_hour / perf_ratio is not finite"):
            estimate_cost(hours, rate, ratio)


class TestPlanBudget:
    def _shapes(self):
        small = ModelShape(6, 384, 50_000, 1024, head_tied=True)   # ~30M params
        large = ModelShape(24, 1536, 50_000, 2048, head_tied=True)  # ~760M params
        return small, large

    def test_picks_largest_feasible(self):
        small, large = self._shapes()
        # budget 3000h: small @10M tok/h gets 30B >= its floor; large @4M gets
        # 12B < 15.2B floor -> pick small
        plan = plan_budget(3000, [10e6, 4e6], [small, large])
        assert plan.shape == small
        assert plan.min_tokens == 20 * estimate_params(small)
        # brute-force feasibility over both candidates
        for shape, tph in zip((small, large), (10e6, 4e6)):
            feasible = 20 * estimate_params(shape) <= 3000 * tph
            assert feasible == (shape == small)

    def test_zero_budget_infeasible(self):
        small, large = self._shapes()
        assert plan_budget(0, [10e6, 4e6], [small, large]) is None

    def test_boundary_is_feasible(self):
        shape = ModelShape(2, 64, 1000, 64, head_tied=True)
        floor = min_tokens(estimate_params(shape))
        plan = plan_budget(1.0, [float(floor)], [shape])  # exactly at the line
        assert plan is not None
        assert plan.steps_for_budget == floor // 500_000

    def test_empty_candidates(self):
        with pytest.raises(UsageError):
            plan_budget(10, [], [])

    def test_tokens_beyond_float_range_name_the_product(self):
        shape = ModelShape(2, 64, 1000, 64, head_tied=True)
        with pytest.raises(UsageError, match=r"^gpu hours x throughput is not finite: 1e\+300 x 1e\+300$"):
            plan_budget(1e300, [1e300], [shape])

    def test_dollar_figure_uses_cost_model(self):
        shape = ModelShape(2, 64, 1000, 64, head_tied=True)
        plan = plan_budget(672, [1e12], [shape])
        assert plan.dollars == 374
