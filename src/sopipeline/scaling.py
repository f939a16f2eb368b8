"""Compute-budget planning: parameter counts, the 20-tokens-per-parameter
rule, and cloud GPU cost estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import UsageError

TOKENS_PER_PARAM = 20
DEFAULT_BATCH_TOKENS = 500_000
DEFAULT_RATE_PER_HOUR = 1.0
DEFAULT_PERF_RATIO = 1.8


@dataclass(frozen=True)
class ModelShape:
    n_layers: int
    hidden: int
    vocab_size: int
    max_positions: int
    head_tied: bool = True

    def __post_init__(self):
        if min(self.n_layers, self.hidden, self.vocab_size, self.max_positions) < 0 or self.hidden == 0:
            raise UsageError(f"shape fields must be positive: {self}")
        if self.hidden % 2:
            raise UsageError(f"hidden size must be even, got {self.hidden}")


@dataclass
class TrainPlan:
    params: int
    min_tokens: int
    tokens_per_hour: float
    gpu_hours: float
    dollars: int
    steps_for_budget: int
    shape: Optional[ModelShape] = None


def estimate_params(shape: ModelShape) -> int:
    """Closed-form parameter count for a standard pre-norm encoder block
    stack (4x FFN): per layer 12d^2 + 13d, plus embeddings, final norm, and
    the output head when untied. Matches exact tensor enumeration of the
    desk-scale encoder for the same shape."""
    d, v, p = shape.hidden, shape.vocab_size, shape.max_positions
    total = shape.n_layers * (12 * d * d + 13 * d)
    total += (v + p) * d  # token + position embeddings
    total += 2 * d  # final layer norm
    if not shape.head_tied:
        total += d * v + v
    return total


def min_tokens(params: int) -> int:
    """Compute-optimal floor: 20 training tokens per parameter."""
    if params <= 0:
        raise UsageError(f"params must be positive, got {params}")
    return TOKENS_PER_PARAM * params


def estimate_cost(gpu_hours: float, rate_per_hour: float, perf_ratio: float) -> int:
    """Whole-dollar ceiling of hours x rate, scaled down by the measured
    performance ratio of the priced GPU over the reference one."""
    if min(gpu_hours, rate_per_hour, perf_ratio) <= 0:
        raise UsageError("gpu_hours, rate_per_hour and perf_ratio must all be positive")
    dollars = gpu_hours * rate_per_hour / perf_ratio
    if not math.isfinite(dollars):
        raise UsageError(f"gpu_hours x rate_per_hour / perf_ratio is not finite: {gpu_hours} x {rate_per_hour}"
                         f" / {perf_ratio}")
    return math.ceil(dollars)


def plan_budget(
    budget_gpu_hours: float,
    throughputs: Sequence[float],
    candidate_shapes: Sequence[ModelShape],
    *,
    rate_per_hour: float = DEFAULT_RATE_PER_HOUR,
    perf_ratio: float = DEFAULT_PERF_RATIO,
    batch_tokens: int = DEFAULT_BATCH_TOKENS,
) -> Optional[TrainPlan]:
    """Pick the largest shape trainable to the 20:1 optimum in budget.

    A shape is feasible when its token floor fits in budget_gpu_hours at
    its own measured throughput (boundary inclusive). Returns None when no
    candidate is feasible.
    """
    if not candidate_shapes:
        raise UsageError("no candidate shapes supplied")
    if len(throughputs) != len(candidate_shapes):
        raise UsageError("need one throughput per candidate shape")
    if any(t <= 0 for t in throughputs):
        raise UsageError("throughputs must be positive")

    best: Optional[TrainPlan] = None
    for shape, tph in zip(candidate_shapes, throughputs):
        params = estimate_params(shape)
        floor = min_tokens(params)
        achievable = budget_gpu_hours * tph
        if not math.isfinite(achievable):
            raise UsageError(f"gpu hours x throughput is not finite: {budget_gpu_hours} x {tph}")
        if floor > achievable:
            continue
        if best is not None and params <= best.params:
            continue
        # feasible implies achievable >= floor > 0, so budget is positive here
        best = TrainPlan(
            params=params,
            min_tokens=floor,
            tokens_per_hour=tph,
            gpu_hours=budget_gpu_hours,
            dollars=estimate_cost(budget_gpu_hours, rate_per_hour, perf_ratio),
            steps_for_budget=int(achievable // batch_tokens),
            shape=shape,
        )
    return best
