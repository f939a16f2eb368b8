"""Batch planning, MLM training, gradient checking, and fine-tuning."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from ..atomic import replacing
from ..bpe import PAD_ID
from ..errors import MetricError, TrainingError, UsageError
from ..metrics import ClassWeights
from .encoder import ClassifierModel, EncoderModel, HeadKind, RowGrad, blocks
from .masking import IGNORE_LABEL, MaskedBatch, make_masked_batch, pad_rows

MOMENTUM = 0.9
_PREDICT_BATCH = 32
_LOSS_BLOCK_BYTES = 1 << 20  # the loss's row block: about an L2 cache


@dataclass(frozen=True)
class BatchPlan:
    micro_batch_seqs: int
    seq_len: int
    accumulation_steps: int

    @property
    def effective_tokens(self) -> int:
        return self.micro_batch_seqs * self.seq_len * self.accumulation_steps


def plan_batches(target_tokens: int, micro_batch_seqs: int, seq_len: int) -> BatchPlan:
    """Fewest accumulation steps whose effective batch covers the target."""
    if min(target_tokens, micro_batch_seqs, seq_len) <= 0:
        raise UsageError("target_tokens, micro_batch_seqs and seq_len must be positive")
    steps = math.ceil(target_tokens / (micro_batch_seqs * seq_len))
    return BatchPlan(micro_batch_seqs=micro_batch_seqs, seq_len=seq_len, accumulation_steps=steps)


# -- losses --------------------------------------------------------------------


def _cross_entropy_rows(flat_logits: np.ndarray, targets: np.ndarray):
    """Per-row CE and softmax probs for [N, V] logits, numerically stable.

    Overwrites ``flat_logits``: the returned probs are that same array, so
    an [N, V] head costs one array. Pass a copy to keep the logits. The
    passes over a row (max, subtract, exp, sum, divide) run on blocks of
    about ``_LOSS_BLOCK_BYTES``, which stay in cache from one pass to the
    next; each pass works row by row, so blocking changes no bit.
    """
    n, V = flat_logits.shape
    target_logits = flat_logits[np.arange(n), targets]
    ce = np.empty(n, dtype=flat_logits.dtype)
    step = max(1, _LOSS_BLOCK_BYTES // (V * flat_logits.itemsize))
    for lo in range(0, n, step):
        block = flat_logits[lo : lo + step]
        m = block.max(axis=-1, keepdims=True)
        block -= m
        np.exp(block, out=block)
        total = block.sum(axis=-1, keepdims=True)
        ce[lo : lo + step] = (np.log(total) + m)[:, 0] - target_logits[lo : lo + step]
        block /= total
    return ce, flat_logits


def mlm_loss_sums(
    model: EncoderModel, batch: MaskedBatch, *, grads: Optional[dict] = None, logits: Optional[np.ndarray] = None
):
    """Summed CE over labeled positions plus the label count.

    With ``grads`` (from ``model.zero_grads()``) the batch's gradient sums
    are added into it. Returning sums (not means) keeps gradient
    accumulation exactly linear: micro-batches add into one dict, and the
    caller divides once by the total count. Only the labeled rows go
    through the encoder's last block and the vocabulary head (BERT's
    ``gather_indexes``), as one [1, N, d] batch. ``logits``, a flat array
    of at least N * vocab_size elements, takes the head's [N, V] output in
    place of a new array.
    """
    labeled = batch.labels != IGNORE_LABEL
    count = int(labeled.sum())
    if count == 0:
        raise TrainingError("batch has no labeled (masked) positions")
    y, cache = model.hidden_states(batch.input_ids, batch.attn_mask, want_cache=grads is not None, rows=labeled)
    targets = batch.labels[labeled]
    out = None if logits is None else logits[: count * model.config.vocab_size].reshape(1, count, -1)
    ce, probs = _cross_entropy_rows(model.logits_mlm(y[None], out=out)[0], targets)
    loss_sum = float(ce.sum())
    if grads is not None:
        probs[np.arange(count), targets] -= 1.0
        model.backward(cache, model.backward_mlm_head(y[None], probs[None], grads)[0], grads)
    return loss_sum, count


def classifier_loss_sums(
    clf: ClassifierModel,
    input_ids: np.ndarray,
    attn_mask: np.ndarray,
    labels: np.ndarray,
    weights: Optional[np.ndarray] = None,
    *,
    grads: Optional[dict] = None,
):
    """Weighted-CE sums for a classifier; weights index by class label.

    loss = sum(w_y * CE) with weight mass sum(w_y) returned alongside, so
    uniform weights reduce exactly to plain mean cross-entropy. ``labels``
    is a [B, T] grid like the MLM labels: a sequence head's label sits at
    position 0, and ``IGNORE_LABEL`` marks every row not scored. As in
    :func:`mlm_loss_sums`, gradient sums are added into ``grads`` (from
    ``clf.zero_grads()``) when it is given, and only the scored rows go
    through the encoder's last block and ``cls_head``.
    """
    labels = np.asarray(labels)
    scored = labels != IGNORE_LABEL
    targets = labels[scored]
    if targets.size == 0:
        raise TrainingError("batch has no labeled positions")
    if targets.min() < 0 or targets.max() >= clf.n_classes:
        raise MetricError(f"labels must lie in [0, {clf.n_classes}) or be IGNORE_LABEL")
    rows, cache = clf.encoder.hidden_states(input_ids, attn_mask, want_cache=grads is not None, rows=scored)
    head_w = clf.params["cls_head.w"]
    ce, probs = _cross_entropy_rows(rows @ head_w + clf.params["cls_head.b"], targets)
    w = np.ones(len(targets), dtype=probs.dtype) if weights is None else np.asarray(weights)[targets]
    loss_sum = float((w * ce).sum())
    weight_sum = float(w.sum())
    if grads is not None:
        probs[np.arange(len(targets)), targets] -= 1.0
        probs *= w[:, None]
        grads["cls_head.w"] += rows.T @ probs
        grads["cls_head.b"] += probs.sum(axis=0)
        clf.encoder.backward(cache, probs @ head_w.T, grads)
    return loss_sum, weight_sum


def _zero(grads: dict) -> None:
    """Zero ``grads`` in place for the next step, so a run makes one dict."""
    for name, g in grads.items():
        if isinstance(g, RowGrad):
            grads[name] = RowGrad.empty(g.values)
        else:
            g.fill(0)


# -- optimizer -------------------------------------------------------------------


class MomentumSGD:
    """Heavy-ball gradient descent (momentum ``MOMENTUM``) with linear LR warmup.

    A :class:`RowGrad` tensor is updated only on its live rows: rows it has
    held at some step so far (embedding rows of tokens seen). Its velocity
    is a ``RowGrad`` over those rows, so it takes memory for them alone.
    Every other row has zero velocity and zero gradient, and the dense
    update would leave it bit-for-bit unchanged (0.9 * 0 + 0 = 0). Every
    other gradient updates its tensor densely, a block of rows at a time
    through one small scratch array. Parameters absent from ``grads`` are
    not touched.
    """

    def __init__(self, lr: float, warmup_steps: int = 0):
        self.lr = lr
        self.warmup_steps = warmup_steps
        self.velocity: dict[str, Union[np.ndarray, RowGrad]] = {}

    def rate(self, step_index: int) -> float:
        if self.warmup_steps > 0:
            return self.lr * min(1.0, (step_index + 1) / self.warmup_steps)
        return self.lr

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], step_index: int) -> None:
        lr_t = self.rate(step_index)
        for name, g in grads.items():
            p = params[name]
            if name not in self.velocity:
                self.velocity[name] = RowGrad.empty(p) if isinstance(g, RowGrad) else np.zeros(p.shape, p.dtype)
            v = self.velocity[name]
            if isinstance(g, RowGrad):
                rows = np.union1d(v.rows, g.rows)
                v = self.velocity[name] = RowGrad(rows, MOMENTUM * v.at(rows) + g.at(rows))
                p[rows] -= lr_t * v.values
                continue
            v *= MOMENTUM
            v += g
            # p -= lr_t * v a block of rows at a time, through a scratch array
            # of the dtype lr_t * v has: the same bits, and no temporary the
            # size of the tensor
            parts = blocks(len(p), p.nbytes // len(p))
            widest = max(part.stop - part.start for part in parts)
            scratch = np.empty_like(v[:widest], dtype=np.result_type(v, lr_t))
            for part in parts:
                p[part] -= np.multiply(v[part], lr_t, out=scratch[: part.stop - part.start])


# -- MLM training ------------------------------------------------------------------


def train_mlm(
    model: EncoderModel,
    reader: Iterable[Sequence[int]],
    plan: BatchPlan,
    steps: int,
    lr: float,
    seed: int = 0,
    *,
    mask_rate: float = 0.15,
    warmup_steps: int = 0,
    remask_each_step: bool = True,
    loss_csv: Optional[str | Path] = None,
    counters: Optional[dict] = None,
) -> list[float]:
    """Accumulated-micro-batch MLM training; returns per-step mean loss.

    Sequences are cut to the plan's length once, as read, and cycle in
    reader order; each micro-batch is padded to its longest. Masks are keyed
    by (seed, stream position), so runs are reproducible and invariant to how
    a step splits into micro-batches. With ``remask_each_step`` off, positions
    wrap at the dataset size, so every pass reuses the same masks
    (memorization runs). ``counters`` gets ``truncated_tokens`` (cut) and
    ``real_tokens`` (the non-pad positions trained).
    """
    model.config.check_vocab(getattr(reader, "vocab_checksum", None), "shard")
    if plan.seq_len > model.config.max_positions:
        raise UsageError(f"plan seq_len {plan.seq_len} exceeds model max_positions")

    seqs = [s for s in reader if len(s)]
    truncated = sum(max(0, len(s) - plan.seq_len) for s in seqs)
    seqs = [s[: plan.seq_len] for s in seqs]
    if not seqs:
        raise UsageError("reader yielded no non-empty sequences")

    optimizer = MomentumSGD(lr, warmup_steps=warmup_steps)
    losses: list[float] = []
    cursor = real = 0
    # one head output for every micro-batch, grown to the most labels seen:
    # the largest array of a step is not freed and remade, which leaves
    # the allocator's heap holes that the next one may not fit
    logits = np.empty(0, dtype=model.config.np_dtype)
    grads = model.zero_grads()
    for step in range(steps):
        loss_sum_total = 0.0
        count_total = 0
        for _ in range(plan.accumulation_steps):
            picks = [(cursor + i) % len(seqs) for i in range(plan.micro_batch_seqs)]
            keys = [cursor + i if remask_each_step else picks[i] for i in range(len(picks))]
            batch = make_masked_batch(
                [seqs[p] for p in picks],
                mask_rate,
                vocab_size=model.config.vocab_size,
                seed=seed,
                indices=keys,
            )
            cursor += plan.micro_batch_seqs
            real += int(batch.attn_mask.sum())
            size = int((batch.labels != IGNORE_LABEL).sum()) * model.config.vocab_size
            if logits.size < size:
                logits = np.empty(size, dtype=logits.dtype)
            loss_sum, count = mlm_loss_sums(model, batch, grads=grads, logits=logits)
            loss_sum_total += loss_sum
            count_total += count
        loss = loss_sum_total / count_total
        if not np.isfinite(loss):
            raise TrainingError("loss is not finite", step=step)
        for name in grads:
            grads[name] /= count_total
        optimizer.step(model.params, grads, step)
        _zero(grads)
        losses.append(loss)
    if counters is not None:
        counters.update(truncated_tokens=truncated, real_tokens=real)

    if loss_csv is not None:
        with replacing(loss_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "loss"])
            for i, value in enumerate(losses):
                writer.writerow([i, f"{value:.6f}"])
    return losses


# -- gradient check -----------------------------------------------------------------


def grad_check(model: EncoderModel, batch: MaskedBatch, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Runs in float64 regardless of the model's dtype. The relative error
    denominator is floored at 1e-4 so components whose true gradient is
    ~zero are judged on (scaled) absolute error instead of noise ratio.
    """
    m64 = model.astype("float64")

    grads = m64.zero_grads()
    _, count = mlm_loss_sums(m64, batch, grads=grads)
    worst = 0.0
    for name in m64.param_names:
        tensor = m64.params[name]
        g = grads[name]
        analytic = (g.at(np.arange(len(tensor))) if isinstance(g, RowGrad) else g) / count
        flat = tensor.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            up, cnt = mlm_loss_sums(m64, batch)
            flat[i] = orig - epsilon
            down, _ = mlm_loss_sums(m64, batch)
            flat[i] = orig
            numeric = (up / cnt - down / cnt) / (2 * epsilon)
            a = analytic.reshape(-1)[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-4)
            worst = max(worst, err)
    return worst


# -- fine-tuning -------------------------------------------------------------------


def attach_head(model: EncoderModel, kind: str | HeadKind, n_classes: int) -> ClassifierModel:
    """Wrap the encoder with a sequence- or token-classification head."""
    if n_classes < 2:
        raise UsageError(f"n_classes must be at least 2, got {n_classes}")
    kind = HeadKind(kind) if isinstance(kind, str) else kind
    return ClassifierModel(encoder=model, kind=kind, n_classes=n_classes)


def _pad_batch(items: list, kind: HeadKind) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    T = max(1, *(len(ids) for ids, _ in items))  # an all-empty batch keeps position 0
    input_ids, attn = pad_rows([ids for ids, _ in items], T, PAD_ID)
    if kind is HeadKind.SEQUENCE:
        labels, _ = pad_rows([[lab] for _, lab in items], T, IGNORE_LABEL)
        return input_ids, attn, labels
    if any(len(lab) != len(ids) for ids, lab in items):
        raise UsageError("token-class labels must align 1:1 with tokens")
    labels, _ = pad_rows([lab for _, lab in items], T, IGNORE_LABEL)
    return input_ids, attn, labels


def _resolve_weights(
    class_weights: Union[ClassWeights, np.ndarray, Sequence[float], None],
    train_labels: np.ndarray,
    n_classes: int,
) -> np.ndarray:
    from ..metrics import WeightMode, class_weights as compute_weights

    if class_weights is None:
        counts = np.bincount(train_labels, minlength=n_classes)
        return compute_weights(counts, WeightMode.INVERSE_FREQUENCY).weights
    w = class_weights.weights if isinstance(class_weights, ClassWeights) else np.asarray(class_weights, dtype=np.float64)
    if w.shape != (n_classes,):
        raise MetricError(f"need {n_classes} class weights, got shape {w.shape}")
    observed = np.unique(train_labels)
    if (w[observed] <= 0).any():
        bad = int(observed[(w[observed] <= 0).argmax()])
        raise MetricError(f"class {bad} is observed but has non-positive weight")
    return w


def finetune(
    classifier: ClassifierModel,
    train_data: Sequence[tuple],
    class_weights: Union[ClassWeights, np.ndarray, Sequence[float], None] = None,
    *,
    eval_data: Optional[Sequence[tuple]] = None,
    batch_size: int = 32,
    lr: float = 1e-5,
    epochs: int = 1,
    warmup_steps: int = 0,
    seed: int = 0,
) -> tuple[ClassifierModel, list]:
    """Weighted-cross-entropy fine-tuning; returns (classifier, predictions).

    Items are (token ids, label) for sequence heads -- inputs must already
    start with the class-marker token -- or (token ids, per-token labels)
    for token heads. With ``class_weights`` omitted, inverse-frequency
    weights are computed from the training labels (erroring if any class in
    range is absent). Predictions are argmax over ``eval_data`` when given,
    else over the training data.
    """
    if not train_data:
        raise UsageError("no training data")
    if batch_size < 1:
        raise UsageError(f"batch_size must be at least 1, got {batch_size}")
    if epochs < 0:
        raise UsageError(f"epochs must be non-negative, got {epochs}")
    kind = classifier.kind
    if kind is HeadKind.SEQUENCE:
        all_labels = np.asarray([lab for _, lab in train_data], dtype=np.int64)
    else:
        all_labels = np.concatenate([np.asarray(lab, dtype=np.int64) for _, lab in train_data])
        all_labels = all_labels[all_labels != IGNORE_LABEL]
        if all_labels.size == 0:
            raise MetricError("no token of the training data is labeled")
    if all_labels.max() >= classifier.n_classes or all_labels.min() < 0:
        raise MetricError(f"labels must lie in [0, {classifier.n_classes})")
    weights = _resolve_weights(class_weights, all_labels, classifier.n_classes)

    rng = np.random.default_rng(seed)
    optimizer = MomentumSGD(lr, warmup_steps=warmup_steps)
    grads = classifier.zero_grads()
    step = 0
    for _ in range(epochs):
        order = rng.permutation(len(train_data))
        for start in range(0, len(order), batch_size):
            items = [train_data[i] for i in order[start : start + batch_size]]
            input_ids, attn, labels = _pad_batch(items, kind)
            if (labels == IGNORE_LABEL).all():
                continue  # every token of the batch is unlabeled: nothing to learn
            loss_sum, weight_sum = classifier_loss_sums(
                classifier, input_ids, attn, labels, weights, grads=grads
            )
            if not np.isfinite(loss_sum):
                raise TrainingError("loss is not finite", step=step)
            for name in grads:
                grads[name] /= weight_sum
            merged_params = {**classifier.encoder.params, **classifier.params}
            optimizer.step(merged_params, grads, step)
            _zero(grads)
            step += 1

    predictions = predict(classifier, eval_data if eval_data is not None else train_data)
    return classifier, predictions


def predict(classifier: ClassifierModel, data: Sequence[tuple]) -> list:
    """Argmax predictions; token heads yield one label array per item.

    A sequence head scores position 0 of every item, even an empty one; a
    token head scores every real token.
    """
    sequence = classifier.kind is HeadKind.SEQUENCE
    out: list = []
    for start in range(0, len(data), _PREDICT_BATCH):
        items = list(data[start : start + _PREDICT_BATCH])
        input_ids, attn, _ = _pad_batch(items, classifier.kind)
        sizes = np.array([1 if sequence else len(ids) for ids, _ in items])
        scored = np.arange(input_ids.shape[1]) < sizes[:, None]
        rows, _ = classifier.encoder.hidden_states(input_ids, attn, rows=scored)
        preds = (rows @ classifier.params["cls_head.w"] + classifier.params["cls_head.b"]).argmax(axis=-1)
        if sequence:
            out.extend(int(i) for i in preds)
        else:
            out.extend(np.split(preds, np.cumsum(sizes)[:-1]))
    return out
