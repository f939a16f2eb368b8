"""Batch planning, optimization, gradient checking, fine-tuning."""

import tracemalloc

import numpy as np
import pytest

from sopipeline import metrics, shards
from sopipeline.bpe import MIN_VOCAB_SIZE, PAD_ID, train_bpe
from sopipeline.errors import ChecksumMismatchError, MetricError, TrainingError, UsageError
from sopipeline.mlm import (
    IGNORE_LABEL,
    EncoderConfig,
    HeadKind,
    attach_head,
    build_encoder,
    finetune,
    grad_check,
    make_masked_batch,
    plan_batches,
    train_mlm,
)
from sopipeline.mlm import training
from sopipeline.mlm.encoder import RowGrad
from sopipeline.mlm.masking import MaskedBatch, pad_rows
from sopipeline.mlm.training import MomentumSGD, _cross_entropy_rows, classifier_loss_sums, mlm_loss_sums


def densified(grads, params):
    """``grads`` with each :class:`RowGrad` spread over its whole table."""
    return {k: g.at(np.arange(len(params[k]))) if isinstance(g, RowGrad) else g for k, g in grads.items()}


def dense_zero_grads(model):
    """Zero gradients with a dense ``tok_emb``: the embedding's dense route."""
    return {k: np.zeros_like(v) for k, v in model.params.items()}


def two_exp_cross_entropy(flat_logits, targets):
    """The two-``exp`` CE formula, kept as the oracle for the loss bits."""
    m = flat_logits.max(axis=-1, keepdims=True)
    shifted = flat_logits - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True)) + m
    rows = np.arange(flat_logits.shape[0])
    ce = lse[:, 0] - flat_logits[rows, targets]
    probs = np.exp(flat_logits - lse)
    return ce, probs


def unblocked_cross_entropy(flat_logits, targets):
    """The loss's passes each over every row at once (oracle for the row blocks)."""
    target_logits = flat_logits[np.arange(flat_logits.shape[0]), targets]
    m = flat_logits.max(axis=-1, keepdims=True)
    probs = flat_logits - m
    np.exp(probs, out=probs)
    total = probs.sum(axis=-1, keepdims=True)
    ce = (np.log(total) + m)[:, 0] - target_logits
    probs /= total
    return ce, probs


def dense_head_mlm_loss_sums(model, batch):
    """MLM loss and grads with the head over every [B, T] position (oracle)."""
    labeled = batch.labels != IGNORE_LABEL
    y, cache = model.hidden_states(batch.input_ids, batch.attn_mask, want_cache=True)
    logits = model.logits_mlm(y)
    flat = logits[labeled]
    targets = batch.labels[labeled]
    ce, probs = two_exp_cross_entropy(flat, targets)
    probs[np.arange(flat.shape[0]), targets] -= 1.0
    dlogits = np.zeros_like(logits)
    dlogits[labeled] = probs
    grads = dense_zero_grads(model)
    dy = model.backward_mlm_head(y, dlogits, grads)
    model.backward(cache, dy, grads)
    return float(ce.sum()), int(labeled.sum()), grads


def dense_classifier_loss_sums(clf, input_ids, attn_mask, labels, weights=None, *, grads=None):
    """Classifier loss and grads through dense [B, C] / [B, T, C] dlogits (oracle).

    A sequence head reads position 0 of ``y`` and of the label grid. The
    gradients are computed into a fresh dense dict and then added into
    ``grads``; a :class:`RowGrad` entry takes them over every row.
    """
    y, cache = clf.encoder.hidden_states(input_ids, attn_mask, want_cache=True)
    head_w, head_b = clf.params["cls_head.w"], clf.params["cls_head.b"]
    if clf.kind is HeadKind.SEQUENCE:
        logits = y[:, 0] @ head_w + head_b
        flat, targets = logits, labels[:, 0]
    else:
        logits = y @ head_w + head_b
        keep = labels != IGNORE_LABEL
        flat, targets = logits[keep], labels[keep]
    w = np.ones(len(targets), dtype=logits.dtype) if weights is None else np.asarray(weights)[targets]
    ce, dflat = _cross_entropy_rows(flat, targets)
    dflat[np.arange(len(targets)), targets] -= 1.0
    dflat *= w[:, None]
    params = {**clf.encoder.params, **clf.params}
    dense = {k: np.zeros_like(v) for k, v in params.items() if not k.startswith("head.")}
    if clf.kind is HeadKind.SEQUENCE:
        dense["cls_head.w"] += y[:, 0, :].T @ dflat
        dense["cls_head.b"] += dflat.sum(axis=0)
        dy = np.zeros_like(y)
        dy[:, 0, :] = dflat @ head_w.T
    else:
        dlogits = np.zeros_like(logits)
        dlogits[keep] = dflat
        dl2 = dlogits.reshape(-1, clf.n_classes)
        dense["cls_head.w"] += y.reshape(len(dl2), -1).T @ dl2
        dense["cls_head.b"] += dl2.sum(axis=0)
        dy = (dl2 @ head_w.T).reshape(y.shape)
    clf.encoder.backward(cache, dy, dense)
    if grads is not None:
        for name, g in dense.items():
            grads[name] += RowGrad(np.arange(len(g)), g) if isinstance(grads[name], RowGrad) else g
    return float((w * ce).sum()), float(w.sum())


def full_route_mlm_loss_sums(model, batch, grads):
    """mlm_loss_sums with the encoder on every [B, T] row: the head on the
    labeled rows, its dY scattered into a [B, T, d] zero array (oracle for
    the ``rows`` route)."""
    labeled = batch.labels != IGNORE_LABEL
    y, cache = model.hidden_states(batch.input_ids, batch.attn_mask, want_cache=True)
    rows = y[labeled][None]
    targets = batch.labels[labeled]
    ce, probs = _cross_entropy_rows(model.logits_mlm(rows)[0], targets)
    probs[np.arange(len(targets)), targets] -= 1.0
    dy = np.zeros_like(y)
    dy[labeled] = model.backward_mlm_head(rows, probs[None], grads)[0]
    model.backward(cache, dy, grads)
    return float(ce.sum())


def full_route_classifier_loss_sums(clf, input_ids, attn_mask, labels, weights, grads):
    """classifier_loss_sums with the encoder on every [B, T] row (oracle)."""
    scored = labels != IGNORE_LABEL
    targets = labels[scored]
    y, cache = clf.encoder.hidden_states(input_ids, attn_mask, want_cache=True)
    rows = y[scored]
    head_w = clf.params["cls_head.w"]
    ce, probs = _cross_entropy_rows(rows @ head_w + clf.params["cls_head.b"], targets)
    w = np.asarray(weights)[targets]
    probs[np.arange(len(targets)), targets] -= 1.0
    probs *= w[:, None]
    grads["cls_head.w"] += rows.T @ probs
    grads["cls_head.b"] += probs.sum(axis=0)
    dy = np.zeros_like(y)
    dy[scored] = probs @ head_w.T
    clf.encoder.backward(cache, dy, grads)
    return float((w * ce).sum())


def per_micro_batch_train_mlm(model, seqs, plan, steps, lr, seed, mask_rate=0.15):
    """train_mlm's step loop with a fresh dense gradient dict per micro-batch,
    the dicts added together (oracle for the one shared dict and ``RowGrad``)."""
    optimizer = MomentumSGD(lr)
    losses, cursor = [], 0
    for step in range(steps):
        total, loss_sum, count = None, 0.0, 0
        for _ in range(plan.accumulation_steps):
            keys = [cursor + i for i in range(plan.micro_batch_seqs)]
            batch = make_masked_batch(
                [seqs[k % len(seqs)] for k in keys], mask_rate,
                vocab_size=model.config.vocab_size, seed=seed, indices=keys,
            )
            cursor += plan.micro_batch_seqs
            grads = dense_zero_grads(model)
            batch_loss, batch_count = mlm_loss_sums(model, batch, grads=grads)
            loss_sum += batch_loss
            count += batch_count
            total = grads if total is None else {k: total[k] + grads[k] for k in total}
        for g in total.values():
            g /= count
        optimizer.step(model.params, total, step)
        losses.append(loss_sum / count)
    return losses


class DenseMomentumSGD(MomentumSGD):
    """The update over every row of every tensor (oracle for the row-sparse step)."""

    def step(self, params, grads, step_index):
        lr_t = self.rate(step_index)
        for name, g in densified(grads, params).items():
            v = self.velocity.get(name)
            if v is None:
                v = np.zeros_like(g)
            v = training.MOMENTUM * v + g
            self.velocity[name] = v
            params[name] -= lr_t * v


class TestPlanBatches:
    def test_paper_scale_example(self):
        plan = plan_batches(500_000, 8, 2048)
        assert plan.accumulation_steps == 31
        assert plan.effective_tokens == 507_904

    def test_exact_fit(self):
        assert plan_batches(2048, 1, 2048).accumulation_steps == 1

    def test_second_example(self):
        assert plan_batches(500_000, 32, 512).accumulation_steps == 31

    def test_minimality_by_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = int(rng.integers(1, 64))
            t = int(rng.integers(1, 4096))
            target = int(rng.integers(1, 2_000_000))
            plan = plan_batches(target, m, t)
            a = plan.accumulation_steps
            assert m * t * a >= target
            assert a == 1 or m * t * (a - 1) < target

    def test_rejects_nonpositive(self):
        with pytest.raises(UsageError):
            plan_batches(0, 8, 128)


def tiny_model(**kw):
    base = dict(n_layers=1, hidden=8, n_heads=2, vocab_size=20, max_positions=8, seed=1)
    base.update(kw)
    return build_encoder(EncoderConfig(**base))


def tiny_batch(vocab_size=20, n=3, T=6):
    seqs = [list(np.random.default_rng(11 + i).integers(6, vocab_size, size=T - i % 2)) for i in range(n)]
    return make_masked_batch(seqs, 0.3, vocab_size=vocab_size, seed=5)


class TestMlmLoss:
    @pytest.mark.parametrize("tied", [False, True])
    def test_gathered_head_matches_dense_head(self, tied):
        # float64, so only summation order separates the two routes
        for seed in range(3):
            model = tiny_model(n_layers=2, hidden=16, vocab_size=64, seed=seed, tied_head=tied, dtype="float64")
            rng = np.random.default_rng(seed)
            seqs = [list(rng.integers(6, 64, size=int(rng.integers(3, 9)))) for _ in range(5)]
            batch = make_masked_batch(seqs, 0.3, vocab_size=64, seed=seed)
            grads = model.zero_grads()
            loss, count = mlm_loss_sums(model, batch, grads=grads)
            loss_ref, count_ref, grads_ref = dense_head_mlm_loss_sums(model, batch)
            assert count == count_ref
            assert abs(loss - loss_ref) <= 1e-10 * abs(loss_ref)
            assert grads.keys() == grads_ref.keys() == model.params.keys()
            grads = densified(grads, model.params)
            for name, ref in grads_ref.items():
                # attn.bk's true gradient is 0 (softmax ignores a shift), so
                # its entries are ~1e-19 rounding noise: floor the scale
                scale = max(np.abs(ref).max(), 1e-8)
                assert np.abs(grads[name] - ref).max() <= 1e-10 * scale, name

    def test_padding_to_seq_len_moves_no_loss_or_mask(self):
        # padded keys get exactly zero attention, so the width a batch is
        # padded to changes only how BLAS groups the gradient sums
        rng = np.random.default_rng(3)
        seqs = [list(rng.integers(6, 64, size=n)) for n in (9, 4, 13, 7)]
        own = make_masked_batch(seqs, 0.3, vocab_size=64, seed=3)
        assert own.input_ids.shape == (4, 13)
        lengths = [len(s) for s in seqs]
        ids, attn = pad_rows([row[:n] for row, n in zip(own.input_ids, lengths)], 64, PAD_ID)
        labels, _ = pad_rows([row[:n] for row, n in zip(own.labels, lengths)], 64, IGNORE_LABEL)
        wide = MaskedBatch(ids, attn, labels)
        assert (wide.labels[:, :13] == own.labels).all() and (wide.labels[:, 13:] == IGNORE_LABEL).all()
        for seed in range(3):
            model = tiny_model(n_layers=2, hidden=16, vocab_size=64, max_positions=64, seed=seed)
            grads, grads_wide = model.zero_grads(), model.zero_grads()
            assert mlm_loss_sums(model, own, grads=grads) == mlm_loss_sums(model, wide, grads=grads_wide)
            assert_within_float32_rounding(grads, grads_wide, model.params)

    def test_row_grad_sum_is_the_dense_sum(self):
        rng = np.random.default_rng(3)
        a = RowGrad(np.array([1, 4, 7]), rng.normal(size=(3, 2)).astype(np.float32))
        b = RowGrad(np.array([0, 4, 9]), rng.normal(size=(3, 2)).astype(np.float32))
        total = RowGrad.empty(np.zeros((10, 2), np.float32)) + a + b
        assert total.rows.tolist() == [0, 1, 4, 7, 9]
        dense_sum = a.at(np.arange(10)) + b.at(np.arange(10))
        assert total.at(np.arange(10)).tobytes() == dense_sum.tobytes()
        total /= np.float32(3.0)
        assert total.at(np.arange(10)).tobytes() == (dense_sum / np.float32(3.0)).tobytes()

    def test_head_allocates_one_logits_array_and_no_table_gradient(self):
        # V = 50,000, d = 64, about 150 labeled rows. Bound on the traced peak:
        # the [N, V] logits (which become the probs in place), the [d, V]
        # head.w gradient product and 4 MB for the small [B, T, d] arrays.
        # A [V, d] tok_emb gradient (12.8 MB) or a second [N, V] array
        # (about 29 MB) does not fit; the dense route peaks about 27 MB over.
        V, d = 50_000, 64
        model = build_encoder(EncoderConfig(n_layers=0, hidden=d, n_heads=4, vocab_size=V, max_positions=64))
        rng = np.random.default_rng(0)
        batch = make_masked_batch([rng.integers(6, V, size=64) for _ in range(16)], 0.15, vocab_size=V, seed=1)
        n = int((batch.labels != IGNORE_LABEL).sum())
        assert 120 <= n <= 180
        grads = model.zero_grads()
        tracemalloc.start()
        try:
            mlm_loss_sums(model, batch, grads=grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * V * 4 + d * V * 4 + 4_000_000
        assert len(grads["tok_emb"].rows) <= 16 * 64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cross_entropy_loss_bits_match_two_exp_formula(self, dtype):
        rng = np.random.default_rng(17)
        for n, v in ((1, 2), (37, 50), (154, 5000)):
            logits = (rng.normal(size=(n, v)) * 4).astype(dtype)
            targets = rng.integers(0, v, size=n)
            ce, probs = _cross_entropy_rows(logits.copy(), targets)
            ce_ref, probs_ref = two_exp_cross_entropy(logits, targets)
            assert ce.tobytes() == ce_ref.tobytes()
            np.testing.assert_allclose(probs, probs_ref, rtol=64 * np.finfo(dtype).eps, atol=0)

    @pytest.mark.parametrize("block_bytes", [None, 1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_blocks_change_no_loss_or_probability_bit(self, dtype, block_bytes, monkeypatch):
        # row counts one short of, on and one past the first two block
        # boundaries; a 1-byte budget gives blocks of one row
        if block_bytes is not None:
            monkeypatch.setattr(training, "_LOSS_BLOCK_BYTES", block_bytes)
        V = 5000
        step = max(1, training._LOSS_BLOCK_BYTES // (V * np.dtype(dtype).itemsize))
        assert step == 1 if block_bytes else step >= 20
        rng = np.random.default_rng(23)
        for n in sorted({1, step - 1, step, step + 1, 2 * step - 1, 2 * step, 2 * step + 1} - {0}):
            logits = (rng.normal(size=(n, V)) * 4).astype(dtype)
            targets = rng.integers(0, V, size=n)
            ce, probs = _cross_entropy_rows(logits.copy(), targets)
            ce_ref, probs_ref = unblocked_cross_entropy(logits, targets)
            assert ce.dtype == ce_ref.dtype and ce.tobytes() == ce_ref.tobytes(), n
            assert probs.tobytes() == probs_ref.tobytes(), n


ROW_CONFIGS = {
    "default": {},
    "attention_only": {"sublayers": ("attention",)},
    "ffn_only": {"sublayers": ("ffn",)},  # gathers at the embedding output
    "no_layers": {"n_layers": 0},
    "tied_head": {"tied_head": True},
}


def assert_within_float32_rounding(grads, grads_ref, params):
    grads, grads_ref = densified(grads, params), densified(grads_ref, params)
    assert grads.keys() == grads_ref.keys()
    for name, ref in grads_ref.items():
        scale = max(np.abs(ref).max(), 1e-3)  # attn.bk: see TestMlmLoss
        assert np.abs(grads[name] - ref).max() <= 1e-6 * scale, name


class TestScoredRowRoute:
    """The last block on scored rows against the full [B, T] route, in float32:
    the same loss bits, the gradients within rounding (a K sum over fewer rows
    may group differently in BLAS)."""

    @pytest.mark.parametrize("kw", ROW_CONFIGS.values(), ids=ROW_CONFIGS.keys())
    def test_mlm(self, kw):
        for seed in range(3):
            model = tiny_model(**{"n_layers": 2, "hidden": 16, "vocab_size": 64, "seed": seed, **kw})
            rng = np.random.default_rng(seed)
            seqs = [list(rng.integers(6, 64, size=int(rng.integers(3, 9)))) for _ in range(5)]
            batch = make_masked_batch(seqs, 0.3, vocab_size=64, seed=seed)
            grads, grads_ref = model.zero_grads(), model.zero_grads()
            loss, _ = mlm_loss_sums(model, batch, grads=grads)
            assert loss == full_route_mlm_loss_sums(model, batch, grads_ref)
            assert_within_float32_rounding(grads, grads_ref, model.params)

    @pytest.mark.parametrize("kind", [HeadKind.SEQUENCE, HeadKind.TOKEN])
    @pytest.mark.parametrize("kw", ROW_CONFIGS.values(), ids=ROW_CONFIGS.keys())
    def test_classifier(self, kw, kind):
        for seed in range(3):
            base = dict(n_layers=2, hidden=16, n_heads=2, vocab_size=64, max_positions=16, seed=seed)
            clf = attach_head(build_encoder(EncoderConfig(**{**base, **kw})), kind, 3)
            rng = np.random.default_rng(seed)
            ids = rng.integers(6, 64, size=(6, 10))
            attn = (np.arange(10) < rng.integers(2, 11, size=(6, 1))).astype(np.int64)
            if kind is HeadKind.SEQUENCE:
                labels = np.where(np.arange(10) == 0, rng.integers(0, 3, size=(6, 1)), IGNORE_LABEL)
            else:
                scored = (rng.random(ids.shape) < 0.4) & (attn > 0)
                labels = np.where(scored, rng.integers(0, 3, size=ids.shape), IGNORE_LABEL)
            weights = rng.uniform(0.2, 2.0, size=3)
            grads, grads_ref = clf.zero_grads(), clf.zero_grads()
            loss, _ = classifier_loss_sums(clf, ids, attn, labels, weights, grads=grads)
            assert loss == full_route_classifier_loss_sums(clf, ids, attn, labels, weights, grads_ref)
            assert_within_float32_rounding(grads, grads_ref, {**clf.encoder.params, **clf.params})

    @pytest.mark.parametrize("kw", ROW_CONFIGS.values(), ids=ROW_CONFIGS.keys())
    def test_items_with_no_one_and_many_rows(self, kw):
        # the last attention packs each item's query rows into w slots:
        # here 0, 1, 6 and 2 rows of items with keys, and 2 rows of an item
        # with no real key, which attends to nothing
        lengths = [6, 5, 8, 0, 4]
        scored = np.zeros((5, 8), dtype=bool)
        scored[1, 3] = True
        scored[2, [0, 2, 3, 5, 6, 7]] = True
        scored[3, :2] = True
        scored[4, [1, 3]] = True
        attn = (np.arange(8) < np.array(lengths)[:, None]).astype(np.int64)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            ids = np.where(attn > 0, rng.integers(6, 64, size=attn.shape), PAD_ID)
            base = dict(n_layers=2, hidden=16, n_heads=2, vocab_size=64, max_positions=8, seed=seed)
            model = build_encoder(EncoderConfig(**{**base, **kw}))
            batch = MaskedBatch(ids, attn, np.where(scored, rng.integers(6, 64, size=ids.shape), IGNORE_LABEL))
            grads, grads_ref = model.zero_grads(), model.zero_grads()
            loss, count = mlm_loss_sums(model, batch, grads=grads)
            assert count == 11 and loss == full_route_mlm_loss_sums(model, batch, grads_ref)
            assert_within_float32_rounding(grads, grads_ref, model.params)

            clf = attach_head(model, HeadKind.TOKEN, 3)
            labels = np.where(scored, rng.integers(0, 3, size=ids.shape), IGNORE_LABEL)
            weights = rng.uniform(0.2, 2.0, size=3)
            grads, grads_ref = clf.zero_grads(), clf.zero_grads()
            loss, _ = classifier_loss_sums(clf, ids, attn, labels, weights, grads=grads)
            assert loss == full_route_classifier_loss_sums(clf, ids, attn, labels, weights, grads_ref)
            assert_within_float32_rounding(grads, grads_ref, {**model.params, **clf.params})


class TestGradCheck:
    def test_attention_only(self):
        assert grad_check(tiny_model(sublayers=("attention",)), tiny_batch()) < 1e-4

    def test_ffn_only(self):
        assert grad_check(tiny_model(sublayers=("ffn",)), tiny_batch()) < 1e-4

    def test_full_two_layers(self):
        assert grad_check(tiny_model(n_layers=2), tiny_batch()) < 1e-4

    def test_linear_probe(self):
        assert grad_check(tiny_model(n_layers=0), tiny_batch()) < 1e-6

    def test_tied_head(self):
        assert grad_check(tiny_model(tied_head=True), tiny_batch()) < 1e-4

    def test_ffn_only_gathers_at_the_embedding(self):
        # no attention sublayer: the labeled rows are gathered right after
        # the embedding, and every block runs on them alone
        model = tiny_model(n_layers=2, sublayers=("ffn",))
        batch = tiny_batch()
        _, cache = model.hidden_states(batch.input_ids, batch.attn_mask, True, batch.labels != IGNORE_LABEL)
        assert cache["gather_at"] == -1
        assert grad_check(model, batch) < 1e-4

    def test_large_epsilon_exceeds_tolerance(self):
        assert grad_check(tiny_model(), tiny_batch(), epsilon=1e-1) > 1e-4


class TestTrainMlm:
    def _seqs(self, n=16, T=10, vocab=64, seed=0):
        rng = np.random.default_rng(seed)
        return [list(rng.integers(6, vocab, size=T)) for _ in range(n)]

    def test_zero_lr_constant_trace(self):
        # fixed data + fixed masks: with lr=0 nothing changes step to step
        model = tiny_model(vocab_size=64, max_positions=16)
        seqs = self._seqs(n=4)
        plan = plan_batches(4 * 10, 4, 10)
        losses = train_mlm(model, seqs, plan, steps=5, lr=0.0, seed=2, remask_each_step=False)
        assert len(losses) == 5
        assert all(l == losses[0] for l in losses)

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            model = tiny_model(vocab_size=64, max_positions=16, seed=3)
            plan = plan_batches(40, 4, 10)
            results.append(train_mlm(model, self._seqs(), plan, steps=4, lr=0.05, seed=9))
        assert results[0] == results[1]

    def test_loss_decreases_on_memorization(self):
        model = build_encoder(
            EncoderConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=64, max_positions=16, seed=0)
        )
        seqs = self._seqs(n=8, T=10)
        plan = plan_batches(8 * 10, 8, 10)
        losses = train_mlm(
            model, seqs, plan, steps=120, lr=0.05, seed=4, remask_each_step=False, warmup_steps=20
        )
        assert losses[-1] < losses[0] / 3

    def test_accumulation_equivalence(self):
        # a=4 micro-batches of 8 must equal one 32-sequence batch exactly
        seqs = self._seqs(n=32, T=10)
        updates = []
        for micro, accum in ((8, 4), (32, 1)):
            model = build_encoder(
                EncoderConfig(
                    n_layers=2, hidden=16, n_heads=4, vocab_size=64, max_positions=16,
                    seed=7, dtype="float64",
                )
            )
            plan = plan_batches(micro * 10 * accum, micro, 10)
            assert plan.accumulation_steps == accum
            train_mlm(model, seqs, plan, steps=1, lr=0.1, seed=5)
            updates.append({k: v.copy() for k, v in model.params.items()})
        for name in updates[0]:
            a, b = updates[0][name], updates[1][name]
            denom = np.maximum(np.abs(a), 1e-12)
            assert (np.abs(a - b) / denom).max() < 1e-6, name

    @pytest.mark.parametrize("tied", [False, True])
    def test_shared_gradient_dict_matches_per_micro_batch_dicts(self, tied):
        # ids from ten tokens repeat within and across micro-batches, and the
        # short sequences pad; two micro-batches per step
        rng = np.random.default_rng(21)
        seqs = [list(rng.integers(6, 16, size=int(rng.integers(4, 11)))) for _ in range(12)]
        plan = plan_batches(2 * 3 * 10, 3, 10)
        assert plan.accumulation_steps == 2
        runs = []
        for train in (train_mlm, per_micro_batch_train_mlm):
            # a tied head writes tok_emb twice per micro-batch, and the two
            # routes add those writes in another order: float64 and a tolerance
            model = tiny_model(vocab_size=40, max_positions=16, hidden=16, tied_head=tied, seed=4,
                               dtype="float64" if tied else "float32")
            runs.append((train(model, seqs, plan, steps=5, lr=0.1, seed=3), model.params))
        (losses, params), (losses_ref, params_ref) = runs
        if tied:
            np.testing.assert_allclose(losses, losses_ref, rtol=1e-12)
        else:
            assert losses == losses_ref
        for name, ref in params_ref.items():
            if tied:
                np.testing.assert_allclose(params[name], ref, rtol=1e-10, atol=1e-14, err_msg=name)
            else:
                assert params[name].tobytes() == ref.tobytes(), name

    def test_head_output_is_one_buffer_grown_to_the_most_labels(self, monkeypatch):
        # the [N, V] logits of every micro-batch go into one buffer, made
        # anew only for a micro-batch with more labels than any before it
        calls = []

        def spy(model, batch, *, grads=None, logits=None):
            n = int((batch.labels != IGNORE_LABEL).sum())
            calls.append((n, logits.size, logits.__array_interface__["data"][0]))
            return mlm_loss_sums(model, batch, grads=grads, logits=logits)

        monkeypatch.setattr(training, "mlm_loss_sums", spy)
        rng = np.random.default_rng(8)
        seqs = [list(rng.integers(6, 40, size=int(rng.integers(3, 13)))) for _ in range(20)]
        train_mlm(tiny_model(vocab_size=40, max_positions=16), seqs, plan_batches(2 * 4 * 12, 4, 12), steps=6, lr=0.1)
        most = 0
        for i, (n, size, address) in enumerate(calls):
            if n > most:
                most = n
                assert size == n * 40
            else:
                assert (size, address) == calls[i - 1][1:]
        assert len({address for *_, address in calls}) < len(calls) == 12

    def test_each_micro_batch_is_as_wide_as_its_longest_sequence(self, monkeypatch):
        widths = []

        def spy(model, batch, **kw):
            widths.append(batch.input_ids.shape[1])
            return mlm_loss_sums(model, batch, **kw)

        monkeypatch.setattr(training, "mlm_loss_sums", spy)
        lengths = [5, 80, 12, 7, 9, 30, 64, 3, 20, 11]
        seqs = [list(np.random.default_rng(n).integers(6, 64, size=n)) for n in lengths]
        plan = plan_batches(3 * 64 * 2, 3, 64)
        assert plan.accumulation_steps == 2
        train_mlm(tiny_model(vocab_size=64, max_positions=64), seqs, plan, steps=3, lr=0.01, seed=1)
        cut = [min(n, 64) for n in lengths]
        assert widths == [max(cut[(k + i) % len(cut)] for i in range(3)) for k in range(0, 18, 3)]
        assert widths == [64, 30, 64, 64, 12, 64]

    def test_truncates_to_seq_len(self):
        counters = {}
        seqs = [list(range(10, 30)), [], list(range(10, 15))]
        model = tiny_model(vocab_size=64, max_positions=16)
        train_mlm(model, seqs, plan_batches(16, 2, 8), steps=1, lr=0.0, seed=0, counters=counters)
        assert counters == {"truncated_tokens": 20 - 8, "real_tokens": 8 + 5}

    def test_checksum_mismatch(self, tmp_path):
        vocab = train_bpe(["aa bb cc " * 4], MIN_VOCAB_SIZE + 2, sample_fraction=1.0)
        shard = tmp_path / "s.sotk"
        shards.write_token_shard(shard, [vocab.encode("aa bb")], vocab.checksum)
        model = build_encoder(
            EncoderConfig(
                n_layers=1, hidden=8, n_heads=2, vocab_size=vocab.vocab_size,
                max_positions=16, vocab_checksum=b"\x00" * 8,
            )
        )
        reader = shards.ShardReader(shard)
        with pytest.raises(ChecksumMismatchError):
            train_mlm(model, reader, plan_batches(10, 1, 10), steps=1, lr=0.1)

    def test_nonfinite_loss_aborts_with_step(self):
        model = tiny_model(vocab_size=64, max_positions=16)
        plan = plan_batches(40, 4, 10)
        with np.errstate(all="ignore"), pytest.raises(TrainingError) as exc_info:
            train_mlm(model, self._seqs(), plan, steps=300, lr=50.0, seed=0)
        assert exc_info.value.step is not None

    def test_row_seen_once_keeps_moving_by_momentum(self):
        for sparse in (False, True):  # a dense gradient, then a RowGrad
            params = {"tok_emb": np.ones((6, 3), np.float32)}
            dense = {"tok_emb": params["tok_emb"].copy()}
            opt, oracle = MomentumSGD(0.1), DenseMomentumSGD(0.1)
            for step in range(4):
                row = 2 if step == 0 else 4  # row 2 has a gradient at step 0 only
                g = RowGrad(np.array([row]), np.full((1, 3), step + 1.0, np.float32))
                if not sparse:
                    g = g.at(np.arange(6))
                before = params["tok_emb"][2].copy()
                opt.step(params, {"tok_emb": g}, step)
                oracle.step(dense, {"tok_emb": g}, step)
                assert (params["tok_emb"][2] != before).all()
                assert params["tok_emb"].tobytes() == dense["tok_emb"].tobytes()
            assert (params["tok_emb"][[0, 1, 3, 5]] == 1.0).all()

    def test_warmup_schedule(self):
        opt = MomentumSGD(1.0, warmup_steps=10)
        assert opt.rate(0) == pytest.approx(0.1)
        assert opt.rate(4) == pytest.approx(0.5)
        assert opt.rate(9) == pytest.approx(1.0)
        assert opt.rate(50) == 1.0

    def test_empty_sequences_dropped(self):
        model = tiny_model(vocab_size=64, max_positions=16)
        plan = plan_batches(20, 2, 10)
        seqs = [[], list(range(10, 20)), [], list(range(20, 30))]
        losses = train_mlm(model, seqs, plan, steps=2, lr=0.01, seed=0)
        assert len(losses) == 2

    def test_all_empty_reader_errors(self):
        model = tiny_model(vocab_size=64, max_positions=16)
        with pytest.raises(UsageError):
            train_mlm(model, [[], []], plan_batches(10, 1, 10), steps=1, lr=0.01)

    def test_loading_a_shard_costs_at_most_8_bytes_per_token(self, tmp_path):
        # about 1 M tokens; sequences stay views into one read of the payload
        shard = tmp_path / "big.sotk"
        rows = np.random.default_rng(11).integers(6, 1000, size=(6250, 160))
        _, total = shards.write_token_shard(shard, rows, b"\x00" * 8)
        model = tiny_model(vocab_size=1000, max_positions=128)
        reader = shards.ShardReader(shard)
        tracemalloc.start()
        try:
            train_mlm(model, reader, plan_batches(128, 1, 128), steps=0, lr=0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / total <= 8.0


class TestFinetune:
    def _clf(self, kind=HeadKind.TOKEN, n_classes=2, **kw):
        base = dict(n_layers=1, hidden=16, n_heads=2, vocab_size=40, max_positions=16, seed=2)
        base.update(kw)
        return attach_head(build_encoder(EncoderConfig(**base)), kind, n_classes)

    def test_uniform_weights_equal_unweighted_loss(self):
        # algebraic identity, so assert it tightly in float64
        clf = self._clf(dtype="float64")
        ids = np.array([[10, 11, 12, 13]])
        attn = np.ones_like(ids)
        labels = np.array([[0, 1, 0, 1]])
        uniform = np.array([0.5, 0.5])
        loss_w, mass_w = classifier_loss_sums(clf, ids, attn, labels, uniform)
        loss_u, mass_u = classifier_loss_sums(clf, ids, attn, labels, None)
        assert loss_w / mass_w == pytest.approx(loss_u / mass_u, rel=1e-12)

    def test_absent_class_errors(self):
        clf = self._clf(kind=HeadKind.SEQUENCE, n_classes=3)
        data = [([3, 10, 11], 0), ([3, 12, 13], 1)]  # class 2 never observed
        with pytest.raises(MetricError):
            finetune(clf, data, epochs=1, lr=0.01)

    def test_label_out_of_range(self):
        clf = self._clf(kind=HeadKind.SEQUENCE, n_classes=2)
        with pytest.raises(MetricError):
            finetune(clf, [([3, 10], 5)], epochs=1)
        # an ignored sequence label would look like an unscored row on the label grid
        with pytest.raises(MetricError):
            finetune(clf, [([3, 10, 11], 0), ([3, 12, 13], 1), ([3, 14], IGNORE_LABEL)], epochs=1)

    def test_token_head_trains_with_ignored_labels(self):
        rng = np.random.default_rng(8)
        data = []
        for _ in range(24):
            ids = rng.integers(6, 40, size=10)
            labels = ids % 2
            labels[rng.random(10) < 0.2] = IGNORE_LABEL
            data.append((list(ids), list(labels)))
        for weights in (None, [0.5, 0.5]):
            clf, preds = finetune(self._clf(), data, weights, batch_size=8, lr=0.01, epochs=2)
            assert [len(p) for p in preds] == [10] * len(data)
            assert all(np.isfinite(v).all() for v in clf.params.values())

    def test_token_head_refuses_all_ignored_labels(self):
        data = [([10, 11, 12], [IGNORE_LABEL] * 3), ([13, 14], [IGNORE_LABEL] * 2)]
        with pytest.raises(MetricError, match="labeled"):
            finetune(self._clf(), data, epochs=1)

    def test_batch_without_labeled_token_is_skipped(self, monkeypatch):
        steps = []
        step = MomentumSGD.step

        def recording_step(self, params, grads, step_index):
            steps.append(step_index)
            step(self, params, grads, step_index)

        monkeypatch.setattr(MomentumSGD, "step", recording_step)
        data = [([10, 11, 12], [0, 1, 0]), ([13, 14], [IGNORE_LABEL] * 2), ([15, 16, 17], [1, 1, 0])]
        _, preds = finetune(self._clf(), data, batch_size=1, lr=0.01, epochs=2)
        assert steps == [0, 1, 2, 3]  # two labeled items a pass; the unlabeled one takes no step
        assert [len(p) for p in preds] == [3, 2, 3]

    def test_token_labels_must_align(self):
        clf = self._clf()
        with pytest.raises(UsageError):
            finetune(clf, [([10, 11, 12], [0, 1])], class_weights=[0.5, 0.5], epochs=1)

    def test_separable_parity_task(self):
        rng = np.random.default_rng(99)
        vocab_size = 106

        def make(n, seed):
            r = np.random.default_rng(seed)
            out = []
            for _ in range(n):
                ids = r.integers(6, vocab_size, size=12)
                out.append((list(ids), list(ids % 2)))
            return out

        cfg = EncoderConfig(n_layers=1, hidden=32, n_heads=4, vocab_size=vocab_size, max_positions=16, seed=3)
        clf = attach_head(build_encoder(cfg), HeadKind.TOKEN, 2)
        train = make(256, 1)
        heldout = make(64, 2)
        clf, preds = finetune(
            clf, train, eval_data=heldout, batch_size=32, lr=0.02, epochs=12, seed=5, warmup_steps=10
        )
        y_true = np.concatenate([lab for _, lab in heldout])
        y_pred = np.concatenate(preds)
        stats = metrics.confusion(y_true, y_pred, 2)
        weights = metrics.class_weights(stats.ap, metrics.WeightMode.INVERSE_FREQUENCY)
        assert metrics.weighted_f1(stats, weights) > 0.95

    def test_finetune_matches_dense_momentum_oracle(self, monkeypatch):
        rng = np.random.default_rng(4)
        data = [([3] + list(rng.integers(6, 120, size=int(rng.integers(4, 12)))), int(i % 2)) for i in range(40)]
        runs = []
        for optimizer in (MomentumSGD, DenseMomentumSGD):
            monkeypatch.setattr(training, "MomentumSGD", optimizer)
            clf = self._clf(kind=HeadKind.SEQUENCE, vocab_size=400, seed=6)
            start = {k: v.copy() for k, v in clf.encoder.params.items()}
            clf, preds = finetune(clf, data, batch_size=8, lr=0.05, epochs=2, seed=1, warmup_steps=3)
            runs.append(({**clf.encoder.params, **clf.params}, preds))
        (params, preds), (params_ref, preds_ref) = runs
        assert preds == preds_ref
        for name, ref in params_ref.items():
            assert params[name].tobytes() == ref.tobytes(), name
        moved = (params["tok_emb"] != start["tok_emb"]).any(axis=1)
        assert 0 < moved.sum() < 400  # the row-sparse path ran, and skipped unseen tokens
        for name in ("head.w", "head.b"):
            assert params[name].tobytes() == start[name].tobytes()

    def test_sequence_finetune_matches_dense_head_oracle(self, monkeypatch):
        rng = np.random.default_rng(12)
        data = [([3] + list(rng.integers(6, 300, size=int(rng.integers(3, 14)))), int(i % 3 == 0)) for i in range(48)]
        runs = []
        for loss_sums in (classifier_loss_sums, dense_classifier_loss_sums):
            monkeypatch.setattr(training, "classifier_loss_sums", loss_sums)
            clf = self._clf(kind=HeadKind.SEQUENCE, vocab_size=300, hidden=32, n_heads=4, n_layers=2, seed=9)
            clf, preds = finetune(clf, data, batch_size=16, lr=0.05, epochs=2, seed=3)
            runs.append(({**clf.encoder.params, **clf.params}, preds))
        (params, preds), (params_ref, preds_ref) = runs
        assert preds == preds_ref
        for name, ref in params_ref.items():
            # the two float32 routes group the weight-gradient sums differently.
            # Each lies within 7e-6 of a tensor's largest entry from a float64
            # run of this test (cls_head.b), so within twice that of the other.
            # attn.bk and head.b stay about 0: floor their scale
            scale = max(np.abs(ref).max(), 1e-3)
            assert np.abs(params[name] - ref).max() <= 2e-5 * scale, name

    @pytest.mark.parametrize("kind", [HeadKind.SEQUENCE, HeadKind.TOKEN])
    def test_gathered_rows_match_dense_head(self, kind):
        # float64, so only summation order separates the two routes
        for seed in range(3):
            clf = self._clf(kind=kind, n_classes=3, n_layers=2, vocab_size=64, seed=seed, dtype="float64")
            rng = np.random.default_rng(seed)
            lengths = rng.integers(2, 9, size=5)
            ids = np.zeros((5, 8), dtype=np.int64)
            attn = np.zeros_like(ids)
            labels = np.full((5, 8), IGNORE_LABEL)
            if kind is HeadKind.SEQUENCE:
                labels[:, 0] = rng.integers(0, 3, size=5)
            for i, n in enumerate(lengths):
                ids[i, :n] = rng.integers(6, 64, size=n)
                attn[i, :n] = 1
                if kind is HeadKind.TOKEN:
                    labels[i, :n] = np.where(rng.random(n) < 0.7, rng.integers(0, 3, size=n), IGNORE_LABEL)
            weights = rng.uniform(0.2, 2.0, size=3)
            grads, grads_ref = clf.zero_grads(), clf.zero_grads()
            loss, mass = classifier_loss_sums(clf, ids, attn, labels, weights, grads=grads)
            loss_ref, mass_ref = dense_classifier_loss_sums(clf, ids, attn, labels, weights, grads=grads_ref)
            assert mass == mass_ref
            assert abs(loss - loss_ref) <= 1e-10 * abs(loss_ref)
            assert grads.keys() == grads_ref.keys()
            params = {**clf.encoder.params, **clf.params}
            grads, grads_ref = densified(grads, params), densified(grads_ref, params)
            for name, ref in grads_ref.items():
                scale = max(np.abs(ref).max(), 1e-8)  # attn.bk: see the MLM test above
                assert np.abs(grads[name] - ref).max() <= 1e-10 * scale, name

    def test_sequence_head_reads_position_zero(self):
        clf = self._clf(kind=HeadKind.SEQUENCE, n_classes=2)
        items = [([3, 10, 11], 0), ([3, 12, 13], 1)]
        ids, attn, labels = training._pad_batch(items, HeadKind.SEQUENCE)
        assert (labels == [[0, IGNORE_LABEL, IGNORE_LABEL], [1, IGNORE_LABEL, IGNORE_LABEL]]).all()
        y, _ = clf.encoder.hidden_states(ids, attn)
        manual = y[:, 0, :] @ clf.params["cls_head.w"] + clf.params["cls_head.b"]
        ce, _ = _cross_entropy_rows(manual.copy(), labels[:, 0])
        loss, mass = classifier_loss_sums(clf, ids, attn, labels)
        assert mass == 2
        np.testing.assert_allclose(loss, ce.sum(), rtol=1e-6)
        assert training.predict(clf, items) == [int(i) for i in manual.argmax(axis=-1)]

    @pytest.mark.parametrize("kind", [HeadKind.SEQUENCE, HeadKind.TOKEN])
    def test_predict_on_only_empty_items(self, kind):
        # padded to width 1: a sequence head still scores position 0, a token head nothing
        clf = self._clf(kind=kind, n_classes=2)
        empty = ([], 0) if kind is HeadKind.SEQUENCE else ([], [])
        preds = training.predict(clf, [empty] * 3)
        ids, attn, _ = training._pad_batch([empty], kind)
        assert ids.shape == (1, 1) and not attn.any()
        if kind is HeadKind.SEQUENCE:
            y, _ = clf.encoder.hidden_states(ids, attn)
            want = int((y[0, 0] @ clf.params["cls_head.w"] + clf.params["cls_head.b"]).argmax())
            assert preds == [want] * 3
        else:
            assert [p.shape for p in preds] == [(0,)] * 3

    @pytest.mark.parametrize("kind", [HeadKind.SEQUENCE, HeadKind.TOKEN])
    def test_predictions_do_not_depend_on_the_batch(self, kind):
        # an item attends to its own keys only, and an empty item to none:
        # its class is the same alone as in shuffled batches of other lengths
        rng = np.random.default_rng(0)
        for seed in range(20):
            clf = self._clf(kind=kind, n_classes=3, seed=seed)
            items = [
                (list(rng.integers(6, 40, size=n)), 0 if kind is HeadKind.SEQUENCE else [0] * n)
                for n in (0, 0, 1, 3, 6, 13)
            ]
            alone = [training.predict(clf, [item])[0] for item in items]
            for size in (2, 4, len(items)):
                order = rng.permutation(len(items))[:size]
                together = training.predict(clf, [items[i] for i in order])
                for i, pred in zip(order, together):
                    np.testing.assert_array_equal(pred, alone[i], err_msg=f"seed {seed}, item {i}")

    def test_empty_items_give_attention_no_gradient(self):
        # all keys masked: zero attention probabilities, so no q/k/v gradient
        clf = self._clf(kind=HeadKind.SEQUENCE, n_classes=2)
        ids = np.zeros((2, 3), dtype=np.int64)
        labels = np.full((2, 3), IGNORE_LABEL)
        labels[:, 0] = [0, 1]
        grads = clf.zero_grads()
        classifier_loss_sums(clf, ids, np.zeros_like(ids), labels, grads=grads)
        for name in ("wq", "bq", "wk", "bk", "wv", "bv", "wo"):
            assert not grads[f"L0.attn.{name}"].any(), name
        assert grads["L0.attn.bo"].any() and grads["cls_head.w"].any()

    @pytest.mark.parametrize("kind", [HeadKind.SEQUENCE, HeadKind.TOKEN])
    def test_negative_label_refused(self, kind):
        # -1 would index the weights and probs from the end: class 1 of 2
        clf = self._clf(kind=kind, n_classes=2)
        ids = np.array([[3, 10, 11], [3, 12, 13]])
        labels = np.array([[0, 1, 0], [-1, 0, 1]])
        if kind is HeadKind.SEQUENCE:
            labels[:, 1:] = IGNORE_LABEL
        with pytest.raises(MetricError):
            classifier_loss_sums(clf, ids, np.ones_like(ids), labels, np.array([0.5, 0.5]))

    def test_classifier_gradients_match_finite_differences(self):
        # spot-check the fine-tune path's gradients too
        clf = self._clf(kind=HeadKind.TOKEN, n_classes=2, seed=8)
        clf64 = attach_head(clf.encoder.astype("float64"), HeadKind.TOKEN, 2)
        for k in clf.params:
            clf64.params[k] = clf.params[k].astype("float64")
        ids = np.array([[10, 11, 12], [13, 14, 15]])
        attn = np.ones_like(ids)
        labels = ids % 2
        weights = np.array([0.3, 0.7])

        grads = clf64.zero_grads()
        classifier_loss_sums(clf64, ids, attn, labels, weights, grads=grads)
        grads = densified(grads, {**clf64.encoder.params, **clf64.params})
        eps = 1e-6
        worst = 0.0
        for name, tensor in list(clf64.encoder.params.items()) + list(clf64.params.items()):
            flat = tensor.reshape(-1)
            idx = np.random.default_rng(0).integers(0, flat.size, size=min(5, flat.size))
            for i in idx:
                orig = flat[i]
                flat[i] = orig + eps
                up, _ = classifier_loss_sums(clf64, ids, attn, labels, weights)
                flat[i] = orig - eps
                down, _ = classifier_loss_sums(clf64, ids, attn, labels, weights)
                flat[i] = orig
                numeric = (up - down) / (2 * eps)
                # the MLM head is off the classifier's path: absent means zero
                analytic = grads[name].reshape(-1)[i] if name in grads else 0.0
                worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-4))
        assert worst < 1e-4
