"""Encoder structure: init determinism, pre-norm wiring, forward oracle."""

import hashlib
import math
import re

import numpy as np
import pytest

from sopipeline.errors import TrainingError, UsageError
from sopipeline.mlm import (
    ATTENTION,
    FFN,
    EncoderConfig,
    IGNORE_LABEL,
    MaskedBatch,
    build_encoder,
    load_checkpoint,
    make_masked_batch,
    save_checkpoint,
)
from sopipeline.mlm.training import mlm_loss_sums


def mean_mlm_loss(model, batch):
    loss_sum, count = mlm_loss_sums(model, batch)
    return loss_sum / count


def small_config(**kw):
    base = dict(n_layers=2, hidden=16, n_heads=4, vocab_size=50, max_positions=12, seed=0)
    base.update(kw)
    return EncoderConfig(**base)


class TestBuildEncoder:
    def test_same_seed_bit_identical(self):
        a = build_encoder(small_config(seed=9))
        b = build_encoder(small_config(seed=9))
        for name in a.param_names:
            assert a.params[name].tobytes() == b.params[name].tobytes()

    def test_different_seed_differs(self):
        a = build_encoder(small_config(seed=1))
        b = build_encoder(small_config(seed=2))
        assert a.params["tok_emb"].tobytes() != b.params["tok_emb"].tobytes()

    def test_head_divisibility_error(self):
        with pytest.raises(UsageError):
            EncoderConfig(n_layers=1, hidden=32, n_heads=5, vocab_size=50)

    def test_zero_heads_error(self):
        with pytest.raises(UsageError, match=r"n_heads \(0\) must be at least 1"):
            EncoderConfig(n_layers=1, hidden=32, n_heads=0, vocab_size=50)

    def test_parameter_count_matches_manual_enumeration(self):
        cfg = small_config(n_layers=2, hidden=32, n_heads=4, vocab_size=100, max_positions=64)
        model = build_encoder(cfg)
        d, v, p = 32, 100, 64
        per_layer = 12 * d * d + 13 * d
        expected = 2 * per_layer + (v + p) * d + 2 * d + d * v + v  # untied head
        assert model.parameter_count == expected

    def test_zero_biases_unit_gains(self):
        model = build_encoder(small_config())
        assert (model.params["L0.ln1.g"] == 1).all()
        assert (model.params["L0.attn.bq"] == 0).all()
        assert (model.params["final_ln.b"] == 0).all()

    def test_tied_head_has_no_head_tensor(self):
        tied = build_encoder(small_config(tied_head=True))
        untied = build_encoder(small_config(tied_head=False))
        assert "head.w" not in tied.params
        d, v = 16, 50
        assert untied.parameter_count - tied.parameter_count == d * v + v


class TestPreNormWiring:
    def test_zeroed_residual_branches_give_normed_embeddings(self):
        # with every residual-branch output projection zeroed, the stack is
        # an identity over embeddings up to the final layer norm
        model = build_encoder(small_config(n_layers=3))
        for layer in range(3):
            model.params[f"L{layer}.attn.wo"][:] = 0
            model.params[f"L{layer}.attn.bo"][:] = 0
            model.params[f"L{layer}.ffn.w2"][:] = 0
            model.params[f"L{layer}.ffn.b2"][:] = 0
        ids = np.array([[7, 8, 9, 10]])
        mask = np.ones_like(ids)
        y, _ = model.hidden_states(ids, mask)

        x = model.params["tok_emb"][ids] + model.params["pos_emb"][:4][None]
        mu = x.mean(-1, keepdims=True)
        var = x.var(-1, keepdims=True)
        expected = (x - mu) / np.sqrt(var + 1e-5)
        expected = expected * model.params["final_ln.g"] + model.params["final_ln.b"]
        np.testing.assert_allclose(y, expected, rtol=1e-6)

    def test_sublayer_selection(self):
        attn_only = build_encoder(small_config(sublayers=(ATTENTION,)))
        ffn_only = build_encoder(small_config(sublayers=(FFN,)))
        assert "L0.ffn.w1" not in attn_only.params
        assert "L0.attn.wq" not in ffn_only.params


ROW_CONFIGS = {
    "default": {},
    "attention_only": {"sublayers": (ATTENTION,)},
    "ffn_only": {"sublayers": (FFN,)},  # gathers at the embedding output
    "no_layers": {"n_layers": 0},
    "tied_head": {"tied_head": True},
}


class TestScoredRows:
    @pytest.mark.parametrize("kw", ROW_CONFIGS.values(), ids=ROW_CONFIGS.keys())
    def test_rows_equal_the_full_route_bit_for_bit(self, kw):
        model = build_encoder(small_config(**kw))
        rng = np.random.default_rng(7)
        ids = rng.integers(0, 50, size=(4, 12))
        mask = np.ones_like(ids)
        mask[1, 7:] = 0
        mask[3, 3:] = 0
        y, _ = model.hidden_states(ids, mask)
        for rate in (0.15, 0.5, 1.0):
            rows = rng.random(ids.shape) < rate
            rows[0, :2] = True  # two rows at least: numpy takes one row through gemv
            y_rows, _ = model.hidden_states(ids, mask, want_cache=True, rows=rows)
            assert y_rows.shape == (rows.sum(), 16)
            assert y_rows.tobytes() == y[rows].tobytes()
        first = np.zeros(ids.shape, dtype=bool)
        first[:, 0] = True
        assert model.hidden_states(ids, mask, rows=first)[0].tobytes() == y[:, 0].tobytes()

    def test_rows_must_be_a_batch_time_mask(self):
        model = build_encoder(small_config())
        ids, mask = np.array([[7, 8, 9], [10, 11, 12]]), np.ones((2, 3))
        with pytest.raises(UsageError):
            model.hidden_states(ids, mask, rows=np.array([True, False]))  # would select whole sequences

    def test_gather_point(self):
        ids, mask = np.array([[7, 8, 9]]), np.ones((1, 3))
        rows = np.array([[True, False, True]])
        for kw, at in (({}, 1), ({"sublayers": (FFN,)}, -1), ({"n_layers": 0}, -1), ({"n_layers": 3}, 2)):
            _, cache = build_encoder(small_config(**kw)).hidden_states(ids, mask, want_cache=True, rows=rows)
            assert cache["gather_at"] == at
            ffn = cache["layers"][-1].get("ffn") if cache["layers"] else None
            if ffn is not None:
                assert ffn["h"].shape == (2, 16)  # the last FFN ran on the two rows

    def test_last_attention_queries_the_scored_rows_only(self):
        # its probabilities are [B, H, w, T], w = max(2, an item's most rows);
        # every earlier attention keeps all T queries
        model = build_encoder(small_config(n_layers=3))
        rng = np.random.default_rng(5)
        ids, mask = rng.integers(0, 50, size=(4, 12)), np.ones((4, 12))
        for counts, w in (([0, 1, 0, 0], 2), ([0, 0, 0, 0], 2), ([3, 0, 5, 1], 5), ([12, 2, 12, 0], 12)):
            rows = np.zeros(ids.shape, dtype=bool)
            for item, n in enumerate(counts):
                rows[item, rng.choice(12, size=n, replace=False)] = True
            y, cache = model.hidden_states(ids, mask, want_cache=True, rows=rows)
            assert y.shape == (sum(counts), 16)
            assert [c["attn"]["probs"].shape for c in cache["layers"]] == [(4, 4, 12, 12)] * 2 + [(4, 4, w, 12)]


class TestForwardMlm:
    def test_initial_loss_near_log_vocab(self):
        cfg = EncoderConfig(n_layers=2, hidden=32, n_heads=4, vocab_size=1000, max_positions=64, seed=0)
        model = build_encoder(cfg)
        seqs = [list(np.random.default_rng(i).integers(6, 1000, size=48)) for i in range(8)]
        batch = make_masked_batch(seqs, 0.15, vocab_size=1000, seed=1)
        loss = mean_mlm_loss(model, batch)
        assert abs(loss - math.log(1000)) / math.log(1000) < 0.05

    def test_loss_reads_only_labeled_logits(self):
        # loss equals CE computed from the labeled rows of the full logits
        # alone, so logits at ignored positions cannot contribute
        model = build_encoder(small_config(dtype="float64"))
        ids = np.array([[10, 11, 12, 13], [14, 15, 16, 17]])
        mask = np.ones_like(ids)
        labels = np.array(
            [[IGNORE_LABEL, 11, IGNORE_LABEL, IGNORE_LABEL], [14, IGNORE_LABEL, IGNORE_LABEL, 17]]
        )
        loss = mean_mlm_loss(model, MaskedBatch(ids, mask, labels))
        logits = model.logits_mlm(model.hidden_states(ids, mask)[0])
        labeled = labels != IGNORE_LABEL
        rows = logits[labeled]
        targets = labels[labeled]
        shifted = rows - rows.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=-1)) + rows.max(axis=-1)
        manual = float((lse - rows[np.arange(len(targets)), targets]).mean())
        assert loss == pytest.approx(manual, rel=1e-12)

    def test_zero_labeled_positions_error(self):
        model = build_encoder(small_config())
        ids = np.array([[10, 11]])
        labels = np.full_like(ids, IGNORE_LABEL)
        with pytest.raises(TrainingError):
            mlm_loss_sums(model, MaskedBatch(ids, np.ones_like(ids), labels))

    def test_too_long_sequence_rejected(self):
        model = build_encoder(small_config(max_positions=4))
        ids = np.arange(10, 16).reshape(1, 6)
        labels = ids.copy()
        with pytest.raises(UsageError):
            mlm_loss_sums(model, MaskedBatch(ids, np.ones_like(ids), labels))

    def test_micro_model_matches_scalar_oracle(self):
        """1 layer, d=2, V=8, T=2: compare against an independent
        loop-by-loop forward pass written with plain floats."""
        cfg = EncoderConfig(
            n_layers=1, hidden=2, n_heads=1, vocab_size=8, max_positions=2, seed=0, dtype="float64"
        )
        model = build_encoder(cfg)
        # overwrite with small hand-picked weights
        p = model.params
        p["tok_emb"][:] = np.arange(16).reshape(8, 2) * 0.01
        p["pos_emb"][:] = [[0.01, -0.02], [0.03, 0.04]]
        p["L0.ln1.g"][:] = [1.1, 0.9]
        p["L0.ln1.b"][:] = [0.01, -0.01]
        p["L0.attn.wq"][:] = [[0.10, -0.20], [0.30, 0.05]]
        p["L0.attn.bq"][:] = [0.01, 0.02]
        p["L0.attn.wk"][:] = [[0.07, 0.11], [-0.13, 0.17]]
        p["L0.attn.bk"][:] = [0.00, -0.01]
        p["L0.attn.wv"][:] = [[0.2, -0.1], [0.15, 0.25]]
        p["L0.attn.bv"][:] = [0.03, 0.00]
        p["L0.attn.wo"][:] = [[0.5, 0.1], [-0.2, 0.4]]
        p["L0.attn.bo"][:] = [0.01, 0.01]
        p["L0.ln2.g"][:] = [0.95, 1.05]
        p["L0.ln2.b"][:] = [0.0, 0.02]
        p["L0.ffn.w1"][:] = np.linspace(-0.3, 0.3, 16).reshape(2, 8)
        p["L0.ffn.b1"][:] = np.linspace(0.01, 0.08, 8)
        p["L0.ffn.w2"][:] = np.linspace(0.2, -0.2, 16).reshape(8, 2)
        p["L0.ffn.b2"][:] = [0.005, -0.005]
        p["final_ln.g"][:] = [1.0, 1.02]
        p["final_ln.b"][:] = [0.002, 0.0]
        p["head.w"][:] = np.linspace(-0.4, 0.4, 16).reshape(2, 8)
        p["head.b"][:] = np.linspace(0.0, 0.07, 8)

        ids = np.array([[6, 7]])
        labels = np.array([[7, IGNORE_LABEL]])
        batch = MaskedBatch(ids, np.ones_like(ids), labels)
        loss = mean_mlm_loss(model, batch)

        oracle = _scalar_forward_loss(p, ids[0].tolist(), {0: 7})
        assert loss == pytest.approx(oracle, rel=1e-12)


def _scalar_forward_loss(p, ids, labeled):
    """Independent scalar re-implementation (loops + math module only)."""
    eps = 1e-5
    d, V = 2, 8

    def ln(vec, g, b):
        mu = sum(vec) / len(vec)
        var = sum((x - mu) ** 2 for x in vec) / len(vec)
        return [((x - mu) / math.sqrt(var + eps)) * gi + bi for x, gi, bi in zip(vec, g, b)]

    def matvec(vec, w, b):  # w is [in][out]
        return [sum(vec[i] * w[i][j] for i in range(len(vec))) + b[j] for j in range(len(b))]

    def gelu(x):
        return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))

    w = {k: v.tolist() for k, v in p.items()}
    T = len(ids)
    x = [[w["tok_emb"][t][j] + w["pos_emb"][pos][j] for j in range(d)] for pos, t in enumerate(ids)]

    # attention sublayer (single head)
    h = [ln(row, w["L0.ln1.g"], w["L0.ln1.b"]) for row in x]
    q = [matvec(row, w["L0.attn.wq"], w["L0.attn.bq"]) for row in h]
    k = [matvec(row, w["L0.attn.wk"], w["L0.attn.bk"]) for row in h]
    v = [matvec(row, w["L0.attn.wv"], w["L0.attn.bv"]) for row in h]
    ctx = []
    for i in range(T):
        scores = [sum(q[i][a] * k[j][a] for a in range(d)) / math.sqrt(d) for j in range(T)]
        mx = max(scores)
        exps = [math.exp(s - mx) for s in scores]
        z = sum(exps)
        probs = [e / z for e in exps]
        ctx.append([sum(probs[j] * v[j][a] for j in range(T)) for a in range(d)])
    attn_out = [matvec(row, w["L0.attn.wo"], w["L0.attn.bo"]) for row in ctx]
    x = [[x[i][j] + attn_out[i][j] for j in range(d)] for i in range(T)]

    # ffn sublayer
    h = [ln(row, w["L0.ln2.g"], w["L0.ln2.b"]) for row in x]
    a1 = [matvec(row, w["L0.ffn.w1"], w["L0.ffn.b1"]) for row in h]
    g1 = [[gelu(val) for val in row] for row in a1]
    f = [matvec(row, w["L0.ffn.w2"], w["L0.ffn.b2"]) for row in g1]
    x = [[x[i][j] + f[i][j] for j in range(d)] for i in range(T)]

    y = [ln(row, w["final_ln.g"], w["final_ln.b"]) for row in x]
    total, count = 0.0, 0
    for pos, target in labeled.items():
        logits = matvec(y[pos], w["head.w"], w["head.b"])
        mx = max(logits)
        lse = mx + math.log(sum(math.exp(l - mx) for l in logits))
        total += lse - logits[target]
        count += 1
    return total / count


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        model = build_encoder(small_config(seed=4))
        path = tmp_path / "m.sockpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for name in model.param_names:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])

    def test_load_draws_no_random_init(self, tmp_path, monkeypatch):
        from sopipeline.mlm import encoder

        model = build_encoder(small_config(seed=4, tied_head=True))
        path = tmp_path / "m.sockpt"
        save_checkpoint(model, path)

        def no_init(*args):
            raise AssertionError("load_checkpoint drew a random init")

        monkeypatch.setattr(encoder, "_init_param", no_init)
        loaded = load_checkpoint(path)
        assert loaded.param_names == model.param_names
        for name in model.param_names:
            assert loaded.params[name].dtype == model.params[name].dtype
            assert loaded.params[name].tobytes() == model.params[name].tobytes()
        save_checkpoint(loaded, tmp_path / "again.sockpt")
        assert (tmp_path / "again.sockpt").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "extra, sha256",
        [
            ({}, "d758ef08f47d9433693f311806434e2c1e518e0d744afa1712064c87b1723fb3"),
            (dict(tied_head=True, vocab_checksum=bytes(range(8)), sublayers=("ffn",)),
             "40ba3170cc633546c4de328fc3ad6eacd408bd88df92a36ca6a9d98d1af6322c"),
        ],
        ids=["untied", "tied-ffn-checksum"],
    )
    def test_golden_checkpoint_bytes(self, tmp_path, extra, sha256):
        config = EncoderConfig(n_layers=2, hidden=16, n_heads=2, vocab_size=50, max_positions=12, seed=3, **extra)
        path = tmp_path / "m.sockpt"
        save_checkpoint(build_encoder(config), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_truncated_checkpoint(self, tmp_path):
        from sopipeline.errors import ChecksumMismatchError

        model = build_encoder(small_config())
        path = tmp_path / "m.sockpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-100])
        with pytest.raises(ChecksumMismatchError):
            load_checkpoint(path)

    def test_every_truncation_is_refused(self, tmp_path):
        # a cut inside the header or the config block is refused like a cut
        # inside the tensors, not with a struct or JSON error
        from sopipeline.errors import ChecksumMismatchError

        config = EncoderConfig(n_layers=0, hidden=2, n_heads=1, vocab_size=8, max_positions=1)
        path = tmp_path / "m.sockpt"
        save_checkpoint(build_encoder(config), path)
        blob = path.read_bytes()
        for k in range(len(blob)):
            path.write_bytes(blob[:k])
            with pytest.raises(ChecksumMismatchError):
                load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cfg: cfg.replace(b'"', b"#", 1),
            lambda cfg: cfg.replace(b'"seed"', b'"sead"'),
            lambda cfg: cfg.replace(b'"float32"', b'"floatXX"'),
            lambda cfg: cfg.replace(b'"float32"', b'"int8"'),
            lambda cfg: cfg.replace(b'"float32"', b'"float16"'),
            lambda cfg: cfg.replace(b'"sublayers"', b'"sublayerz"'),
            lambda cfg: cfg.replace(b'"n_heads": 4', b'"n_heads": 0'),
            lambda cfg: cfg.replace(b'"hidden": 16', b'"hidden": 16.0'),
            lambda cfg: cfg.replace(b'"n_layers": 1', b'"n_layers": true'),
            lambda cfg: cfg.replace(b'"hidden": 16', b'"hidden": -16'),
            lambda cfg: cfg.replace(b'"vocab_checksum": null', b'"vocab_checksum": "zz"'),
            lambda cfg: b"[1, 2]",
        ],
        ids=["flipped-byte", "unknown-key", "unknown-dtype", "int-dtype", "half-dtype", "no-sublayers", "zero-heads",
             "float-size", "bool-size", "negative-size", "checksum-not-hex", "not-an-object"],
    )
    def test_malformed_config_refused(self, tmp_path, edit):
        # each edited config block carries its own length, so the file's
        # layout holds and only the config's keys and values are refused; one
        # layer, so "n_layers": true would read as a well-formed 1
        from sopipeline.errors import ChecksumMismatchError

        path = tmp_path / "m.sockpt"
        save_checkpoint(build_encoder(small_config(n_layers=1)), path)
        blob = path.read_bytes()
        cfg_len = int.from_bytes(blob[6:10], "little")
        cfg = edit(blob[10 : 10 + cfg_len])
        assert cfg != blob[10 : 10 + cfg_len]
        path.write_bytes(blob[:6] + len(cfg).to_bytes(4, "little") + cfg + blob[10 + cfg_len :])
        with pytest.raises(ChecksumMismatchError, match=f"^{re.escape(str(path))}: malformed checkpoint config"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        from sopipeline.errors import ChecksumMismatchError

        path = tmp_path / "m.sockpt"
        save_checkpoint(build_encoder(small_config()), path)
        path.write_bytes(path.read_bytes() + b"\0\0\0\0")
        with pytest.raises(ChecksumMismatchError, match="trailing"):
            load_checkpoint(path)
