"""MLM masking behavior and statistics."""

import numpy as np
import pytest

from sopipeline.bpe import MASK_ID, N_SPECIALS, SEPARATOR_ID
from sopipeline.errors import TrainingError, UsageError
from sopipeline.mlm import IGNORE_LABEL, make_masked_batch, mask_sequence

VOCAB = 500


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestMaskSequence:
    def test_rate_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(UsageError):
                mask_sequence([10, 11, 12], bad, _rng(), vocab_size=VOCAB)

    def test_all_special_sequence(self):
        with pytest.raises(TrainingError):
            mask_sequence([SEPARATOR_ID, SEPARATOR_ID], 0.15, _rng(), vocab_size=VOCAB)

    def test_empty_sequence(self):
        with pytest.raises(UsageError):
            mask_sequence([], 0.15, _rng(), vocab_size=VOCAB)

    def test_binomial_bounds_long_sequence(self):
        ids = list(_rng(1).integers(N_SPECIALS, VOCAB, size=10_000))
        _, labels = mask_sequence(ids, 0.15, _rng(2), vocab_size=VOCAB)
        n_masked = int((labels != IGNORE_LABEL).sum())
        assert 1350 <= n_masked <= 1650  # binomial 3-sigma window widened per contract

    def test_labels_exactly_at_selected_positions(self):
        ids = list(_rng(3).integers(N_SPECIALS, VOCAB, size=200))
        out, labels = mask_sequence(ids, 0.3, _rng(4), vocab_size=VOCAB)
        selected = labels != IGNORE_LABEL
        assert (labels[selected] == np.asarray(ids)[selected]).all()
        # unselected positions keep their original token
        assert (out[~selected] == np.asarray(ids)[~selected]).all()

    def test_specials_never_masked(self):
        ids = [SEPARATOR_ID if i % 3 == 0 else 100 + i for i in range(300)]
        out, labels = mask_sequence(ids, 0.5, _rng(5), vocab_size=VOCAB)
        special_positions = np.asarray(ids) == SEPARATOR_ID
        assert (labels[special_positions] == IGNORE_LABEL).all()
        assert (out[special_positions] == SEPARATOR_ID).all()

    def test_deterministic_given_seed(self):
        ids = list(range(N_SPECIALS, N_SPECIALS + 64))
        a = mask_sequence(ids, 0.15, _rng(7), vocab_size=VOCAB)
        b = mask_sequence(ids, 0.15, _rng(7), vocab_size=VOCAB)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()

    def test_action_split_proportions(self):
        # over many positions: ~80% -> mask id, ~10% random, ~10% unchanged
        ids = list(_rng(8).integers(N_SPECIALS, VOCAB, size=50_000))
        out, labels = mask_sequence(ids, 0.5, _rng(9), vocab_size=VOCAB)
        arr = np.asarray(ids)
        selected = labels != IGNORE_LABEL
        n = int(selected.sum())
        n_mask = int((out[selected] == MASK_ID).sum())
        n_keep = int((out[selected] == arr[selected]).sum())
        assert abs(n_mask / n - 0.8) < 0.02
        assert abs(n_keep / n - 0.1) < 0.02

    def test_replacements_are_non_special(self):
        ids = list(_rng(10).integers(N_SPECIALS, VOCAB, size=20_000))
        out, labels = mask_sequence(ids, 0.5, _rng(11), vocab_size=VOCAB)
        changed = (labels != IGNORE_LABEL) & (out != MASK_ID)
        assert (out[changed] >= N_SPECIALS).all()
        assert (out[changed] < VOCAB).all()


class TestMakeMaskedBatch:
    def test_padding_and_mask(self):
        batch = make_masked_batch([[10, 11, 12], [13, 14]], 0.4, vocab_size=VOCAB)
        assert batch.input_ids.shape == (2, 3)  # the longest sequence's width
        assert batch.attn_mask.tolist() == [[1, 1, 1], [1, 1, 0]]
        assert (batch.labels[batch.attn_mask == 0] == IGNORE_LABEL).all()

    def test_masks_keyed_by_stream_index(self):
        seqs = [list(range(10, 40)) for _ in range(8)]
        whole = make_masked_batch(seqs, 0.3, vocab_size=VOCAB, seed=5, indices=range(0, 8))
        first = make_masked_batch(seqs[:4], 0.3, vocab_size=VOCAB, seed=5, indices=range(0, 4))
        second = make_masked_batch(seqs[4:], 0.3, vocab_size=VOCAB, seed=5, indices=range(4, 8))
        assert (whole.input_ids == np.vstack([first.input_ids, second.input_ids])).all()
        assert (whole.labels == np.vstack([first.labels, second.labels])).all()

    def test_masked_fraction_over_thousand_sequences(self):
        seqs = [list(np.random.default_rng(i).integers(N_SPECIALS, VOCAB, size=100)) for i in range(1000)]
        batch = make_masked_batch(seqs, 0.15, vocab_size=VOCAB, seed=0)
        n_positions = 1000 * 100
        n_masked = int((batch.labels != IGNORE_LABEL).sum())
        sigma = np.sqrt(n_positions * 0.15 * 0.85)
        assert abs(n_masked - 0.15 * n_positions) <= 3 * sigma
