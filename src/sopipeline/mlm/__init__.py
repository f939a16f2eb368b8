"""Desk-scale masked-language-model machinery.

A small pre-norm transformer encoder (each sublayer wired as
x + Sublayer(Norm(x))) with hand-written numpy forward/backward passes, so
gradients can be verified independently against finite differences.
"""

from .encoder import (
    ATTENTION,
    FFN,
    ClassifierModel,
    EncoderConfig,
    EncoderModel,
    HeadKind,
    build_encoder,
    load_checkpoint,
    save_checkpoint,
)
from .masking import IGNORE_LABEL, MaskedBatch, make_masked_batch, mask_sequence
from .training import (
    BatchPlan,
    attach_head,
    finetune,
    grad_check,
    plan_batches,
    train_mlm,
)

__all__ = [
    "ATTENTION",
    "FFN",
    "BatchPlan",
    "ClassifierModel",
    "EncoderConfig",
    "EncoderModel",
    "HeadKind",
    "IGNORE_LABEL",
    "MaskedBatch",
    "attach_head",
    "build_encoder",
    "finetune",
    "grad_check",
    "load_checkpoint",
    "make_masked_batch",
    "mask_sequence",
    "plan_batches",
    "save_checkpoint",
    "train_mlm",
]
