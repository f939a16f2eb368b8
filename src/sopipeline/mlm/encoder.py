"""Pre-norm transformer encoder with explicit backprop.

Parameters live in a flat name -> ndarray dict in a declared order (the
checkpoint tensor order). The forward pass caches what the hand-written
backward pass needs; no autograd framework is involved, which keeps the
finite-difference gradient check an independent second route.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from ..atomic import replacing
from ..bpe import N_SPECIALS
from ..errors import ChecksumMismatchError, UsageError

ATTENTION = "attention"
FFN = "ffn"
_LN_EPS = 1e-5
_MASK_PENALTY = 1e9


class HeadKind(Enum):
    SEQUENCE = "sequence"
    TOKEN = "token"


@dataclass(frozen=True)
class EncoderConfig:
    n_layers: int
    hidden: int
    n_heads: int
    vocab_size: int
    ffn_mult: int = 4
    max_positions: int = 2048
    seed: int = 0
    tied_head: bool = False
    sublayers: tuple[str, ...] = (ATTENTION, FFN)
    dtype: str = "float32"
    vocab_checksum: Optional[bytes] = None

    def __post_init__(self):
        # a checkpoint's JSON config may hold a float or a bool (an int subclass) here
        sizes = ("n_layers", "hidden", "n_heads", "vocab_size", "ffn_mult", "max_positions")
        not_int = [k for k in sizes if type(getattr(self, k)) is not int]
        if not_int:
            raise UsageError(f"sizes {not_int} must be integers")
        if self.dtype not in ("float32", "float64"):
            raise UsageError(f"dtype must be float32 or float64, not {self.dtype!r}")
        if self.n_heads < 1 or self.hidden % self.n_heads != 0:
            raise UsageError(f"n_heads ({self.n_heads}) must be at least 1 and divide hidden ({self.hidden})")
        if self.max_positions < 1:
            raise UsageError("max_positions must be at least 1")
        if self.vocab_size <= N_SPECIALS:
            raise UsageError(f"vocab_size must exceed the {N_SPECIALS} special tokens")
        if self.n_layers < 0 or self.ffn_mult < 1:
            raise UsageError("n_layers must be >= 0 and ffn_mult >= 1")
        unknown = set(self.sublayers) - {ATTENTION, FFN}
        if unknown:
            raise UsageError(f"unknown sublayers {sorted(unknown)}")

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    def check_vocab(self, checksum: Optional[bytes], source: str) -> None:
        """Refuse token ids made under another vocabulary than the model's."""
        if None not in (checksum, self.vocab_checksum) and checksum != self.vocab_checksum:
            raise ChecksumMismatchError(
                f"{source} vocabulary {checksum.hex()} does not match model "
                f"vocabulary {self.vocab_checksum.hex()}"
            )


def _param_shapes(config: EncoderConfig) -> list[tuple[str, tuple[int, ...]]]:
    d, f, v, p = config.hidden, config.ffn_mult * config.hidden, config.vocab_size, config.max_positions
    shapes: list[tuple[str, tuple[int, ...]]] = [("tok_emb", (v, d)), ("pos_emb", (p, d))]
    for layer in range(config.n_layers):
        pre = f"L{layer}."
        if ATTENTION in config.sublayers:
            shapes += [
                (pre + "ln1.g", (d,)),
                (pre + "ln1.b", (d,)),
                (pre + "attn.wq", (d, d)),
                (pre + "attn.bq", (d,)),
                (pre + "attn.wk", (d, d)),
                (pre + "attn.bk", (d,)),
                (pre + "attn.wv", (d, d)),
                (pre + "attn.bv", (d,)),
                (pre + "attn.wo", (d, d)),
                (pre + "attn.bo", (d,)),
            ]
        if FFN in config.sublayers:
            shapes += [
                (pre + "ln2.g", (d,)),
                (pre + "ln2.b", (d,)),
                (pre + "ffn.w1", (d, f)),
                (pre + "ffn.b1", (f,)),
                (pre + "ffn.w2", (f, d)),
                (pre + "ffn.b2", (d,)),
            ]
    shapes += [("final_ln.g", (d,)), ("final_ln.b", (d,))]
    if not config.tied_head:
        shapes += [("head.w", (d, v)), ("head.b", (v,))]
    return shapes


def _init_param(name: str, shape: tuple[int, ...], rng: np.random.Generator, dtype) -> np.ndarray:
    if name.endswith(".g"):
        return np.ones(shape, dtype=dtype)
    if name.endswith((".b", ".bq", ".bk", ".bv", ".bo", ".b1", ".b2")) or name == "head.b":
        return np.zeros(shape, dtype=dtype)
    return (rng.normal(0.0, 0.02, size=shape)).astype(dtype)


@dataclass
class RowGrad:
    """Gradient of an embedding table that is zero outside ``rows``.

    ``rows`` are sorted unique row ids and ``values[i]`` is the gradient of
    row ``rows[i]``. A batch touches a few hundred of the table's rows, so
    this replaces a dense [V, d] tensor that would be zeroed, divided and
    scanned every step (the sparse embedding gradient of TensorFlow's
    ``IndexedSlices`` and PyTorch's ``Embedding(sparse=True)``).
    """

    rows: np.ndarray
    values: np.ndarray

    @classmethod
    def empty(cls, table: np.ndarray) -> "RowGrad":
        return cls(np.empty(0, dtype=np.int64), np.empty((0, table.shape[1]), dtype=table.dtype))

    def at(self, rows: np.ndarray) -> np.ndarray:
        """The dense gradient on ``rows``, sorted ids that include ``self.rows``."""
        out = np.zeros((len(rows), self.values.shape[1]), dtype=self.values.dtype)
        out[np.searchsorted(rows, self.rows)] = self.values
        return out

    def __add__(self, other: "RowGrad") -> "RowGrad":
        # the dense sum restricted to the union of rows, element for element
        rows = np.union1d(self.rows, other.rows)
        return RowGrad(rows, self.at(rows) + other.at(rows))

    def __itruediv__(self, divisor: float) -> "RowGrad":
        self.values /= divisor
        return self


class EncoderModel:
    def __init__(self, config: EncoderConfig, params: Optional[dict[str, np.ndarray]] = None):
        """Seeded random init, or adopt ``params`` (keyed in declared order)."""
        self.config = config
        self.param_names = [name for name, _ in _param_shapes(config)]
        if params is None:
            rng = np.random.default_rng(config.seed)
            params = {
                name: _init_param(name, shape, rng, config.np_dtype) for name, shape in _param_shapes(config)
            }
        self.params: dict[str, np.ndarray] = params

    @property
    def parameter_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def astype(self, dtype: str) -> "EncoderModel":
        """Copy of this model with every tensor cast to ``dtype``."""
        params = {k: v.astype(dtype) for k, v in self.params.items()}
        return EncoderModel(replace(self.config, dtype=dtype), params)

    # ------------------------------------------------------------------ #
    # forward                                                            #
    # ------------------------------------------------------------------ #

    def hidden_states(
        self, ids: np.ndarray, attn_mask: np.ndarray, want_cache: bool = False, rows: Optional[np.ndarray] = None
    ):
        """Embed, run the block stack, final-norm. Returns (y, cache).

        With ``rows``, a boolean [B, T] mask, ``y`` is ``[n, d]``: the
        selected rows only, in row-major order. A row's output depends on
        the other rows only through the keys and values of attention, so
        the last attention sublayer takes its queries from the selected
        rows alone (its keys and values from every row), ``x`` is gathered
        at its residual add, and the rest runs on n rows, as in
        FlashAttention's BERT ``last_layer_subset``. A stack with no
        attention sublayer gathers at the embedding output. Two rows or
        more get the full route's values bit for bit; numpy takes a lone
        row's products through matrix-vector BLAS, which rounds differently.
        """
        cfg = self.config
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise UsageError("ids must be [batch, time]")
        B, T = ids.shape
        if T > cfg.max_positions:
            raise UsageError(f"sequence length {T} exceeds max_positions {cfg.max_positions}")
        if ids.max(initial=0) >= cfg.vocab_size or ids.min(initial=0) < 0:
            raise UsageError("token id out of vocabulary range")
        mask = np.asarray(attn_mask, dtype=self.config.np_dtype)

        gather_at = None  # the layer whose attention output is gathered; -1: the embedding
        if rows is not None:
            rows = np.asarray(rows, dtype=bool)
            if rows.shape != ids.shape:
                raise UsageError("rows must be a [batch, time] mask")
            gather_at = cfg.n_layers - 1 if ATTENTION in cfg.sublayers else -1

        x = self.params["tok_emb"][ids] + self.params["pos_emb"][:T][None, :, :]
        if gather_at == -1:
            x = x[rows]
        cache: dict = {"ids": ids, "mask": mask, "T": T, "layers": [], "rows": rows, "gather_at": gather_at}
        for layer in range(cfg.n_layers):
            pre = f"L{layer}."
            layer_cache: dict = {}
            if ATTENTION in cfg.sublayers:
                h, ln_cache = _ln_forward(x, self.params[pre + "ln1.g"], self.params[pre + "ln1.b"])
                last = layer == gather_at
                out, attn_cache = self._attn_forward(h, mask, pre, rows if last else None)
                layer_cache["ln1"] = ln_cache
                layer_cache["attn"] = attn_cache
                x = (x[rows] if last else x) + out
            if FFN in cfg.sublayers:
                h, ln_cache = _ln_forward(x, self.params[pre + "ln2.g"], self.params[pre + "ln2.b"])
                out, ffn_cache = self._ffn_forward(h, pre)
                layer_cache["ln2"] = ln_cache
                layer_cache["ffn"] = ffn_cache
                x = x + out
            cache["layers"].append(layer_cache)
        y, final_cache = _ln_forward(x, self.params["final_ln.g"], self.params["final_ln.b"])
        cache["final_ln"] = final_cache
        return y, (cache if want_cache else None)

    def _attn_forward(self, h: np.ndarray, mask: np.ndarray, pre: str, rows: Optional[np.ndarray] = None):
        """Self-attention over ``h``, [B, T, d]; returns (out, cache).

        With ``rows``, a boolean [B, T] mask, only those positions are
        queries and ``out`` is ``[n, d]``, their outputs in row-major order.
        Each item's query positions are packed to the left of ``w`` slots,
        w = max(2, the largest count of an item), so the products stay
        matrix-matrix (see :meth:`hidden_states`); a spare slot repeats
        position 0 and is dropped. Keys and values come from every row.
        """
        cfg = self.config
        B, T, d = h.shape
        H = cfg.n_heads
        dh = d // H
        p = self.params

        def split(z):  # [B,t,d] -> [B,H,t,dh]
            return z.reshape(B, -1, H, dh).transpose(0, 2, 1, 3)

        hq, valid = h, None
        if rows is not None:
            counts = rows.sum(axis=1)
            valid = np.arange(max(2, counts.max(initial=0))) < counts[:, None]  # [B, w]
            slots = np.zeros(valid.shape, dtype=np.intp)
            slots[valid] = np.nonzero(rows)[1]
            hq = np.take_along_axis(h, slots[:, :, None], axis=1)
        q = split(hq @ p[pre + "attn.wq"] + p[pre + "attn.bq"])
        k = split(h @ p[pre + "attn.wk"] + p[pre + "attn.bk"])
        v = split(h @ p[pre + "attn.wv"] + p[pre + "attn.bv"])
        scores = (q @ k.transpose(0, 1, 3, 2)) / np.sqrt(dh).astype(h.dtype)
        scores = scores - _MASK_PENALTY * (1.0 - mask)[:, None, None, :]
        probs = _softmax(scores)
        probs[~mask.any(axis=-1)] = 0  # an item with no real key attends to nothing
        ctx = probs @ v  # [B,H,t,dh]
        merged = ctx.transpose(0, 2, 1, 3).reshape(B, -1, d)
        out = merged @ p[pre + "attn.wo"] + p[pre + "attn.bo"]
        cache = dict(h=h, hq=hq, rows=rows, valid=valid, q=q, k=k, v=v, probs=probs, merged=merged)
        return (out if valid is None else out[valid]), cache

    def _ffn_forward(self, h: np.ndarray, pre: str):
        p = self.params
        a = h @ p[pre + "ffn.w1"] + p[pre + "ffn.b1"]
        cdf = _gauss_cdf(a)
        g = a * cdf
        out = g @ p[pre + "ffn.w2"] + p[pre + "ffn.b2"]
        return out, {"h": h, "a": a, "g": g, "cdf": cdf}

    def logits_mlm(self, y: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Vocabulary logits of ``y``, written into ``out`` when it is given."""
        if self.config.tied_head:
            return np.matmul(y, self.params["tok_emb"].T, out=out)
        logits = np.matmul(y, self.params["head.w"], out=out)
        logits += self.params["head.b"]
        return logits

    # ------------------------------------------------------------------ #
    # backward                                                           #
    # ------------------------------------------------------------------ #

    def zero_grads(self) -> dict:
        """Zero gradients to accumulate a step's micro-batches into.

        ``tok_emb`` gets an empty :class:`RowGrad`, except under a tied
        head, which writes every row of it.
        """
        tok_emb = self.params["tok_emb"]
        grads: dict = {k: np.zeros_like(v) for k, v in self.params.items() if k != "tok_emb"}
        grads["tok_emb"] = np.zeros_like(tok_emb) if self.config.tied_head else RowGrad.empty(tok_emb)
        return grads

    def backward_mlm_head(self, y: np.ndarray, dlogits: np.ndarray, grads: dict) -> np.ndarray:
        """Gradient through the vocabulary projection; returns dY."""
        B, T, _ = y.shape
        y2 = y.reshape(B * T, -1)
        dl2 = dlogits.reshape(B * T, -1)
        if self.config.tied_head:
            grads["tok_emb"] += dl2.T @ y2
            return (dl2 @ self.params["tok_emb"]).reshape(y.shape)
        grads["head.w"] += y2.T @ dl2
        grads["head.b"] += dl2.sum(axis=0)
        return (dl2 @ self.params["head.w"].T).reshape(y.shape)

    def backward(self, cache: dict, dy: np.ndarray, grads: dict) -> None:
        """Backprop dLoss/dY through final norm, blocks, and embeddings.

        ``dy`` has the shape of the forward's ``y``: ``[n, d]`` when it took
        ``rows``, scattered into a [B, T, d] zero array where it gathered.
        """
        cfg = self.config
        rows, gather_at = cache["rows"], cache["gather_at"]

        def scatter(dx: np.ndarray) -> np.ndarray:
            full = np.zeros(rows.shape + dx.shape[-1:], dtype=dx.dtype)
            full[rows] = dx
            return full

        dx = _ln_backward(dy, cache["final_ln"], grads, "final_ln")
        for layer in reversed(range(cfg.n_layers)):
            pre = f"L{layer}."
            layer_cache = cache["layers"][layer]
            if FFN in cfg.sublayers:
                dh = self._ffn_backward(dx, layer_cache["ffn"], grads, pre)
                dx = dx + _ln_backward(dh, layer_cache["ln2"], grads, pre + "ln2")
            if ATTENTION in cfg.sublayers:
                dh = self._attn_backward(dx, layer_cache["attn"], grads, pre)
                if layer == gather_at:
                    dx = scatter(dx)
                dx = dx + _ln_backward(dh, layer_cache["ln1"], grads, pre + "ln1")
        if gather_at == -1:
            dx = scatter(dx)
        ids, T = cache["ids"], cache["T"]
        dx2 = dx.reshape(-1, dx.shape[-1])
        if isinstance(grads["tok_emb"], RowGrad):
            rows, inverse = np.unique(ids, return_inverse=True)
            values = np.zeros((len(rows), dx2.shape[1]), dtype=dx2.dtype)
            np.add.at(values, inverse.reshape(-1), dx2)
            grads["tok_emb"] += RowGrad(rows, values)
        else:
            np.add.at(grads["tok_emb"], ids.reshape(-1), dx2)
        grads["pos_emb"][:T] += dx.sum(axis=0)

    def _ffn_backward(self, dout: np.ndarray, c: dict, grads: dict, pre: str) -> np.ndarray:
        p = self.params
        d = dout.shape[-1]
        f = c["g"].shape[-1]
        do2 = dout.reshape(-1, d)
        g2 = c["g"].reshape(-1, f)
        grads[pre + "ffn.w2"] += g2.T @ do2
        grads[pre + "ffn.b2"] += do2.sum(axis=0)
        dg = dout @ p[pre + "ffn.w2"].T
        da = dg * _gelu_grad(c["a"], c["cdf"])
        da2 = da.reshape(-1, f)
        h2 = c["h"].reshape(-1, d)
        grads[pre + "ffn.w1"] += h2.T @ da2
        grads[pre + "ffn.b1"] += da2.sum(axis=0)
        return da @ p[pre + "ffn.w1"].T

    def _attn_backward(self, dout: np.ndarray, c: dict, grads: dict, pre: str) -> np.ndarray:
        """Gradients of one attention sublayer; returns dLoss/dh, [B, T, d].

        ``dout`` has the shape of the forward's ``out``: ``[n, d]`` when it
        took ``rows``, put back into the query slots with zeros in the spare
        ones, whose queries therefore get no gradient.
        """
        p = self.params
        h, hq, valid = c["h"], c["hq"], c["valid"]
        B, T, d = h.shape
        H = self.config.n_heads
        dh = d // H
        if valid is not None:
            slotted = np.zeros(valid.shape + (d,), dtype=dout.dtype)
            slotted[valid] = dout
            dout = slotted

        do2 = dout.reshape(-1, d)
        m2 = c["merged"].reshape(-1, d)
        grads[pre + "attn.wo"] += m2.T @ do2
        grads[pre + "attn.bo"] += do2.sum(axis=0)
        dmerged = (dout @ p[pre + "attn.wo"].T).reshape(B, -1, H, dh).transpose(0, 2, 1, 3)

        probs, q, k, v = c["probs"], c["q"], c["k"], c["v"]
        dprobs = dmerged @ v.transpose(0, 1, 3, 2)
        dv = probs.transpose(0, 1, 3, 2) @ dmerged
        # softmax: dS = P * (dP - sum(dP * P))
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dscores = dscores / np.sqrt(dh).astype(dout.dtype)
        dq = dscores @ k
        dk = dscores.transpose(0, 1, 3, 2) @ q

        def merge_heads(z):  # [B,H,t,dh] -> [B*t,d]
            return z.transpose(0, 2, 1, 3).reshape(-1, d)

        dhidden = np.zeros_like(h)
        for name, dz, x in (("q", dq, hq), ("k", dk, h), ("v", dv, h)):
            dz2 = merge_heads(dz)
            grads[pre + f"attn.w{name}"] += x.reshape(-1, d).T @ dz2
            grads[pre + f"attn.b{name}"] += dz2.sum(axis=0)
            dx = dz2 @ p[pre + f"attn.w{name}"].T
            if name == "q" and valid is not None:  # the scored slots only
                dhidden[c["rows"]] += dx.reshape(B, -1, d)[valid]
            else:
                dhidden += dx.reshape(B, T, d)
        return dhidden


def build_encoder(config: EncoderConfig) -> EncoderModel:
    """Deterministic seeded initialization: scaled-normal weights, zero
    biases, unit norm gains."""
    return EncoderModel(config)


@dataclass
class ClassifierModel:
    """Encoder plus a classification head over its final hidden states."""

    encoder: EncoderModel
    kind: HeadKind
    n_classes: int
    params: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not self.params:
            rng = np.random.default_rng(self.encoder.config.seed + 1)
            d = self.encoder.config.hidden
            self.params = {
                "cls_head.w": rng.normal(0.0, 0.02, size=(d, self.n_classes)).astype(
                    self.encoder.config.np_dtype
                ),
                "cls_head.b": np.zeros(self.n_classes, dtype=self.encoder.config.np_dtype),
            }

    def zero_grads(self) -> dict:
        """Zero gradients for every tensor the classification loss reaches:
        all but the MLM head's ``head.*``, with ``tok_emb``'s a :class:`RowGrad`."""
        params = {**self.encoder.params, **self.params}
        grads: dict = {
            k: np.zeros_like(v) for k, v in params.items() if k != "tok_emb" and not k.startswith("head.")
        }
        grads["tok_emb"] = RowGrad.empty(params["tok_emb"])
        return grads


# -- numeric pieces -----------------------------------------------------------


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# Python-float constants keep float32 activations float32 under NumPy 2's
# promotion rules (NEP 50); a NumPy float64 scalar would promote them.
def _gauss_cdf(x: np.ndarray) -> np.ndarray:
    # imported here: scipy.special takes about 0.2 s and 26 MB to import (a
    # 2-vCPU VM), and only pretrain and finetune run a GELU
    from scipy.special import erf

    return 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def _gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return cdf + x * pdf


def _ln_forward(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat = (x - mu) * inv
    return xhat * g + b, {"xhat": xhat, "inv": inv, "g": g}


def _ln_backward(dy: np.ndarray, cache: dict, grads: dict, name: str) -> np.ndarray:
    xhat, inv, g = cache["xhat"], cache["inv"], cache["g"]
    axes = tuple(range(dy.ndim - 1))
    grads[name + ".g"] += (dy * xhat).sum(axis=axes)
    grads[name + ".b"] += dy.sum(axis=axes)
    dxhat = dy * g
    mean_dxhat = dxhat.mean(axis=-1, keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)


# -- checkpoints ---------------------------------------------------------------

_CKPT_MAGIC = b"SOCP"
_CKPT_VERSION = 1


def save_checkpoint(model: EncoderModel, path: str | Path) -> None:
    """Versioned header + config JSON + float32 LE tensors in declared order."""
    cfg = model.config
    checksum = cfg.vocab_checksum.hex() if cfg.vocab_checksum else None
    config_block = json.dumps({**asdict(cfg), "vocab_checksum": checksum}, sort_keys=True).encode()
    with replacing(path) as fh:
        fh.write(_CKPT_MAGIC + struct.pack("<H", _CKPT_VERSION))
        fh.write(struct.pack("<I", len(config_block)))
        fh.write(config_block)
        for name in model.param_names:
            fh.write(np.ascontiguousarray(model.params[name], dtype="<f4").tobytes())


def load_checkpoint(path: str | Path) -> EncoderModel:
    blob = Path(path).read_bytes()
    if blob[:4] != _CKPT_MAGIC:
        raise ChecksumMismatchError(f"{path}: not a checkpoint file")
    if len(blob) < 10:
        raise ChecksumMismatchError(f"{path}: truncated checkpoint")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != _CKPT_VERSION:
        raise ChecksumMismatchError(f"{path}: unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack_from("<I", blob, 6)
    if 10 + cfg_len > len(blob):
        raise ChecksumMismatchError(f"{path}: truncated checkpoint")
    try:  # a flipped byte may leave valid JSON with an unknown key or a value no tensor can take
        cfg = dict(json.loads(blob[10 : 10 + cfg_len]))
        checksum, sublayers = cfg.pop("vocab_checksum", None), tuple(cfg.pop("sublayers"))
        config = EncoderConfig(**cfg, sublayers=sublayers, vocab_checksum=bytes.fromhex(checksum) if checksum else None)
        params: dict[str, np.ndarray] = {}
        pos = 10 + cfg_len
        for name, shape in _param_shapes(config):
            n_bytes = math.prod(shape) * 4
            if pos + n_bytes > len(blob):
                raise ChecksumMismatchError(f"{path}: truncated checkpoint")
            tensor = np.frombuffer(blob, dtype="<f4", count=n_bytes // 4, offset=pos).reshape(shape)
            params[name] = tensor.astype(config.np_dtype)
            pos += n_bytes
    except (KeyError, TypeError, ValueError, UsageError) as exc:
        raise ChecksumMismatchError(f"{path}: malformed checkpoint config ({exc})") from None
    if pos != len(blob):
        raise ChecksumMismatchError(f"{path}: trailing bytes in checkpoint")
    return EncoderModel(config, params)
