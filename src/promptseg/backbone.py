"""Miniature frozen dual-encoder segmentation model.

A byte-level text transformer and a ViT-style image transformer feed a small
decoder that emits one logit per pixel.  Every backbone parameter is frozen;
only injected prompts (see :mod:`promptseg.prompts`) and, optionally, the
residual upsampler train.

Token sequences are ``[..., s, d]``: the encoders, the decoder and attention
run the same code on one sample and on a stack of samples along leading axes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .tensor import (
    LN_EPS,
    ConfigError,
    ShapeError,
    Tensor,
    _layer_norm_arrays,
    _layer_norm_grads,
    _linear_weight_grads,
    _node,
    concat,
    conv2d,
    linear,
)

BOS_ID = 256
EOS_ID = 257
VOCAB_SIZE = 258
FF_MULTIPLIER = 2     # feed-forward width per model width


class TokenizationError(ValueError):
    pass


def tokenize(phrase: str, max_len: int) -> np.ndarray:
    """Byte-level tokens wrapped in BOS/EOS."""
    body = phrase.encode("utf-8")
    ids = [BOS_ID, *body, EOS_ID]
    if len(ids) > max_len:
        raise TokenizationError(
            f"phrase needs {len(ids)} tokens but the encoder accepts {max_len}"
        )
    return np.array(ids, dtype=np.int64)


@dataclass
class BackboneConfig:
    text_width: int = 32          # H_l
    vision_width: int = 32        # H_v
    joint_width: int = 32         # H_vl
    text_layers: int = 4          # K_l
    vision_layers: int = 4        # K_v
    decoder_layers: int = 2
    patch_size: int = 8
    image_size: int = 32
    max_text_len: int = 16
    text_heads: int = 4
    vision_heads: int = 4
    use_upsampler: bool = True

    def __post_init__(self):
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.text_width % self.text_heads != 0:
            raise ConfigError("text_heads must divide text_width")
        if self.vision_width % self.vision_heads != 0:
            raise ConfigError("vision_heads must divide vision_width")
        if self.text_layers < 1 or self.vision_layers < 1:
            raise ConfigError("encoders need at least one layer")

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def n_patches(self) -> int:
        return self.grid * self.grid


@dataclass
class TextEncoding:
    z: Tensor                 # [..., 1, joint_width]: the EOS slot, projected
    final_seq: Tensor         # [..., B + n, text_width]
    eos_index: int            # index in final_seq holding the sentence embedding


@dataclass
class ImageEncoding:
    z: Tensor                 # [..., joint_width]
    patch_tokens: Tensor      # [..., n_patches, vision_width]


def _linear_init(rng, din, dout):
    return rng.normal(0.0, 1.0 / np.sqrt(din), size=(din, dout))


# one transformer block's parameters, in the order they are drawn and stored
BLOCK_PARAMS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
                "ln1.g", "ln1.b", "ln2.g", "ln2.b", "ff.w1", "ff.b1", "ff.w2", "ff.b2")


def init_block_params(params: dict, prefix: str, d: int, ff: int, rng) -> None:
    """Allocate one transformer block's parameters under ``prefix``: the
    weights random, the layer-norm gains one, every bias and shift zero."""
    dims = {"ff.w1": (d, ff), "ff.b1": ff, "ff.w2": (ff, d)}
    for name in BLOCK_PARAMS:
        kind = name.split(".")[-1][0]  # w(eight), g(ain), or b(ias or shift)
        params[f"{prefix}.{name}"] = Tensor(
            _linear_init(rng, *dims.get(name, (d, d))) if kind == "w"
            else np.full(dims.get(name, d), float(kind == "g")))


def _fresh(g: np.ndarray) -> np.ndarray:
    """``g`` as ``Tensor._accumulate`` first stores it, a new C-contiguous buffer."""
    return np.add(g, 0.0, out=np.empty(g.shape))


def _summed(parts: list[np.ndarray]) -> np.ndarray:
    """The parts of one gradient, summed in order as ``Tensor._accumulate`` does."""
    return sum(parts[1:], _fresh(parts[0]))


def transformer_block(params: dict, prefix: str, x: Tensor, heads: int,
                      layernorm_first: bool = True, attn_dropout: float = 0.0,
                      rng=None) -> Tensor:
    """One block of bidirectional multi-head attention and a feed-forward
    layer over a ``[..., s, d]`` sequence, as one graph node; with
    ``attn_dropout`` and an ``rng``, a ``[..., heads, s, s]`` dropout mask is
    drawn on the attention weights.  Value and gradients have the bits of the
    chain of ``layer_norm``, ``linear``, ``relu`` and add nodes it stands for:
    each gradient between two of them is a fresh buffer, and the parts of one
    are summed in the chain's order.  Weights that do not require grad get no
    gradient computed (nor, if all are frozen, kept the arrays only they read);
    like every op's, the output is a constant if nothing requires grad."""
    *lead, s, d = x.shape
    if d % heads != 0:
        raise ConfigError(f"{heads} heads do not divide width {d}")
    ws = [params[f"{prefix}.{n}"] for n in BLOCK_PARAMS]
    wq, bq, wk, bk, wv, bv, wo, bo, g1, c1, g2, c2, w1, b1, w2, b2 = ws
    weight_grads = any(w.requires_grad for w in ws)
    mask = (None if attn_dropout <= 0.0 or rng is None else
            (rng.random((*lead, heads, s, s)) >= attn_dropout) / (1.0 - attn_dropout))
    n, dh = len(lead), d // heads
    swap = (*range(n), n + 1, n, n + 2)  # [..., s, heads, dh] <-> [..., heads, s, dh]
    split = lambda t: t.reshape(*lead, s, heads, dh).transpose(swap)
    merge = lambda t: t.transpose(swap).reshape(*lead, s, d)
    scale = 1.0 / np.sqrt(dh)

    def lin_bw(g, t, w, b):  # t @ w + b's input gradient, after its weights' (which read t)
        _linear_weight_grads(g, t, w, b)
        return g @ w.data.T

    # a sub-layer gives its value and a map from its gradient to its input's parts
    def attn(t):
        qh, kh, vh = (split(t @ w.data + b.data) for w, b in ((wq, bq), (wk, bk), (wv, bv)))
        scores = (qh @ kh.swapaxes(-1, -2)) * scale
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        att = e / e.sum(axis=-1, keepdims=True)
        weighted = att if mask is None else att * mask
        a = merge(weighted @ vh)
        y = a @ wo.data + bo.data
        t, a = (t, a) if weight_grads else (None, None)

        def bw(g):
            gh = split(_fresh(lin_bw(g, a, wo, bo)))
            datt = gh @ vh.swapaxes(-1, -2)
            if mask is not None:
                datt = datt * mask
            dscores = att * (datt - (datt * att).sum(axis=-1, keepdims=True)) * scale
            per_head = (dscores @ kh, (qh.swapaxes(-1, -2) @ dscores).swapaxes(-1, -2),
                        weighted.swapaxes(-1, -2) @ gh)
            return [lin_bw(_fresh(merge(dt)), t, w, b)
                    for dt, w, b in zip(per_head, (wq, wk, wv), (bq, bk, bv))]

        return y, bw

    def ff(t):
        f1 = t @ w1.data + b1.data
        relu_mask = f1 > 0
        r = np.where(relu_mask, f1, 0.0)
        y = r @ w2.data + b2.data
        t, r = (t, r) if weight_grads else (None, None)
        bw = lambda g: [lin_bw(_fresh(_fresh(lin_bw(g, r, w2, b2)) * relu_mask), t, w1, b1)]
        return y, bw

    def residual(t, layer, gamma, beta):
        """``t + layer(ln(t))`` pre-norm, ``ln(t + layer(t))`` post-norm."""
        if layernorm_first:
            normed, *stats = _layer_norm_arrays(t, gamma.data, beta.data, LN_EPS)
            y, layer_bw = layer(normed)
            return t + y, lambda g: [g, _layer_norm_grads(
                _summed(layer_bw(_fresh(g))), gamma, beta, *stats, True)]
        y, layer_bw = layer(t)
        val, *stats = _layer_norm_arrays(t + y, gamma.data, beta.data, LN_EPS)

        def bw(g):
            dsum = _fresh(_layer_norm_grads(g, gamma, beta, *stats, True))
            return [dsum, *layer_bw(_fresh(dsum))]

        return val, bw

    h, attn_bw = residual(x.data, attn, g1, c1)
    val, ff_bw = residual(h, ff, g2, c2)

    def _bw(g):
        for part in attn_bw(_summed(ff_bw(g))):
            x._accumulate(part)

    return _node(val, (x, *ws), _bw)


class Backbone:
    """Holds all frozen weights plus the (optionally trainable) upsampler."""

    UPSAMPLER_NAMES = ("upsampler.kernel", "upsampler.bias", "upsampler.residual_factor")

    def __init__(self, cfg: BackboneConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        p: dict[str, Tensor] = {}
        ps = cfg.patch_size
        block = lambda prefix, d: init_block_params(p, prefix, d, FF_MULTIPLIER * d, rng)

        p["text.embed"] = Tensor(rng.normal(0.0, 0.02, (VOCAB_SIZE, cfg.text_width)))
        p["text.pos"] = Tensor(rng.normal(0.0, 0.01, (cfg.max_text_len, cfg.text_width)))
        for i in range(cfg.text_layers):
            block(f"text.layer{i}", cfg.text_width)
        p["text.proj"] = Tensor(_linear_init(rng, cfg.text_width, cfg.joint_width))

        p["vision.patch_proj"] = Tensor(_linear_init(rng, 3 * ps * ps, cfg.vision_width))
        p["vision.pos"] = Tensor(rng.normal(0.0, 0.01, (1 + cfg.n_patches, cfg.vision_width)))
        p["vision.cls"] = Tensor(rng.normal(0.0, 0.02, cfg.vision_width))
        for i in range(cfg.vision_layers):
            block(f"vision.layer{i}", cfg.vision_width)
        p["vision.proj"] = Tensor(_linear_init(rng, cfg.vision_width, cfg.joint_width))

        # The conditioning projection is drawn at a larger scale and the decoder
        # blocks start near the identity (small output projections): with no
        # pretraining, a fully random decoder drowns out the text-conditioning
        # path, leaving the prompt gradients too weak to matter.
        p["decoder.cond.w"] = Tensor(3.0 * _linear_init(rng, cfg.joint_width, cfg.vision_width))
        p["decoder.cond.b"] = Tensor(np.zeros(cfg.vision_width))
        for i in range(cfg.decoder_layers):
            block(f"decoder.layer{i}", cfg.vision_width)
            p[f"decoder.layer{i}.wo"].data *= 0.1
            p[f"decoder.layer{i}.ff.w2"].data *= 0.1
        # Unembedding rows share one direction per patch with small per-pixel
        # jitter, so a single conditioning vector can move a whole logit tile
        # coherently instead of fighting ps^2 independent random directions.
        shared = rng.normal(0.0, 1.0 / np.sqrt(cfg.vision_width), cfg.vision_width)
        jitter = rng.normal(0.0, 0.1 / np.sqrt(cfg.vision_width),
                            (cfg.vision_width, ps * ps))
        p["decoder.unembed.w"] = Tensor(shared[:, None] + jitter)
        p["decoder.unembed.b"] = Tensor(np.zeros(ps * ps))

        p["upsampler.kernel"] = Tensor(rng.normal(0.0, 0.05, (1, 1, 5, 5)))
        p["upsampler.bias"] = Tensor(np.zeros(1))
        p["upsampler.residual_factor"] = Tensor(np.asarray(0.1))

        if cfg.use_upsampler:
            for name in self.UPSAMPLER_NAMES:
                p[name].requires_grad = True
        self.params = p

    # -- parameter bookkeeping ----------------------------------------------

    def upsampler_parameters(self) -> list[tuple[str, Tensor]]:
        if not self.cfg.use_upsampler:
            return []
        return [(n, self.params[n]) for n in self.UPSAMPLER_NAMES]

    def frozen_param_names(self) -> list[str]:
        trainable = {n for n, _ in self.upsampler_parameters()}
        return [n for n in self.params if n not in trainable]

    def frozen_checksum(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.frozen_param_names()):
            h.update(name.encode())
            h.update(np.ascontiguousarray(self.params[name].data).tobytes())
        return h.hexdigest()

    # -- encoders ------------------------------------------------------------

    def _encode(self, branch: str, seq: Tensor, prompts, front: bool, layers: int,
                heads: int) -> Tensor:
        """Run ``branch``'s blocks over ``seq`` with prompt ``i`` joined before
        block ``i``, in ``front`` of it (text) or behind it (vision), in place of
        the previous prompt's slots; past the depth the slots ride along as
        ordinary tokens."""
        prompts = prompts or []
        for i in range(layers):
            if i < len(prompts):
                if i > 0:
                    B = prompts[i - 1].shape[-2]
                    seq = seq[..., B:, :] if front else seq[..., :-B, :]
                seq = concat([prompts[i], seq] if front else [seq, prompts[i]], axis=-2)
            seq = transformer_block(self.params, f"{branch}.layer{i}", seq, heads)
        return seq

    def encode_text(self, tokens: np.ndarray, textual_prompts=None) -> TextEncoding:
        """One phrase; prompts with leading axes give one encoding per index."""
        cfg = self.cfg
        tokens = np.asarray(tokens)
        if len(tokens) > cfg.max_text_len:
            raise TokenizationError(
                f"sequence of {len(tokens)} tokens exceeds max_text_len {cfg.max_text_len}"
            )
        eos_positions = np.flatnonzero(tokens == EOS_ID)
        if len(eos_positions) != 1:
            raise TokenizationError(
                f"sequence must contain exactly one EOS marker, found {len(eos_positions)}"
            )
        seq = self._encode(
            "text", self.params["text.embed"][tokens] + self.params["text.pos"][:len(tokens)],
            textual_prompts, True, cfg.text_layers, cfg.text_heads)
        eos = int(eos_positions[0]) + (textual_prompts[0].shape[-2] if textual_prompts else 0)
        z = linear(seq[..., eos : eos + 1, :], self.params["text.proj"])
        return TextEncoding(z=z, final_seq=seq, eos_index=eos)

    def patchify(self, image: np.ndarray) -> np.ndarray:
        """``[3, S, S]`` -> ``[n_patches, 3*ps*ps]``; a stack ``[N, 3, S, S]``
        -> ``[N, n_patches, 3*ps*ps]``."""
        cfg = self.cfg
        image = np.asarray(image, dtype=np.float64)
        if image.ndim not in (3, 4) or image.shape[-3:] != (3, cfg.image_size, cfg.image_size):
            raise ShapeError(
                f"expected image of shape (3, {cfg.image_size}, {cfg.image_size}) "
                f"or a stack of them, got {image.shape}"
            )
        g, ps, lead = cfg.grid, cfg.patch_size, image.shape[:-3]
        n = len(lead)
        return (
            image.reshape(*lead, 3, g, ps, g, ps)
            .transpose(*range(n), n + 1, n + 3, n, n + 2, n + 4)
            .reshape(*lead, cfg.n_patches, 3 * ps * ps)
        )

    def encode_image(self, image: np.ndarray, visual_prompts=None) -> ImageEncoding:
        cfg = self.cfg
        patches = Tensor(self.patchify(image))
        E = linear(patches, self.params["vision.patch_proj"], self.params["vision.pos"][1:])
        c0 = (self.params["vision.cls"] + self.params["vision.pos"][0]).reshape(
            1, cfg.vision_width
        )
        seq = self._encode("vision", concat([c0, E], axis=-2), visual_prompts, False,
                           cfg.vision_layers, cfg.vision_heads)
        z = linear(seq[..., 0:1, :], self.params["vision.proj"]).reshape(
            *seq.shape[:-2], cfg.joint_width)
        return ImageEncoding(z=z, patch_tokens=seq[..., 1 : 1 + cfg.n_patches, :])

    # -- decoder -------------------------------------------------------------

    def decode(self, patch_tokens: Tensor, z_text: Tensor) -> Tensor:
        """``[..., n_patches, vision_width]`` tokens and ``[..., joint_width]``
        (or ``[..., 1, joint_width]``) text embeddings -> ``[..., S, S]`` logits."""
        cfg = self.cfg
        *lead, P, width = patch_tokens.shape
        if (P, width) != (cfg.n_patches, cfg.vision_width):
            raise ShapeError(
                f"expected {cfg.n_patches} patch tokens of width {cfg.vision_width}, "
                f"got {patch_tokens.shape}"
            )
        cond = linear(z_text.reshape(*lead, 1, cfg.joint_width), self.params["decoder.cond.w"],
                      self.params["decoder.cond.b"])
        tokens = patch_tokens * (cond + 1.0)
        for i in range(cfg.decoder_layers):
            tokens = transformer_block(self.params, f"decoder.layer{i}", tokens, cfg.vision_heads)
        tiles = linear(tokens, self.params["decoder.unembed.w"], self.params["decoder.unembed.b"])
        g, ps, S, n = cfg.grid, cfg.patch_size, cfg.image_size, len(lead)
        body = tiles.reshape(*lead, g, g, ps, ps).transpose(
            *range(n), n, n + 2, n + 1, n + 3).reshape(*lead, S, S)
        if not cfg.use_upsampler:
            return body
        res = conv2d(
            body.reshape(*lead, 1, S, S),
            self.params["upsampler.kernel"],
            bias=self.params["upsampler.bias"],
            padding=2,
        )
        return body + (res * self.params["upsampler.residual_factor"]).reshape(*lead, S, S)

    # -- full model ----------------------------------------------------------

    def forward(self, image: np.ndarray, tokens, state=None, rng=None,
                memo: dict | None = None) -> Tensor:
        """Full text-conditioned segmentation pass; ``state`` carries prompts.

        A stack [N, 3, S, S] with N token arrays gives [N, S, S] logits, from
        one prompt build and one text-encoder pass per distinct phrase; one
        image [3, S, S] with its token array runs as a stack of one.  ``memo``,
        a dict passed empty to the first of a run of forwards under unchanged
        prompts, keeps the prompts and each phrase's text row for the rest (not
        ``cocoop``'s rows: they depend on the images)."""
        from . import prompts

        single = np.ndim(image) == 3
        if single:
            image, tokens = np.asarray(image)[None], [tokens]
        if len(tokens) != len(image):
            raise ShapeError(f"{len(image)} images but {len(tokens)} token arrays")
        memo = {} if memo is None else memo
        if "prompts" not in memo:
            memo["prompts"] = prompts.build_prompts(state, rng=rng)
        textual, visual = memo["prompts"]
        img_enc = self.encode_image(image, visual_prompts=visual)
        conditioned = state is not None and state.strategy.image_conditioned
        groups: dict[bytes, list[int]] = {}
        for i, t in enumerate(tokens):
            groups.setdefault(np.asarray(t).tobytes(), []).append(i)
        # z rows: one per phrase, or for cocoop one per sample of a phrase pass
        rows, row_of, n_rows = [], np.empty(len(tokens), dtype=np.int64), 0
        for key, idx in groups.items():
            if conditioned:
                textual = prompts.cocoop_condition(state, img_enc.z[idx])
                rows.append(self.encode_text(tokens[idx[0]], textual).z)
            else:
                if key not in memo:
                    memo[key] = self.encode_text(tokens[idx[0]], textual).z
                rows.append(memo[key])
            row_of[idx] = n_rows + np.arange(len(idx)) if conditioned else n_rows
            n_rows += rows[-1].shape[0]
        logits = self.decode(img_enc.patch_tokens, concat(rows, axis=0)[row_of])
        return logits.reshape(logits.shape[1:]) if single else logits
