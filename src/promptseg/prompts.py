"""The seven context learners: their prompt parameters and coupling mechanics.

``build_prompts`` gives each prompted encoder one prompt per layer below the
depth; ``Backbone._encode`` injects them (textual prompts in front of the word
embeddings, visual prompts after the CLS token and patch embeddings, each
replacing the previous layer's prompt-slot outputs).  Multimodal learners
derive both modalities' prompts from unified prompts through a per-layer
coupling function.  Prompts are shared by every sample of a stack and repeated
over its leading axes where they are injected; only cocoop's image-conditioned
prompts carry a leading axis of their own.

Everything that differs between the learners is one entry of ``STRATEGIES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .backbone import Backbone, _linear_init, init_block_params, transformer_block
from .tensor import ConfigError, Tensor, layer_norm, linear, relu

INIT_PHRASE = "a photo of a"
SIGMA = 0.02


@dataclass
class CouplerConfig:
    unified_dim: int = 32          # H_u of the shared learners; maple's H_u is H_l
    use_lora: bool = False
    intermediate_dim: int = 32     # LoRA rank / CoCoOp meta-net bottleneck
    attn_heads: int = 4
    attn_dropout: float = 0.0
    attn_ff_dim: int = 64
    layernorm_first: bool = True


@dataclass
class PromptState:
    kind: str
    J: int
    params: dict[str, Tensor]
    coupler: CouplerConfig | None = None

    @property
    def strategy(self) -> Strategy:
        return STRATEGIES[self.kind]


# -- parameter creation ------------------------------------------------------


class _Init:
    """Shapes, coupler config and the one seeded generator an initializer
    draws from.  Initializers yield (name, array) pairs in insertion order,
    which is both the checkpoint order and the order of the random draws."""

    def __init__(self, B: int, J: int, backbone: Backbone, coupler: CouplerConfig,
                 init_mode: str, seed: int):
        cfg = backbone.cfg
        self.B, self.J, self.coupler = B, J, coupler
        self.H_l, self.H_v, self.H_vl = cfg.text_width, cfg.vision_width, cfg.joint_width
        self.embed = (backbone.params["text.embed"].data
                      if init_mode == "photo-of-a" else None)
        self.rng = np.random.default_rng(seed)

    def gauss(self, *shape) -> np.ndarray:
        return self.rng.normal(0.0, SIGMA, shape)

    def linear(self, din: int, dout: int) -> np.ndarray:
        return _linear_init(self.rng, din, dout)

    def text_prompt(self, depth: int) -> np.ndarray:
        """[B, H_l]; under photo-of-a init the depth-0 prompt is the embedded
        init phrase, cut to B rows or padded with gaussian ones."""
        if depth > 0 or self.embed is None:
            return self.gauss(self.B, self.H_l)
        rows = self.embed[list(INIT_PHRASE.encode("utf-8"))]
        if self.B <= len(rows):
            return rows[: self.B]
        return np.concatenate([rows, self.gauss(self.B - len(rows), self.H_l)], axis=0)


def _init_textual(ini: _Init):
    for i in range(ini.J):
        yield f"textual{i}", ini.text_prompt(i)


def _init_cocoop(ini: _Init):
    yield from _init_textual(ini)
    inter = ini.coupler.intermediate_dim
    yield "meta.w1", ini.linear(ini.H_vl, inter)
    yield "meta.b1", np.zeros(inter)
    # zero output layer: starts exactly at the unconditioned learner
    yield "meta.w2", np.zeros((inter, ini.H_l))
    yield "meta.b2", np.zeros(ini.H_l)


def _init_vpt(ini: _Init):
    for i in range(ini.J):
        yield f"visual{i}", ini.gauss(ini.B, ini.H_v)


def _init_maple(ini: _Init):
    """Unified prompts live in text space: H_u is H_l, whatever
    ``coupler.unified_dim`` says."""
    c = ini.coupler
    for i in range(ini.J):
        yield f"unified{i}", ini.text_prompt(i)
        if c.use_lora:
            yield f"coupler{i}.lora_a", ini.linear(ini.H_l, c.intermediate_dim)
            yield f"coupler{i}.lora_b", ini.gauss(ini.H_v, c.intermediate_dim)
        else:
            yield f"coupler{i}.w", ini.linear(ini.H_l, ini.H_v)
        yield f"coupler{i}.b", np.zeros(ini.H_v)


def _init_shared_separate(ini: _Init):
    H_u = ini.coupler.unified_dim
    for i in range(ini.J):
        yield f"unified{i}", ini.gauss(ini.B, H_u)
        for branch, width in (("l", ini.H_l), ("v", ini.H_v)):
            pre = f"coupler{i}.to_{branch}"
            yield f"{pre}.w", ini.linear(H_u, width)
            yield f"{pre}.b", np.zeros(width)
            yield f"{pre}.ln.g", np.ones(width)
            yield f"{pre}.ln.b", np.zeros(width)


def _init_shared_attention(ini: _Init):
    c = ini.coupler
    H_u = c.unified_dim
    if H_u % c.attn_heads != 0:
        raise ConfigError(f"attn_heads {c.attn_heads} does not divide unified_dim {H_u}")
    for i in range(ini.J):
        yield f"unified{i}", ini.gauss(ini.B, H_u)
        block: dict[str, Tensor] = {}
        init_block_params(block, f"coupler{i}.block", H_u, c.attn_ff_dim, ini.rng)
        yield from ((name, t.data) for name, t in block.items())
        for branch, width in (("l", ini.H_l), ("v", ini.H_v)):
            yield f"coupler{i}.head_{branch}.w", ini.linear(H_u, width)
            yield f"coupler{i}.head_{branch}.b", np.zeros(width)


# -- one layer's (textual, visual) prompts -----------------------------------


def _pair_textual(state: PromptState, i: int, rng):
    return state.params[f"textual{i}"], None


def _pair_visual(state: PromptState, i: int, rng):
    return None, state.params[f"visual{i}"]


def _couple_maple(state: PromptState, i: int, rng):
    p = state.params
    unified = p[f"unified{i}"]
    if state.coupler.use_lora:
        w = linear(p[f"coupler{i}.lora_a"], p[f"coupler{i}.lora_b"].transpose(1, 0))
    else:
        w = p[f"coupler{i}.w"]
    return unified, linear(unified, w, p[f"coupler{i}.b"])


def _couple_shared_separate(state: PromptState, i: int, rng):
    p = state.params
    out = []
    for branch in ("l", "v"):
        pre = f"coupler{i}.to_{branch}"
        h = linear(p[f"unified{i}"], p[f"{pre}.w"], p[f"{pre}.b"])
        out.append(layer_norm(h, p[f"{pre}.ln.g"], p[f"{pre}.ln.b"]))
    return out[0], out[1]


def _couple_shared_attention(state: PromptState, i: int, rng):
    p, c = state.params, state.coupler
    h = transformer_block(p, f"coupler{i}.block", p[f"unified{i}"], c.attn_heads,
                          layernorm_first=c.layernorm_first, attn_dropout=c.attn_dropout, rng=rng)
    textual = linear(h, p[f"coupler{i}.head_l.w"], p[f"coupler{i}.head_l.b"])
    visual = linear(h, p[f"coupler{i}.head_v.w"], p[f"coupler{i}.head_v.b"])
    return textual, visual


# -- the strategy table ------------------------------------------------------


@dataclass(frozen=True)
class Strategy:
    """What one learner is: which encoders it prompts, and how."""

    textual: bool                      # injects prompts into the text encoder
    visual: bool                       # injects prompts into the image encoder
    init: Callable                     # _Init -> (name, array) pairs
    pair: Callable                     # (state, layer, rng) -> (textual, visual)
    image_conditioned: bool = False    # textual prompts pass through cocoop_condition
    text_space_init: bool = False      # depth-0 prompts in text space: photo-of-a allowed
    depth: int | None = None           # fixed prompt depth (coop: depth-1 deep-textual)


STRATEGIES = {
    "deep-textual": Strategy(True, False, _init_textual, _pair_textual,
                             text_space_init=True),
    "coop": Strategy(True, False, _init_textual, _pair_textual,
                     text_space_init=True, depth=1),
    "cocoop": Strategy(True, False, _init_cocoop, _pair_textual,
                       image_conditioned=True, text_space_init=True),
    "vpt": Strategy(False, True, _init_vpt, _pair_visual),
    "maple": Strategy(True, True, _init_maple, _couple_maple, text_space_init=True),
    "shared-attention": Strategy(True, True, _init_shared_attention,
                                 _couple_shared_attention),
    "shared-separate": Strategy(True, True, _init_shared_separate,
                                _couple_shared_separate),
}
KINDS = tuple(STRATEGIES)


def init_prompts(
    kind: str,
    B: int,
    J: int,
    backbone: Backbone,
    coupler: CouplerConfig | None = None,
    init_mode: str = "gaussian",
    seed: int = 0,
) -> PromptState:
    if kind not in STRATEGIES:
        raise ConfigError(f"unknown strategy kind {kind!r}")
    spec = STRATEGIES[kind]
    if B < 1:
        raise ConfigError("prompt length B must be at least 1")
    cfg = backbone.cfg
    bound = min(layers for layers, used in ((cfg.text_layers, spec.textual),
                                            (cfg.vision_layers, spec.visual)) if used)
    if not 1 <= J <= bound:
        raise ConfigError(f"prompt depth {J} outside [1, {bound}] for {kind}")
    if spec.depth is not None and J != spec.depth:
        raise ConfigError(f"{kind} has prompt depth {spec.depth}, got {J}")
    if init_mode not in ("gaussian", "photo-of-a"):
        raise ConfigError(f"unknown init mode {init_mode!r}")
    if init_mode == "photo-of-a" and not spec.text_space_init:
        raise ConfigError(
            f"photo-of-a init needs depth-1 prompts in text space, not valid for {kind}"
        )

    coupler = coupler or CouplerConfig()
    ini = _Init(B, J, backbone, coupler, init_mode, seed)
    params = {name: Tensor(data, requires_grad=True) for name, data in spec.init(ini)}
    return PromptState(kind=kind, J=J, params=params, coupler=coupler)


def cocoop_condition(state: PromptState, z_image: Tensor) -> list[Tensor]:
    """Shift every textual prompt by the meta-net's image-conditioned bias;
    ``z_image`` [..., H_vl] gives prompts [..., B, H_l]."""
    if not state.strategy.image_conditioned:
        raise ConfigError(f"cocoop_condition requires a cocoop state, got {state.kind}")
    p = state.params
    h = relu(linear(z_image.reshape(*z_image.shape[:-1], 1, -1), p["meta.w1"], p["meta.b1"]))
    pi = linear(h, p["meta.w2"], p["meta.b2"])  # [..., 1, H_l]
    return [p[f"textual{i}"] + pi for i in range(state.J)]


def build_prompts(state: PromptState | None, rng=None):
    """Per-layer (textual, visual) prompt lists for the encoders; ``None`` for
    an encoder the strategy leaves alone.  ``rng`` is given only in training,
    where it drives the coupler's attention dropout."""
    if state is None:
        return None, None
    spec = state.strategy
    pairs = [spec.pair(state, i, rng) for i in range(state.J)]
    textual = [t for t, _ in pairs] if spec.textual else None
    visual = [v for _, v in pairs] if spec.visual else None
    return textual, visual


def trainable_parameters(state: PromptState, backbone: Backbone) -> list[tuple[str, Tensor]]:
    """Everything the optimizer may touch: prompts, couplers, meta-net, upsampler."""
    named = [(f"prompt.{n}", t) for n, t in state.params.items()]
    named.extend(backbone.upsampler_parameters())
    return named
