"""The miniature two-modality tracker.

A small frozen transformer backbone (shared by both modalities) extracts
template+search tokens; trainable insertions are the per-block expert
adapters, the multi-level/cross-modal fusion stage, and the center+box
head. Every insertion is wired so that zeroing its parameters makes it
drop out of the computation exactly, which keeps the frozen model's
predictions intact at insertion time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ContractError
from ..fusion import (
    AlignWeights,
    HyperConvParams,
    ModalityKeys,
    auto_epsilon,
    build_hypergraph,
    cross_align,
    hyperconv,
    multi_level_fuse,
)
from ..losses import Box
from ..moe import MoEAdapter, RouterDecision
from ..numerics import (
    ParamStore,
    RngStream,
    Tensor,
    add,
    concat,
    constant,
    gather_rows,
    linear,
    matmul,
    reshape,
    sigmoid,
    silu,
    slice_cols,
    smul,
    softmax,
    sub,
    transpose,
)
from .config import RunConfig
from .data import SyntheticSample

BACKBONE_PREFIX = "backbone"
HEAD_PREFIX = "head"
POOL_TEMPERATURE = 3.0
CENTER_CORRECTION = 0.2  # max learned center offset around the soft-argmax


def extract_patches(frame: np.ndarray, patch: int) -> np.ndarray:
    """Non-overlapping patches in grid row-major order, [T, C*p*p]."""
    c, h, w = frame.shape
    if h % patch or w % patch:
        raise ContractError(f"frame {h}x{w} not divisible by patch size {patch}")
    gh, gw = h // patch, w // patch
    tiles = frame.reshape(c, gh, patch, gw, patch)
    tiles = tiles.transpose(1, 3, 0, 2, 4)  # gy, gx, c, py, px
    return np.ascontiguousarray(tiles.reshape(gh * gw, c * patch * patch))


def patch_embed(frame: np.ndarray, w, b) -> Tensor:
    """Flatten patches and project them to token vectors."""
    return linear(constant(extract_patches(frame, _patch_from(w, frame))), w, b)


def _patch_from(w, frame) -> int:
    # patch size is implied by the projection's input width
    c = frame.shape[0]
    d_in = (w.tensor if hasattr(w, "tensor") else w).shape[0]
    patch_sq = d_in // c
    patch = int(round(patch_sq**0.5))
    if patch * patch * c != d_in:
        raise ContractError(f"projection width {d_in} is not C*p*p for C={c}")
    return patch


class Block:
    """Pre-norm-free transformer block: residual attention + residual MLP."""

    def __init__(self, store: ParamStore, prefix: str, dim: int, heads: int,
                 mlp_ratio: int, rng: RngStream, trainable: bool):
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        mlp_dim = mlp_ratio * dim

        def weight(name, shape, fan_in):
            return store.uniform_init(f"{prefix}.{name}", shape, fan_in, rng,
                                      trainable=trainable)

        self.wq = weight("attn.wq", (dim, dim), dim)
        self.wk = weight("attn.wk", (dim, dim), dim)
        self.wv = weight("attn.wv", (dim, dim), dim)
        self.wo = weight("attn.wo", (dim, dim), dim)
        self.w1 = weight("mlp.w1", (dim, mlp_dim), dim)
        self.w2 = weight("mlp.w2", (mlp_dim, dim), mlp_dim)

    def __call__(self, x: Tensor) -> Tensor:
        q = matmul(x, self.wq.tensor)
        k = matmul(x, self.wk.tensor)
        v = matmul(x, self.wv.tensor)
        outs = []
        inv_sqrt = 1.0 / np.sqrt(self.head_dim)
        for h in range(self.heads):
            lo, hi = h * self.head_dim, (h + 1) * self.head_dim
            qh, kh, vh = (slice_cols(t, lo, hi) for t in (q, k, v))
            weights = softmax(smul(matmul(qh, transpose(kh)), inv_sqrt), axis=1)
            outs.append(matmul(weights, vh))
        x = add(x, matmul(concat(outs, axis=1), self.wo.tensor))
        hidden = silu(matmul(x, self.w1.tensor))
        return add(x, matmul(hidden, self.w2.tensor))


@dataclass
class ForwardOutput:
    box: Box | None = None
    box_tensor: Tensor | None = None
    center_map: Tensor | None = None
    balances: list[Tensor] = field(default_factory=list)
    decisions: list[RouterDecision] = field(default_factory=list)
    expert_evals: list[int] = field(default_factory=list)

    def usage_histogram(self, n_experts: int) -> np.ndarray:
        hist = np.zeros(n_experts, dtype=np.int64)
        for decision in self.decisions:
            hist += np.bincount(decision.selected.ravel(), minlength=n_experts)
        return hist


class Tracker:
    """Backbone + optional adapters + optional fusion stage + head."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.store = ParamStore()
        root = RngStream(cfg.seed)
        d = cfg.model_dim
        patch_in = cfg.channels * cfg.patch_size * cfg.patch_size

        bb_rng = root.child("backbone")
        self.embed_w = self.store.uniform_init(
            f"{BACKBONE_PREFIX}.embed.w", (patch_in, d), patch_in, bb_rng, trainable=False
        )
        self.embed_b = self.store.zeros_init(
            f"{BACKBONE_PREFIX}.embed.b", (d,), trainable=False
        )
        self.pos_template = self.store.add(
            f"{BACKBONE_PREFIX}.pos_template",
            bb_rng.uniform(-0.1, 0.1, (cfg.n_template_tokens, d)), trainable=False,
        )
        self.pos_search = self.store.add(
            f"{BACKBONE_PREFIX}.pos_search",
            bb_rng.uniform(-0.1, 0.1, (cfg.n_search_tokens, d)), trainable=False,
        )
        self.blocks = [
            Block(self.store, f"{BACKBONE_PREFIX}.block{i}", d, cfg.heads,
                  cfg.mlp_ratio, bb_rng, trainable=False)
            for i in range(cfg.depth)
        ]

        self.adapters: list[MoEAdapter] = []
        if cfg.toggle_sdmoe:
            ad_rng = root.child("adapters")
            self.adapters = [
                MoEAdapter(self.store, f"adapter{i}", cfg.moe_config(), ad_rng)
                for i in range(cfg.depth)
            ]

        fu_rng = root.child("fusion")
        n_taps = len(cfg.level_taps)
        self.mff_w = None
        if cfg.toggle_mff:
            self.mff_w = self.store.zeros_init("fusion.mff.w", (n_taps * d, d))
        self.key_w = self.align = None
        self.fuse_w = self.out_w = self.conv = None
        if cfg.toggle_gram:
            self.key_w = self.store.zeros_init("fusion.key.w", (d, d))
            self.align = AlignWeights(
                w_r=self.store.zeros_init("fusion.align.w_r", ()),
                w_x=self.store.zeros_init("fusion.align.w_x", ()),
            )
        if cfg.toggle_gram or cfg.toggle_mhg:
            self.fuse_w = self.store.uniform_init("fusion.fuse.w", (2 * d, d), 2 * d, fu_rng)
            self.out_w = self.store.zeros_init("fusion.out.w", (d, 2 * d))
        if cfg.toggle_mhg:
            self.conv = HyperConvParams(
                theta1=self.store.uniform_init("fusion.conv.theta1", (d, d), d, fu_rng),
                theta2=self.store.zeros_init("fusion.conv.theta2", (d, d)),
            )

        hd_rng = root.child("head")
        hh = cfg.head_hidden
        self.head_w1 = self.store.uniform_init(f"{HEAD_PREFIX}.w1", (2 * d, hh), 2 * d, hd_rng)
        self.head_b1 = self.store.zeros_init(f"{HEAD_PREFIX}.b1", (hh,))
        self.center_w = self.store.uniform_init(f"{HEAD_PREFIX}.center.w", (hh, 1), hh, hd_rng)
        self.center_b = self.store.zeros_init(f"{HEAD_PREFIX}.center.b", (1,))
        # box decoder sees pooled features plus the map's soft-argmax coords
        self.box_w = self.store.uniform_init(f"{HEAD_PREFIX}.box.w", (hh + 2, 4), hh, hd_rng)
        self.box_b = self.store.zeros_init(f"{HEAD_PREFIX}.box.b", (4,))
        side = cfg.heatmap_side
        cell = (np.arange(side) + 0.5) / side
        gy, gx = np.meshgrid(cell, cell, indexing="ij")
        self._grid = np.stack([gx.ravel(), gy.ravel()], axis=1)  # [Ts, 2]

    # -- parameter bookkeeping ------------------------------------------------

    def backbone_checksum(self) -> str:
        return self.store.checksum(lambda p: p.name.startswith(BACKBONE_PREFIX))

    def n_trainable(self) -> int:
        return self.store.count(lambda p: p.trainable)

    def n_adapter_params(self) -> int:
        return self.store.count(lambda p: p.name.startswith("adapter"))

    def zero_new_modules(self) -> None:
        """Zero every adapter/fusion parameter (head and backbone stay)."""
        for p in self.store:
            if p.name.startswith("adapter") or p.name.startswith("fusion."):
                self.store.set_values(p.name, np.zeros(p.shape))

    # -- forward --------------------------------------------------------------

    def _run_modality(self, template: np.ndarray, search: np.ndarray, out: ForwardOutput):
        t_tokens = add(patch_embed(template, self.embed_w, self.embed_b),
                       self.pos_template.tensor)
        s_tokens = add(patch_embed(search, self.embed_w, self.embed_b),
                       self.pos_search.tensor)
        tokens = concat([t_tokens, s_tokens], axis=0)
        search_rows = np.arange(self.cfg.n_template_tokens,
                                self.cfg.n_template_tokens + self.cfg.n_search_tokens)
        levels = []
        for i, block in enumerate(self.blocks):
            tokens = block(tokens)
            if self.adapters:
                result = self.adapters[i](tokens)
                tokens = result.output
                out.balances.append(result.balance)
                out.decisions.append(result.decision)
                out.expert_evals.append(result.n_expert_evals)
            if (i + 1) in self.cfg.level_taps:
                levels.append(gather_rows(tokens, search_rows))
        final = gather_rows(tokens, search_rows)
        return final, levels

    def _fuse_modality(self, final: Tensor, levels: list[Tensor]) -> Tensor:
        if self.mff_w is not None:
            return add(final, multi_level_fuse(levels, self.mff_w))
        return final

    def forward(self, sample: SyntheticSample) -> ForwardOutput:
        out = ForwardOutput()
        final_r, levels_r = self._run_modality(sample.template_r, sample.search_r, out)
        final_x, levels_x = self._run_modality(sample.template_x, sample.search_x, out)
        feat_r = self._fuse_modality(final_r, levels_r)
        feat_x = self._fuse_modality(final_x, levels_x)
        head_in = concat([feat_r, feat_x], axis=1)

        if self.fuse_w is not None:
            if self.align is not None:
                keys = ModalityKeys(
                    k_r=add(feat_r, linear(feat_r, self.key_w)),
                    k_x=add(feat_x, linear(feat_x, self.key_w)),
                )
                fused = cross_align(keys, self.align, self.fuse_w)
            else:
                fused = linear(concat([feat_x, feat_r], axis=1), self.fuse_w)
            if self.conv is not None:
                eps = (self.cfg.epsilon_value if self.cfg.epsilon_mode == "fixed"
                       else auto_epsilon(fused))
                fused = hyperconv(fused, build_hypergraph(fused, eps), self.conv)
            head_in = add(head_in, linear(fused, self.out_w))

        trunk = silu(linear(head_in, self.head_w1, self.head_b1))
        side = self.cfg.heatmap_side
        center_logits = linear(trunk, self.center_w, self.center_b)
        center = sigmoid(reshape(center_logits, (side, side)))
        # pool token features weighted by sharpened center scores, so the box
        # decoder sees where the map peaks rather than a uniform average
        attn = softmax(smul(transpose(center_logits), POOL_TEMPERATURE), axis=1)
        pooled = matmul(attn, trunk)
        coords = matmul(attn, constant(self._grid))  # soft-argmax (x, y)
        raw = linear(concat([pooled, coords], axis=1), self.box_w, self.box_b)
        # center = soft-argmax plus a bounded learned correction; size from MLP
        half = constant(np.full((1, 2), 0.5))
        correction = smul(sub(sigmoid(slice_cols(raw, 0, 2)), half), CENTER_CORRECTION)
        centers = add(coords, correction)
        sizes = sigmoid(slice_cols(raw, 2, 4))
        box_t = reshape(concat([centers, sizes], axis=1), (4,))
        cx, cy, w, h = (float(v) for v in box_t.data)
        out.box = Box(cx=cx, cy=cy, w=w, h=h)
        out.box_tensor = box_t
        out.center_map = center
        return out


def gaussian_center_map(side: int, box: Box) -> np.ndarray:
    """Target heatmap: exact 1 at the peak cell, Gaussian falloff around it."""
    pi = min(side - 1, max(0, int(box.cy * side)))
    pj = min(side - 1, max(0, int(box.cx * side)))
    ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    sigma = max(0.75, min(box.w, box.h) * side / 6.0)
    return np.exp(-((ii - pi) ** 2 + (jj - pj) ** 2) / (2.0 * sigma**2))
