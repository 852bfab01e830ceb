"""The miniature two-modality tracker.

A small frozen transformer backbone (shared by both modalities) extracts
template+search tokens; trainable insertions are the per-block expert
adapters, the multi-level/cross-modal fusion stage, and the center+box
head. Every insertion is wired so that zeroing its parameters makes it
drop out of the computation exactly, which keeps the frozen model's
predictions intact at insertion time.

A forward pass takes B samples at once and carries their tokens as one
[B, 2, T, D] stack: sample, modality (R, then X), token, feature. One
patch embedding covers the template and search frames of both modalities,
and the blocks and the adapters run once over the stack. Each block projects
q, k and v with one packed [D, 3D] matrix, and its multi-head attention is
one tape node that reads the three as column views of that product. The
multi-level fusion adds each tapped block's token stack times its own [D, D]
matrix, and one gather then takes the search tokens
to the [B, Ts, D] stacks of R and X features on which cross-modal fusion
and the head run once. The pass predicts [B, 4] boxes, [B, side, side]
center maps and B balance terms, and returns them as one
``ForwardOutput``. The tape of a pass does not depend on B, and one sample
is the same code with B = 1.

Everything before the first trainable op, the frozen prefix, records no
tape: the patch embedding, the position add and block 0, or with no
adapters every block and its level taps. A caller that runs the same batch
again, as training does, can pass a prefix cache and compute it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ContractError
from ..fusion import build_hypergraph, cross_align, hyperconv, multi_level_fuse
from ..losses import Box
from ..moe import MoEAdapter
from ..numerics import (
    ParamStore,
    RngStream,
    Tensor,
    add,
    add_rowvec,
    attention,
    concat,
    constant,
    fan_in_uniform,
    gather_rows,
    matmul,
    mean,
    reshape,
    scale,
    sigmoid,
    silu,
    slice_cols,
    softmax,
    sub,
)
from .config import RunConfig
from .data import SyntheticSample

BACKBONE_PREFIX = "backbone"
HEAD_PREFIX = "head"
POOL_TEMPERATURE = 3.0
CENTER_CORRECTION = 0.2  # max learned center offset around the soft-argmax


def extract_patches(frames: np.ndarray, patch: int) -> np.ndarray:
    """Non-overlapping patches of [..., C, H, W] frames in grid row-major order, [..., T, C*p*p]."""
    *lead, c, h, w = frames.shape
    if h % patch or w % patch:
        raise ContractError(f"frame {h}x{w} not divisible by patch size {patch}")
    gh, gw = h // patch, w // patch
    n = len(lead)
    tiles = frames.reshape(*lead, c, gh, patch, gw, patch)
    tiles = tiles.transpose(*range(n), n + 1, n + 3, n, n + 2, n + 4)  # ..., gy, gx, c, py, px
    return np.ascontiguousarray(tiles.reshape(*lead, gh * gw, c * patch * patch))


def patch_embed(stacks: Sequence[np.ndarray], patch: int, w, b) -> Tensor:
    """Project the patches of [..., C, H, W] frame stacks to tokens in one matmul.

    The stacks share their leading shape and may differ in frame size. Each
    leading index gets one token sequence, [..., T_1 + T_2 + ..., D]: the
    tokens of its frame in the first stack, then in the second, and so on.
    """
    patches = np.concatenate([extract_patches(frames, patch) for frames in stacks], axis=-2)
    return add_rowvec(matmul(constant(patches), w), b)


class Block:
    """Pre-norm-free transformer block: residual attention + residual MLP."""

    def __init__(self, store: ParamStore, prefix: str, dim: int, heads: int,
                 mlp_ratio: int, rng: RngStream):
        self.heads = heads
        mlp_dim = mlp_ratio * dim

        def weight(name, shape, fan_in):
            # blocks are the frozen backbone
            return store.uniform_init(f"{prefix}.{name}", shape, fan_in, rng, trainable=False)

        # the q, k and v projections as one [D, 3D] matrix, drawn in that order
        self.wqkv = store.add(f"{prefix}.attn.wqkv", np.concatenate(
            [fan_in_uniform((dim, dim), dim, rng) for _ in range(3)], axis=1), trainable=False)
        self.wo = weight("attn.wo", (dim, dim), dim)
        self.w1 = weight("mlp.w1", (dim, mlp_dim), dim)
        self.w2 = weight("mlp.w2", (mlp_dim, dim), mlp_dim)

    def __call__(self, x: Tensor) -> Tensor:
        """Both residual branches on a [..., T, D] stack of sequences."""
        attn = attention(matmul(x, self.wqkv), self.heads)
        x = add(x, matmul(attn, self.wo))
        hidden = silu(matmul(x, self.w1))
        return add(x, matmul(hidden, self.w2))


@dataclass
class ForwardOutput:
    """The prediction of one pass over B samples.

    ``box_tensor`` is [B, 4], ``center_map`` [B, side, side] and ``balance``
    [B], each sample's mean of its 2*depth balance terms; ``boxes`` holds the
    same boxes as floats. ``expert_counts`` is the int64 [depth, B, 2, N]
    count of expert picks per adapter pass, sample, modality (R, then X)
    and expert, as the balance loss counted them; with no adapters its
    first axis is empty.
    """

    box_tensor: Tensor
    center_map: Tensor
    balance: Tensor
    boxes: list[Box]
    expert_counts: np.ndarray

    @property
    def box(self) -> Box:
        """The box of a one-sample pass."""
        if len(self.boxes) != 1:
            raise ContractError(f"box: the pass holds {len(self.boxes)} samples; read boxes")
        return self.boxes[0]

    @property
    def expert_evals(self) -> list[int]:
        """The first sample's expert evaluations per adapter pass and modality."""
        return self.expert_counts[:, 0].sum(axis=-1).ravel().tolist()


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
                  cfg.mlp_ratio, bb_rng)
            for i in range(cfg.depth)
        ]

        self.adapters: list[MoEAdapter] = []
        if cfg.toggle_sdmoe:
            ad_rng = root.child("adapters")
            self.adapters = [
                MoEAdapter(self.store, f"adapter{i}", ad_rng, dim=d, hidden=d // cfg.reduction_g,
                           n_experts=cfg.n_experts, top_k=cfg.top_k, n_shared=cfg.shared_m)
                for i in range(cfg.depth)
            ]

        fu_rng = root.child("fusion")
        # one [D, D] projection per tapped block, named by its tap
        self.mff_weights = [self.store.zeros_init(f"fusion.mff.w{tap}", (d, d))
                            for tap in cfg.level_taps] if cfg.toggle_mff else []
        self.key_w = self.align_w_r = self.align_w_x = None
        self.fuse_w = self.out_w = self.theta1 = self.theta2 = None
        if cfg.toggle_gram:
            self.key_w = self.store.zeros_init("fusion.key.w", (d, d))
            self.align_w_r = self.store.zeros_init("fusion.align.w_r", ())
            self.align_w_x = self.store.zeros_init("fusion.align.w_x", ())
        if cfg.toggle_gram or cfg.toggle_mhg:
            self.fuse_w = self.store.uniform_init("fusion.fuse.w", (2 * d, d), 2 * d, fu_rng)
            self.out_w = self.store.zeros_init("fusion.out.w", (d, 2 * d))
        if cfg.toggle_mhg:
            self.theta1 = self.store.uniform_init("fusion.conv.theta1", (d, d), d, fu_rng)
            self.theta2 = self.store.zeros_init("fusion.conv.theta2", (d, d))

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
        return self.store.count(lambda p: p.requires_grad)

    def n_adapter_params(self) -> int:
        return self.store.count(lambda p: p.name.startswith("adapter"))

    def zero_new_modules(self) -> None:
        """Zero every adapter/fusion parameter (head and backbone stay)."""
        for p in self.store:
            if p.name.startswith("adapter") or p.name.startswith("fusion."):
                self.store.set_values(p.name, np.zeros(p.shape))

    # -- forward --------------------------------------------------------------

    def forward(self, samples: SyntheticSample | Sequence[SyntheticSample],
                prefix_cache: dict | None = None) -> ForwardOutput:
        """Predict one sample, or a list of samples in one pass.

        With ``prefix_cache``, a dict the caller owns, the frozen prefix of
        the backbone runs once per distinct batch (see ``_backbone``).
        """
        batch = [samples] if isinstance(samples, SyntheticSample) else list(samples)
        if not batch:
            raise ContractError("forward: no samples")
        features, balance, expert_counts = self._backbone(batch, prefix_cache)
        box_tensor, center_map = self._head(features, len(batch))
        return ForwardOutput(
            box_tensor=box_tensor, center_map=center_map, balance=balance,
            boxes=[Box(*(float(v) for v in row)) for row in box_tensor.data],
            expert_counts=expert_counts,
        )

    def _frozen_prefix(self, batch: list[SyntheticSample]) -> tuple[Tensor, list[Tensor]]:
        """The backbone up to its first trainable op, which records no tape.

        That is the patch embedding, the position add and the blocks before
        the first adapter: block 0 with adapters, every block and its level
        taps without. Returns the [B, 2, T, D] token stack and those taps.
        """
        n = len(batch)
        templates = np.stack([(s.template_r, s.template_x) for s in batch])
        searches = np.stack([(s.search_r, s.search_x) for s in batch])
        tokens = patch_embed([templates, searches], self.cfg.patch_size,
                             self.embed_w, self.embed_b)
        n_tok, d = tokens.shape[2:]
        pos = concat([self.pos_template, self.pos_search], axis=0)
        tokens = reshape(add_rowvec(reshape(tokens, (n, 2, n_tok * d)),
                                    reshape(pos, (n_tok * d,))), tokens.shape)
        levels = []
        for i, block in enumerate(self.blocks):
            tokens = block(tokens)
            if self.adapters:
                break  # the adapter after block 0 is the first trainable op
            if self._tapped(i):
                levels.append(tokens)
        return tokens, levels

    def _cached_prefix(self, batch: list[SyntheticSample],
                       cache: dict) -> tuple[Tensor, list[Tensor]]:
        """The frozen prefix of ``batch``, computed on its first call and read-only.

        The key is the batch's samples, in order; they compare by identity.
        Nothing needs invalidating: the prefix reads only the samples and
        frozen weights.
        """
        key = tuple(batch)
        if key not in cache:
            tokens, levels = self._frozen_prefix(batch)
            if tokens.requires_grad:
                raise ContractError("prefix cache: the backbone prefix has trainable weights")
            for t in (tokens, *levels):
                t.data.flags.writeable = False
            cache[key] = (tokens, tuple(levels))
        tokens, levels = cache[key]
        return tokens, list(levels)  # a fresh list: the pass appends its own taps

    def _tapped(self, i: int) -> bool:
        """Whether multi-level fusion reads the stack after block ``i``."""
        return bool(self.mff_weights) and (i + 1) in self.cfg.level_taps

    def _backbone(self, batch: list[SyntheticSample], prefix_cache: dict | None = None
                  ) -> tuple[Tensor, Tensor, np.ndarray]:
        """Search-token features of the B samples, [B * Ts * 2, D].

        The tokens run through the backbone as one [B, 2, T, D] stack, and
        one gather takes the search tokens at the end. Rows of the result run
        sample, token, modality, so viewed as [B, Ts, 2D] they hold each
        token's R features, then its X features. Also returns the [B] balance
        terms and the [depth, B, 2, N] expert pick counts of the adapter passes.

        With ``prefix_cache`` the frozen prefix runs once per distinct batch,
        in that batch's composition, so a later call gets the same bytes.
        """
        cfg, n = self.cfg, len(batch)
        tokens, levels = (self._frozen_prefix(batch) if prefix_cache is None
                          else self._cached_prefix(batch, prefix_cache))
        n_tok, d = tokens.shape[2:]
        balances, counts = [], []
        for i, adapter in enumerate(self.adapters):
            if i:  # block 0 ran in the prefix
                tokens = self.blocks[i](tokens)
            result = adapter(tokens)
            tokens = result.output
            balances.append(result.balance)
            counts.append(result.stats.counts)
            if self._tapped(i):
                levels.append(tokens)
        # each adapter pass gives [B, 2] terms; a sample's balance is the mean of its row
        balance = mean(concat(balances, axis=1), axis=1) if balances else constant(np.zeros(n))
        if levels:
            tokens = add(tokens, multi_level_fuse(levels, self.mff_weights))
        # the stack's row numbers at its search tokens, in sample, token, modality order
        stack_rows = np.arange(2 * n * n_tok).reshape(n, 2, n_tok)
        search_rows = stack_rows[:, :, cfg.n_template_tokens:].swapaxes(1, 2).ravel()
        expert_counts = np.array(counts, dtype=np.int64).reshape(len(counts), n, 2, cfg.n_experts)
        return (gather_rows(reshape(tokens, (2 * n * n_tok, d)), search_rows),
                balance, expert_counts)

    def _head(self, features: Tensor, n: int) -> tuple[Tensor, Tensor]:
        """Cross-modal fusion and the center/box head, once for all n samples.

        Returns the [n, 4] boxes and the [n, side, side] center maps.
        """
        side, d = self.cfg.heatmap_side, self.cfg.model_dim
        head_in = reshape(features, (n, self.cfg.n_search_tokens, 2 * d))

        if self.fuse_w is not None:
            feat_r, feat_x = slice_cols(head_in, 0, d), slice_cols(head_in, d, 2 * d)
            if self.key_w is not None:
                k_r = add(feat_r, matmul(feat_r, self.key_w))
                k_x = add(feat_x, matmul(feat_x, self.key_w))
                fused = cross_align(k_r, k_x, w_r=self.align_w_r, w_x=self.align_w_x,
                                    fc_w=self.fuse_w)
            else:
                fused = matmul(concat([feat_x, feat_r], axis=-1), self.fuse_w)
            if self.theta1 is not None:
                fixed = self.cfg.epsilon_mode == "fixed"
                graph = build_hypergraph(fused, self.cfg.epsilon_value if fixed else None)
                fused = hyperconv(fused, graph, theta1=self.theta1, theta2=self.theta2)
            head_in = add(head_in, matmul(fused, self.out_w))

        trunk = silu(add_rowvec(matmul(head_in, self.head_w1), self.head_b1))
        center_logits = add_rowvec(matmul(trunk, self.center_w), self.center_b)  # [B, Ts, 1]
        center = sigmoid(reshape(center_logits, (n, side, side)))
        # pool token features weighted by sharpened center scores, so the box
        # decoder sees where the map peaks rather than a uniform average
        # [B, Ts, 1] and [B, 1, Ts] hold the same bytes, so a reshape transposes without a copy
        logits_row = reshape(center_logits, (n, 1, side * side))
        attn = softmax(scale(logits_row, constant(POOL_TEMPERATURE)), axis=-1)
        pooled = matmul(attn, trunk)
        coords = matmul(attn, constant(self._grid))  # soft-argmax (x, y), [B, 1, 2]
        raw = add_rowvec(matmul(concat([pooled, coords], axis=-1), self.box_w), self.box_b)
        # center = soft-argmax plus a bounded learned correction; size from MLP
        squashed = sigmoid(raw)
        half = constant(np.full(coords.shape, 0.5))
        correction = scale(sub(slice_cols(squashed, 0, 2), half), constant(CENTER_CORRECTION))
        centers = add(coords, correction)
        sizes = slice_cols(squashed, 2, 4)
        return reshape(concat([centers, sizes], axis=-1), (n, 4)), center


def gaussian_center_map(side: int, box: Box) -> np.ndarray:
    """Target heatmap: exact 1 at the peak cell, Gaussian falloff around it."""
    pi = min(side - 1, max(0, int(box.cy * side)))
    pj = min(side - 1, max(0, int(box.cx * side)))
    cells = np.arange(side)
    sigma = max(0.75, min(box.w, box.h) * side / 6.0)
    return np.exp(-((cells[:, None] - pi) ** 2 + (cells - pj) ** 2) / (2.0 * sigma**2))
