"""Recurrent network with attention over visit steps and domain fusion.

Each visit step is embedded by summing embedding rows for its active CCS
indices, run through stacked GRU layers, and summarized by scaled
dot-product attention with the final hidden state as the query. The
summary fuses with the hand-crafted vector z either before ("early") or
after ("late") a small tanh MLP, or not at all ("none").

All math runs through the tape engine in 2-D tensors. A batch is an int
array of `EventTable` rows: `forward` reads their steps from the table's
CSR step columns and their z from `table.z`. A batch of mixed lengths is
left-padded to its longest sequence and carries a (T, B) step mask: the
whole batch is embedded in one lookup, each GRU layer runs as one fused op
over all T steps (a padded step leaves the state unchanged), and attention
gives padded steps a weight of exactly 0. `loss` and `predict` both run
this one padded pass.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .autodiff import (
    Tensor,
    affine,
    concat,
    embedding_lookup,
    gru_sequence,
    init_uniform,
    masked_attention,
    sigmoid,
    tanh,
    weighted_bce,
)
from .errors import DimensionError, ValidationError, require_names
from .features import EventTable, _csr_take
from .rng import Xoshiro256, derive_seed

EMBEDDINGS = ("linear", "pretrained")
# Events per forward pass of `SeqFuseModel.predict`.
_PREDICT_BATCH = 256


@dataclass(frozen=True)
class ModelConfig:
    """One network's shape, taken as given: its grid values, fusion and
    embedding come from a config checked at load (`cli._RANGES`), and
    `input_dim` and `domain_dim` from featurize."""

    input_dim: int
    embed_dim: int
    hidden_dim: int
    domain_dim: int
    n_gru_layers: int
    fusion: str
    mlp_hidden_dims: tuple[int, ...]
    embedding: str
    seed: int

    def to_json_obj(self) -> dict:
        obj = asdict(self)
        obj["mlp_hidden_dims"] = list(self.mlp_hidden_dims)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ModelConfig":
        return cls(**obj | {"mlp_hidden_dims": tuple(obj["mlp_hidden_dims"])})


def _mlp_input_dim(cfg: ModelConfig) -> int:
    return cfg.hidden_dim + cfg.domain_dim if cfg.fusion == "early" else cfg.domain_dim


def _output_input_dim(cfg: ModelConfig) -> int:
    if cfg.fusion == "none":
        return cfg.hidden_dim
    mlp_out = cfg.mlp_hidden_dims[-1] if cfg.mlp_hidden_dims else _mlp_input_dim(cfg)
    if cfg.fusion == "early":
        return mlp_out
    return cfg.hidden_dim + mlp_out


def init_params(cfg: ModelConfig, pretrained_embedding: np.ndarray | None = None) -> dict[str, Tensor]:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) per tensor, in a fixed order
    from one seeded stream, so a config and seed pin every weight. GRU layer
    l is `gru{l}.W` (in x 3H), `.U_rz` (H x 2H), `.U_h` and `.b` (1 x 3H),
    the layout `gru_sequence` computes with (columns r | z | h): each gate's
    W, U and b are drawn in turn, r then z then h, and joined column-wise."""
    rng = Xoshiro256(derive_seed(cfg.seed, "init"))
    params: dict[str, Tensor] = {}

    if cfg.embedding == "pretrained":
        if pretrained_embedding is None:
            raise ValidationError("embedding='pretrained' requires an embedding matrix")
        if pretrained_embedding.shape != (cfg.input_dim, cfg.embed_dim):
            raise DimensionError(
                f"pretrained embedding shape {pretrained_embedding.shape} != "
                f"({cfg.input_dim}, {cfg.embed_dim})"
            )
        params["embed.W"] = Tensor(np.array(pretrained_embedding, dtype=np.float64), requires_grad=False)
        params["embed.b"] = Tensor(np.zeros((1, cfg.embed_dim)), requires_grad=False)
    else:
        params["embed.W"] = init_uniform((cfg.input_dim, cfg.embed_dim), cfg.input_dim, rng)
        params["embed.b"] = init_uniform((1, cfg.embed_dim), cfg.input_dim, rng)

    h = cfg.hidden_dim
    for layer in range(cfg.n_gru_layers):
        n_in = cfg.embed_dim if layer == 0 else h
        shapes = (((n_in, h), n_in), ((h, h), h), ((1, h), h))  # W, U, b and their fan-in
        w, u, b = zip(*[[init_uniform(shape, fan_in, rng).data for shape, fan_in in shapes] for _gate in "rzh"])
        for name, data in (("W", np.hstack(w)), ("U_rz", np.hstack(u[:2])), ("U_h", u[2]), ("b", np.hstack(b))):
            params[f"gru{layer}.{name}"] = Tensor(data, requires_grad=True)

    if cfg.fusion != "none":
        k = _mlp_input_dim(cfg)
        for i, width in enumerate(cfg.mlp_hidden_dims):
            params[f"mlp.{i}.W"] = init_uniform((k, width), k, rng)
            params[f"mlp.{i}.b"] = init_uniform((1, width), k, rng)
            k = width
    k_out = _output_input_dim(cfg)
    params["out.W"] = init_uniform((k_out, 1), k_out, rng)
    params["out.b"] = init_uniform((1, 1), k_out, rng)
    return params


class SeqFuseModel:
    def __init__(
        self,
        config: ModelConfig,
        params: dict[str, Tensor] | None = None,
        pretrained_embedding: np.ndarray | None = None,
    ):
        self.config = config
        self.params = params if params is not None else init_params(config, pretrained_embedding)

    def trainable(self) -> dict[str, Tensor]:
        return {name: t for name, t in self.params.items() if t.requires_grad}

    def embed(self, indices: np.ndarray, row_of: np.ndarray, n_rows: int) -> Tensor:
        """n_rows step rows: each the sum of the embedding rows `indices`
        names for it (`row_of`) plus the bias. A row with no index (a
        padded step) embeds to the bias alone."""
        return embedding_lookup(self.params["embed.W"], self.params["embed.b"], indices, row_of, n_rows)

    def gru_step(self, layer: int, x: Tensor, h: Tensor, mask: np.ndarray) -> Tensor:
        """Runs GRU layer `layer` from state h (B x H) over the step-major
        rows of x and their (T, B) step mask, as `gru_sequence` lays them
        out. Returns the state after every step, stacked like x."""
        w, u_rz, u_h, b = (self.params[f"gru{layer}.{name}"] for name in ("W", "U_rz", "U_h", "b"))
        return gru_sequence(x, h, w, u_rz, u_h, b, mask)

    def attend(self, states: Tensor, mask: np.ndarray) -> tuple[Tensor, Tensor]:
        """Scaled dot-product attention over step-major (T*B x H) states and
        their (T, B) step mask; the last state is the query.

        Returns (summary, weights); weights rows sum to one and padded steps
        weigh exactly 0. A length-one sequence passes its single state
        through untouched.
        """
        return masked_attention(states, mask)

    def _mlp(self, x: Tensor) -> Tensor:
        for i in range(len(self.config.mlp_hidden_dims)):
            x = tanh(affine(x, self.params[f"mlp.{i}.W"], self.params[f"mlp.{i}.b"]))
        return x

    def fuse_and_output(self, summary: Tensor, z_rows: np.ndarray) -> tuple[Tensor, Tensor]:
        """Returns (probability, logit) for a batch of summaries and their
        rows of z."""
        cfg = self.config
        if cfg.fusion == "none":
            fused = summary
        else:
            if z_rows.shape != (summary.shape[0], cfg.domain_dim):
                raise DimensionError(f"z shape {z_rows.shape} != ({summary.shape[0]}, {cfg.domain_dim})")
            if cfg.fusion == "early":
                fused = self._mlp(concat([summary, Tensor(z_rows)]))
            else:
                fused = concat([summary, self._mlp(Tensor(z_rows))])
        logit = affine(fused, self.params["out.W"], self.params["out.b"])
        return sigmoid(logit), logit

    def forward(self, rows: np.ndarray, table: EventTable) -> tuple[Tensor, Tensor, Tensor]:
        """Left-pads the batch of table rows to its longest sequence and runs
        the network once on their steps and z. Returns (probability, logit,
        attention B x T_max)."""
        if len(rows) == 0:
            raise ValidationError("a batch needs at least one sequence")
        rows = np.asarray(rows, dtype=np.int64)
        seq_ptr, step_rows = _csr_take(table.step_ptr, rows)
        lengths = np.diff(seq_ptr)
        if lengths.min() == 0:
            raise DimensionError("every sequence needs at least one step")
        batch, t_len = len(lengths), int(lengths.max())
        # Step k of sequence b is padded step t_len - len(b) + k, row t*B + b.
        seq_of = np.repeat(np.arange(batch), lengths)
        t_of = np.arange(len(step_rows)) + np.repeat(t_len - seq_ptr[1:], lengths)
        mask = np.zeros((t_len, batch))
        mask[t_of, seq_of] = 1.0
        idx_ptr, idx_rows = _csr_take(table.idx_ptr, step_rows)
        row_of = np.repeat(t_of * batch + seq_of, np.diff(idx_ptr))
        # The pairs in padded-row order, stably, so each step keeps its index
        # order: the lookup's sums (np.bincount, in input order) add the pairs
        # in this order, which is the order of the reference layout in
        # tests/reference.py.
        order = np.argsort(row_of, kind="stable")
        x = self.embed(table.indices[idx_rows[order]], row_of[order], t_len * batch)
        h0 = Tensor(np.zeros((batch, self.config.hidden_dim)))
        for layer in range(self.config.n_gru_layers):
            x = self.gru_step(layer, x, h0, mask)
        summary, attention = self.attend(x, mask)
        y, logit = self.fuse_and_output(summary, table.z[rows])
        return y, logit, attention

    def loss(self, rows: np.ndarray, table: EventTable, labels: np.ndarray, w_pos: float) -> tuple[Tensor, Tensor]:
        """Weighted BCE over a mixed-length batch of table rows under the
        active tape.

        The batch runs padded as one pass, so the mean is over the whole
        input batch; the probabilities come back in the order of `rows`.
        """
        y, _, _ = self.forward(rows, table)
        targets = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
        return weighted_bce(y, targets, w_pos), y

    def predict(self, rows: np.ndarray, table: EventTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Probabilities, logits, and attention for table rows `rows`, in
        their order.

        Chunks of `_PREDICT_BATCH` are taken in length order, so each chunk
        pads little. The attention is one (n, T_max) matrix, right-aligned:
        an event's weights fill its last `length` columns, zeros before.
        """
        rows = np.asarray(rows, dtype=np.int64)
        lengths = np.diff(table.step_ptr)[rows]
        n = len(rows)
        probs = np.zeros(n)
        logits = np.zeros(n)
        t_max = int(lengths.max(initial=0))
        attentions = np.zeros((n, t_max))
        order = np.argsort(lengths, kind="stable")
        for start in range(0, n, _PREDICT_BATCH):
            chunk = order[start : start + _PREDICT_BATCH]
            y, logit, attention = self.forward(rows[chunk], table)
            probs[chunk] = y.data[:, 0]
            logits[chunk] = logit.data[:, 0]
            # The chunk is left-padded, so its padded steps already weigh 0.
            attentions[chunk, t_max - attention.shape[1] :] = attention.data
        return probs, logits, attentions


def load_model(model_config: dict, arrays: dict[str, np.ndarray]) -> SeqFuseModel:
    """The model of a `ModelConfig.to_json_obj()` object and its parameter
    arrays, named as `init_params` names them; a pretrained embedding comes
    back frozen. A missing or unknown field or array, as an older train's
    per-gate GRU arrays, raises PrerequisiteError naming the stage to rerun."""
    require_names("model.json", model_config.keys(), {f.name for f in fields(ModelConfig)}, "train")
    cfg = ModelConfig.from_json_obj(model_config)
    layout = init_params(cfg, np.zeros((cfg.input_dim, cfg.embed_dim)))
    require_names("weights.npz", arrays.keys(), layout.keys(), "train")
    return SeqFuseModel(cfg, {name: Tensor(arrays[name], requires_grad=t.requires_grad) for name, t in layout.items()})


def random_embedding(input_dim: int, embed_dim: int, seed: int) -> np.ndarray:
    """A fixed random (input_dim, embed_dim) matrix drawn from the root
    seed, a stand-in for externally pretrained code vectors; a model built
    with `embedding="pretrained"` keeps it frozen."""
    rng = Xoshiro256(derive_seed(seed, "pretrained_embedding"))
    return init_uniform((input_dim, embed_dim), input_dim, rng).data
