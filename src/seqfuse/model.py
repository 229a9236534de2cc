"""Recurrent network with attention over visit steps and domain fusion.

Each visit step is embedded by summing embedding rows for its active CCS
indices, run through stacked GRU layers, and summarized by scaled
dot-product attention with the final hidden state as the query. The
summary fuses with the hand-crafted vector z either before ("early") or
after ("late") a small tanh MLP, or not at all ("none").

All math runs through the tape engine in 2-D tensors. A batch is an int
array of `EventTable` rows, read from the table's CSR step columns. A
batch of mixed lengths is left-padded to its longest sequence and carries
a (T, B) step mask: the whole batch is embedded in one lookup, each GRU
layer runs as one fused op over all T steps (a padded step leaves the
state unchanged), and attention gives padded steps a weight of exactly 0.
`forward`, `loss` and `predict` all take this one padded path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import (
    Tensor,
    add,
    concat,
    embedding_lookup,
    gru_sequence,
    init_uniform,
    masked_attention,
    matmul,
    sigmoid,
    tanh,
    weighted_bce,
)
from .errors import DimensionError, ValidationError
from .features import EventTable, _csr_take
from .rng import Xoshiro256, derive_seed

FUSIONS = ("early", "late", "none")
EMBEDDINGS = ("linear", "pretrained")


@dataclass(frozen=True)
class ModelConfig:
    input_dim: int
    embed_dim: int
    hidden_dim: int
    domain_dim: int
    n_gru_layers: int = 1
    fusion: str = "early"
    mlp_hidden_dims: tuple[int, ...] = (32,)
    embedding: str = "linear"
    seed: int = 0

    def validate(self) -> None:
        for name in ("input_dim", "embed_dim", "hidden_dim"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.domain_dim < 0:
            raise ValidationError("domain_dim must be non-negative")
        if self.n_gru_layers < 1:
            raise ValidationError("n_gru_layers must be at least 1")
        if self.fusion not in FUSIONS:
            raise ValidationError(f"fusion {self.fusion!r} not in {FUSIONS}")
        if self.fusion != "none" and self.domain_dim == 0:
            raise ValidationError("fusion with domain features requires domain_dim > 0")
        if any(h <= 0 for h in self.mlp_hidden_dims):
            raise ValidationError("mlp_hidden_dims must be positive")
        if self.embedding not in EMBEDDINGS:
            raise ValidationError(f"embedding {self.embedding!r} not in {EMBEDDINGS}")

    def to_json_obj(self) -> dict:
        obj = asdict(self)
        obj["mlp_hidden_dims"] = list(self.mlp_hidden_dims)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ModelConfig":
        obj = dict(obj)
        obj["mlp_hidden_dims"] = tuple(obj.get("mlp_hidden_dims", ()))
        cfg = cls(**obj)
        cfg.validate()
        return cfg


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
    from one seeded stream, so a config and seed pin every weight."""
    cfg.validate()
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

    for layer in range(cfg.n_gru_layers):
        in_dim = cfg.embed_dim if layer == 0 else cfg.hidden_dim
        for gate in ("r", "z", "h"):
            params[f"gru{layer}.W_{gate}"] = init_uniform((in_dim, cfg.hidden_dim), in_dim, rng)
            params[f"gru{layer}.U_{gate}"] = init_uniform((cfg.hidden_dim, cfg.hidden_dim), cfg.hidden_dim, rng)
            params[f"gru{layer}.b_{gate}"] = init_uniform((1, cfg.hidden_dim), cfg.hidden_dim, rng)

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
        config.validate()
        self.config = config
        self.params = params if params is not None else init_params(config, pretrained_embedding)

    def trainable(self) -> dict[str, Tensor]:
        return {name: t for name, t in self.params.items() if t.requires_grad}

    def embed(self, indices: np.ndarray, row_of: np.ndarray, n_rows: int) -> Tensor:
        """n_rows step rows: each the sum of the embedding rows `indices`
        names for it (`row_of`) plus the bias. A row with no index (a
        padded step) embeds to the bias alone."""
        return add(embedding_lookup(self.params["embed.W"], indices, row_of, n_rows), self.params["embed.b"])

    def gru_step(self, layer: int, x: Tensor, h: Tensor, mask: np.ndarray) -> Tensor:
        """Runs GRU layer `layer` from state h (B x H) over the step-major
        rows of x and their (T, B) step mask, as `gru_sequence` lays them
        out. Returns the state after every step, stacked like x."""
        p = self.params
        return gru_sequence(
            x, h,
            tuple(p[f"gru{layer}.W_{g}"] for g in "rzh"),
            tuple(p[f"gru{layer}.U_{g}"] for g in "rzh"),
            tuple(p[f"gru{layer}.b_{g}"] for g in "rzh"),
            mask,
        )

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
            x = tanh(add(matmul(x, self.params[f"mlp.{i}.W"]), self.params[f"mlp.{i}.b"]))
        return x

    def fuse_and_output(self, summary: Tensor, z_rows: np.ndarray | None) -> tuple[Tensor, Tensor]:
        """Returns (probability, logit) for a batch of summaries."""
        cfg = self.config
        if cfg.fusion == "none":
            fused = summary
        else:
            if z_rows is None:
                raise ValidationError(f"fusion {cfg.fusion!r} requires domain features")
            if z_rows.shape != (summary.shape[0], cfg.domain_dim):
                raise DimensionError(f"z shape {z_rows.shape} != ({summary.shape[0]}, {cfg.domain_dim})")
            z_tensor = Tensor(np.array(z_rows, dtype=np.float64))
            if cfg.fusion == "early":
                fused = self._mlp(concat([summary, z_tensor], axis=1))
            else:
                fused = concat([summary, self._mlp(z_tensor)], axis=1)
        logit = add(matmul(fused, self.params["out.W"]), self.params["out.b"])
        return sigmoid(logit), logit

    def _padded_pass(
        self,
        rows: np.ndarray,
        table: EventTable,
        z_rows: np.ndarray | None,
    ) -> tuple[Tensor, Tensor, Tensor]:
        """Left-pads the batch of table rows to its longest sequence and runs
        the network once. Returns (probability, logit, attention B x T_max)."""
        if len(rows) == 0:
            raise ValidationError("a batch needs at least one sequence")
        seq_ptr, step_rows = _csr_take(table.step_ptr, np.asarray(rows, dtype=np.int64))
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
        # order: the weight gradient's np.add.at sums in this order, which is
        # the order of the reference layout in tests/reference.py.
        order = np.argsort(row_of, kind="stable")
        x = self.embed(table.indices[idx_rows[order]], row_of[order], t_len * batch)
        h0 = Tensor(np.zeros((batch, self.config.hidden_dim)))
        for layer in range(self.config.n_gru_layers):
            x = self.gru_step(layer, x, h0, mask)
        summary, attention = self.attend(x, mask)
        y, logit = self.fuse_and_output(summary, z_rows)
        return y, logit, attention

    def forward(
        self,
        rows: np.ndarray,
        table: EventTable,
        z_rows: np.ndarray | None,
    ) -> tuple[Tensor, Tensor, Tensor]:
        """Full pass for a batch of table rows whose sequences share one
        length. Returns (probability, logit, attention weights)."""
        if len(rows) == 0:
            raise ValidationError("forward needs at least one sequence")
        lengths = np.diff(table.step_ptr)[rows]
        if lengths[0] == 0 or (lengths != lengths[0]).any():
            raise DimensionError("all sequences in a batch must share one non-zero length")
        return self._padded_pass(rows, table, z_rows)

    def loss(
        self,
        rows: np.ndarray,
        table: EventTable,
        z_rows: np.ndarray | None,
        labels: np.ndarray,
        w_pos: float = 1.0,
        w_neg: float = 1.0,
    ) -> tuple[Tensor, Tensor]:
        """Weighted BCE over a mixed-length batch of table rows under the
        active tape.

        The batch runs padded as one pass, so the mean is over the whole
        input batch; the probabilities come back in the order of `rows`.
        """
        y, _, _ = self._padded_pass(rows, table, z_rows)
        targets = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
        return weighted_bce(y, targets, w_pos, w_neg), y

    def predict(
        self,
        rows: np.ndarray,
        table: EventTable,
        z_rows: np.ndarray | None,
        batch_size: int = 256,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Probabilities, logits, and attention for table rows `rows`, in
        their order.

        Chunks of `batch_size` are taken in length order, so each chunk
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
        for start in range(0, n, batch_size):
            chunk = order[start : start + batch_size]
            z_chunk = z_rows[chunk] if z_rows is not None else None
            y, logit, attention = self._padded_pass(rows[chunk], table, z_chunk)
            probs[chunk] = y.data[:, 0]
            logits[chunk] = logit.data[:, 0]
            # The chunk is left-padded, so its padded steps already weigh 0.
            attentions[chunk, t_max - attention.shape[1] :] = attention.data
        return probs, logits, attentions


def load_model(model_config: dict, arrays: dict[str, np.ndarray]) -> SeqFuseModel:
    """The model of a `ModelConfig.to_json_obj()` object and its parameter
    arrays; a pretrained embedding comes back frozen."""
    cfg = ModelConfig.from_json_obj(model_config)
    frozen = {"embed.W", "embed.b"} if cfg.embedding == "pretrained" else set()
    params = {name: Tensor(data, requires_grad=name not in frozen) for name, data in arrays.items()}
    return SeqFuseModel(cfg, params=params)


def random_embedding(input_dim: int, embed_dim: int, seed: int) -> np.ndarray:
    """A fixed random (input_dim, embed_dim) matrix drawn from the root
    seed, a stand-in for externally pretrained code vectors; a model built
    with `embedding="pretrained"` keeps it frozen."""
    rng = Xoshiro256(derive_seed(seed, "pretrained_embedding"))
    return init_uniform((input_dim, embed_dim), input_dim, rng).data
