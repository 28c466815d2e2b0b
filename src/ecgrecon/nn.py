"""Layers, model assemblies, and the versioned checkpoint format.

All weights are Xavier-uniform from a caller-supplied seeded generator;
biases start at zero. Checkpoints are a JSON architecture descriptor plus
an f32 parameter blob in descriptor order.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import DataError, json_field, read_json, require_finite
from .tensor import Tensor

CHECKPOINT_FORMAT = "ecgrecon-ckpt-v1"


class Parameter(Tensor):
    """A named trainable tensor."""

    def __init__(self, name, data):
        super().__init__(data, requires_grad=True)
        self.name = name


def xavier_uniform(shape, fan_in, fan_out, rng):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


class Module:
    """Minimal container; subclasses define forward() and parameters()."""

    def __call__(self, *args):
        return self.forward(*args)

    def parameter_count(self):
        return int(sum(p.size for p in self.parameters()))


class Conv1d(Module):
    """A conv layer; with `relu`, its relu runs inside the `conv1d` op."""

    def __init__(self, in_ch, out_ch, kernel, stride=1, padding=0, relu=False, rng=None,
                 name="conv"):
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride, self.padding, self.relu = kernel, stride, padding, relu
        fan_in, fan_out = in_ch * kernel, out_ch * kernel
        w = xavier_uniform((out_ch, in_ch, kernel), fan_in, fan_out, rng)
        self.weight = Parameter(f"{name}.weight", w)
        self.bias = Parameter(f"{name}.bias", np.zeros(out_ch, dtype=np.float32))

    def forward(self, x):
        return T.conv1d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding, relu=self.relu)

    def parameters(self):
        return [self.weight, self.bias]

    def describe(self):
        return {"type": "conv1d", "in_ch": self.in_ch, "out_ch": self.out_ch,
                "kernel": self.kernel, "stride": self.stride, "padding": self.padding}


class Dense(Module):
    def __init__(self, in_dim, out_dim, rng=None, name="dense"):
        w = xavier_uniform((in_dim, out_dim), in_dim, out_dim, rng)
        self.weight = Parameter(f"{name}.weight", w)
        self.bias = Parameter(f"{name}.bias", np.zeros(out_dim, dtype=np.float32))

    def forward(self, x):
        return T.add(T.matmul(x, self.weight), self.bias)

    def parameters(self):
        return [self.weight, self.bias]


class Encoder(Module):
    """1-D conv trunk mapping a [B, 3, 256] window to a 128-dim embedding.

    A relu follows each conv, fused into its `conv1d` op. The descriptor
    lists the relus as layers of their own, so the convs are named by
    their index among all eight."""

    EMBED_DIM = 128

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        self.trunk = [
            Conv1d(3, 32, 7, stride=2, padding=3, relu=True, rng=rng, name="trunk.0"),
            Conv1d(32, 64, 5, stride=2, padding=2, relu=True, rng=rng, name="trunk.2"),
            Conv1d(64, 128, 3, stride=2, padding=1, relu=True, rng=rng, name="trunk.4"),
            Conv1d(128, 128, 3, stride=1, padding=1, relu=True, rng=rng, name="trunk.6"),
        ]

    def forward(self, x):
        for conv in self.trunk:
            x = conv(x)
        return T.global_avg_pool(x)

    def parameters(self):
        return [p for conv in self.trunk for p in conv.parameters()]

    def describe(self):
        layers = [d for conv in self.trunk for d in (conv.describe(), {"type": "relu"})]
        return {"type": "encoder", "embed_dim": self.EMBED_DIM,
                "trunk": {"type": "sequential", "layers": layers}}


class ProjectionHead(Module):
    """Dense head producing a unit-norm 64-dim projection."""

    PROJ_DIM = 64

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        self.fc1 = Dense(128, 128, rng=rng, name="proj.fc1")
        self.fc2 = Dense(128, 64, rng=rng, name="proj.fc2")

    def forward(self, h):
        z = self.fc2(T.relu(self.fc1(h)))
        return T.l2_normalize(z)

    def parameters(self):
        return self.fc1.parameters() + self.fc2.parameters()

    def describe(self):
        return {"type": "projection_head", "proj_dim": self.PROJ_DIM}


class LeadDecoder(Module):
    """Per-lead decoder over the stacked 256-channel latent tensor.

    The normalized window and the time-broadcast embedding are each
    projected to 128 channels, concatenated to 256 channels, fused by a
    pointwise conv and a relu, and decoded to one 256-sample lead. The
    block before the relu is linear, so `forward` runs it and the relu as
    one `fused_projection` op, which never builds the [B, 256, 256]
    concat and keeps one [B, 32, 256] output; `x_proj`, `h_proj` and
    `fusion` hold its parameters.
    """

    FUSION_CH, TEMPORAL_CH = 32, 16

    def __init__(self, lead="V1", seed=0):
        rng = np.random.default_rng(seed)
        self.lead = lead
        self.x_proj = Conv1d(3, 128, 1, rng=rng, name="x_proj")
        self.h_proj = Dense(128, 128, rng=rng, name="h_proj")
        self.fusion = Conv1d(256, self.FUSION_CH, 1, rng=rng, name="fusion")
        self.temp1 = Conv1d(self.FUSION_CH, self.TEMPORAL_CH, 5, padding=2, relu=True,
                            rng=rng, name="temp1")
        self.temp2 = Conv1d(self.TEMPORAL_CH, 1, 5, padding=2, rng=rng, name="temp2")

    def forward(self, x_hat, h_hat):
        t_len = x_hat.shape[2]
        fused = T.fused_projection(
            x_hat, h_hat, self.x_proj.weight, self.x_proj.bias, self.h_proj.weight,
            self.h_proj.bias, self.fusion.weight, self.fusion.bias)
        out = self.temp2(self.temp1(fused))
        return T.reshape(out, (out.shape[0], t_len))

    def parameters(self):
        return (self.x_proj.parameters() + self.h_proj.parameters()
                + self.fusion.parameters() + self.temp1.parameters()
                + self.temp2.parameters())

    def describe(self):
        return {"type": "lead_decoder", "lead": self.lead,
                "fusion_ch": self.FUSION_CH, "temporal_ch": self.TEMPORAL_CH}


# the untrained model of a checkpoint's architecture descriptor `arch`, by
# its type; `where` names the descriptor in a DataError
_MODEL_REGISTRY = {
    "encoder": lambda arch, where: Encoder(),
    "projection_head": lambda arch, where: ProjectionHead(),
    "lead_decoder": lambda arch, where: LeadDecoder(lead=json_field(arch, "lead", str, where)),
}


def get_parameter_vector(model):
    return np.concatenate([p.data.ravel() for p in model.parameters()])


def set_parameter_vector(model, vec):
    size = sum(p.size for p in model.parameters())
    if size != vec.size:
        raise DataError(f"parameter blob size {vec.size} != model size {size}")
    off = 0
    for p in model.parameters():
        n = p.size
        p.data = vec[off:off + n].reshape(p.shape).astype(np.float32)
        off += n


def save_checkpoint(path, model, extra=None):
    """Write <path>.json (descriptor) and <path>.f32 (parameter blob)."""
    path = Path(path)
    desc = {
        "format": CHECKPOINT_FORMAT,
        "architecture": model.describe(),
        "params": [{"name": p.name, "shape": list(p.shape)} for p in model.parameters()],
    }
    if extra:
        desc["extra"] = extra
    path.with_suffix(path.suffix + ".json").write_text(json.dumps(desc, indent=1))
    blob = get_parameter_vector(model).astype("<f4")
    path.with_suffix(path.suffix + ".f32").write_bytes(blob.tobytes())


def load_checkpoint(path):
    """Rebuild a model from its descriptor and blob; returns (model, extra).

    The model comes back frozen: no parameter requires grad, so its forward
    records no backward graph. Every caller runs inference; training builds
    its models fresh.
    """
    path = Path(path)
    desc_path = path.with_suffix(path.suffix + ".json")
    blob_path = path.with_suffix(path.suffix + ".f32")
    if not desc_path.exists() or not blob_path.exists():
        raise DataError(f"checkpoint not found: {path}")
    desc = read_json(desc_path, dict)
    if desc.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"unknown checkpoint format: {desc.get('format')}")
    arch = json_field(desc, "architecture", dict, desc_path)
    where = f"{desc_path} architecture"
    kind = json_field(arch, "type", str, where)
    build = _MODEL_REGISTRY.get(kind)
    if build is None:
        raise DataError(f"unknown model type: {kind}")
    model = build(arch, where)
    raw = blob_path.read_bytes()
    if len(raw) % 4:
        raise DataError(f"{blob_path}: {len(raw)} bytes, not whole float32 values")
    set_parameter_vector(model, require_finite(np.frombuffer(raw, dtype="<f4"), blob_path))
    for p in model.parameters():
        p.requires_grad = False
    return model, desc.get("extra")
