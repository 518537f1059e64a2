"""SnippetSegmenter.segment_snippets: the per-frame feature cache is exact
and runs the backbone once per distinct frame.  The no-graph forward of
``predict`` matches the recording forward to rounding.  Every recorded
node needs a gradient.  The default model's parameter names and shapes
are pinned."""

import hashlib

import numpy as np
import pytest

from conftest import held_bytes, tiny_model_config
from vswu import rng as vrng
from vswu import tensor as T
from vswu.backbone import Backbone
from vswu.dataset import SynthConfig, synth_generate, window_snippets, with_center_noise
from vswu.losses import combined_loss
from vswu.model import SEGMENT_BLOCK, ModelConfig, SnippetSegmenter, bypass_variant
from vswu.swin import SwinEncoder
from vswu.tensor import Tensor

FRAMES = 13  # per sequence; the train split of 4 sequences holds 2


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    return synth_generate(SynthConfig(num_sequences=4, frames_per_sequence=FRAMES,
                                      h=16, w=16, seed=3, noise_sigma=0.05),
                          tmp_path_factory.mktemp("seqs"))


def split_snippets(manifest, t, sigma):
    snippets = window_snippets(manifest, t, splits=("train",))
    assert len({s.sequence for s in snippets}) == 2
    return with_center_noise(snippets, sigma, seed=9)


def gated_model(t, tcm):
    cfg = tiny_model_config(h=16, w=16, t=t)
    model = SnippetSegmenter(cfg if tcm else bypass_variant(cfg), seed=4)
    gen = vrng.generator(4, "test", "gates")
    for name, p in model.named_parameters():
        if name.endswith(".gate"):
            p.data = gen.uniform(0.25, 0.75, size=p.shape).astype(p.data.dtype)
    return model


@pytest.fixture
def backbone_calls(monkeypatch):
    calls = []
    original = Backbone.forward

    def counted(self, frame):
        calls.append(frame.shape)
        return original(self, frame)

    monkeypatch.setattr(Backbone, "forward", counted)
    return calls


@pytest.mark.parametrize("sigma", [0.0, 0.3])
@pytest.mark.parametrize("tcm", [True, False], ids=["tcm", "bypass"])
@pytest.mark.parametrize("t", [3, 5, 13])
def test_segment_snippets_equals_predict(manifest, t, tcm, sigma):
    snippets = split_snippets(manifest, t, sigma)
    model = gated_model(t, tcm)
    outs = list(model.segment_snippets(snippets))
    assert len(outs) == len(snippets) == 2 * FRAMES
    for s, out in zip(snippets, outs):
        want = model.predict(s.frames)
        assert np.array_equal(out.probs.data, want), (s.sequence, s.center_index)


@pytest.mark.parametrize("hw", [64, 128])
def test_segment_snippets_equals_predict_default_model(tmp_path, hw):
    """The default model, whose encoder has a 4x4 token grid at 64x64 and
    merges an 8x8 one at 128x128.  The last 9 snippets of one sequence and
    the first 9 of the next make blocks of 8, 8 and 2, the second spanning
    both sequences."""
    seqs = synth_generate(SynthConfig(num_sequences=4, frames_per_sequence=FRAMES, h=hw,
                                      w=hw, seed=5, noise_sigma=0.05), tmp_path)
    snippets = window_snippets(seqs, 5, splits=("train",))[FRAMES - 9 : FRAMES + 9]
    snippets = with_center_noise(snippets, 0.3, seed=9)
    assert [s.sequence for s in snippets[7:9]] == [snippets[0].sequence] * 2
    assert snippets[9].sequence != snippets[0].sequence
    model = SnippetSegmenter(ModelConfig(h=hw, w=hw), seed=7)
    gen = vrng.generator(7, "test", "gates")
    for name, p in model.named_parameters():
        if name.endswith(".gate"):
            p.data = gen.uniform(0.25, 0.75, size=p.shape).astype(p.data.dtype)
    assert model.encoder.plan.merges == (hw == 128)
    outs = list(model.segment_snippets(snippets))
    assert len(outs) == len(snippets)
    for s, out in zip(snippets, outs):
        want = model.predict(s.frames)
        assert np.array_equal(out.probs.data, want), (s.sequence, s.center_index)


def test_segment_snippets_reads_one_block_ahead(manifest, monkeypatch):
    """Memory stays bounded for a streamed input: a block's outputs are
    yielded before the next block is read, with one encoder call per block."""
    calls = []
    original = SwinEncoder.forward

    def counted(self, feature):
        calls.append(feature.shape[0])
        return original(self, feature)

    monkeypatch.setattr(SwinEncoder, "forward", counted)
    snippets = split_snippets(manifest, 3, 0.0)
    pulled = []

    def stream():
        for s in snippets:
            pulled.append(s)
            yield s

    outs = gated_model(3, True).segment_snippets(stream())
    next(outs)
    assert SEGMENT_BLOCK == 8 and len(pulled) <= 8
    assert len(list(outs)) == len(snippets) - 1
    assert calls == [8, 8, 8, 2]


def test_neighbours_change_the_output(manifest):
    """The gates are open, so the exactness test would catch a wrong neighbour."""
    s = split_snippets(manifest, 5, 0.0)[6]
    model = gated_model(5, True)
    frames = s.frames
    swapped = frames[:1] + [frames[4]] + frames[2:]
    assert not np.array_equal(model.predict(frames), model.predict(swapped))


@pytest.mark.parametrize("t", [3, 5, 13])
def test_backbone_runs_once_per_frame(manifest, backbone_calls, t):
    list(gated_model(t, True).segment_snippets(split_snippets(manifest, t, 0.0)))
    assert len(backbone_calls) == 2 * FRAMES


@pytest.mark.parametrize("t", [3, 5, 13])
def test_noisy_centers_cost_two_calls_per_frame(manifest, backbone_calls, t):
    """Each frame runs once clean (as a neighbour) and once noisy (as the center)."""
    list(gated_model(t, True).segment_snippets(split_snippets(manifest, t, 0.3)))
    assert len(backbone_calls) == 2 * 2 * FRAMES


@pytest.mark.parametrize("sigma", [0.0, 0.3])
def test_bypass_runs_only_centers(manifest, backbone_calls, sigma):
    list(gated_model(5, False).segment_snippets(split_snippets(manifest, 5, sigma)))
    assert len(backbone_calls) == 2 * FRAMES


def test_wrong_snippet_length_rejected(manifest):
    model = gated_model(3, True)
    with pytest.raises(ValueError, match="expected 3 frames"):
        list(model.segment_snippets(split_snippets(manifest, 5, 0.0)))


@pytest.mark.parametrize("dtype,atol", [("float32", 1e-5), ("float64", 1e-12)])
@pytest.mark.parametrize("hw", [64, 128])
def test_predict_matches_recording_forward(hw, dtype, atol):
    """``predict`` records no graph, so its stride-1 convs sum per tap; the
    recording forward, which training differentiates, uses im2col."""
    with T.precision(dtype):
        model = SnippetSegmenter(ModelConfig(h=hw, w=hw), seed=5)
        gen = vrng.generator(5, "test", "predict-frames")
        for name, p in model.named_parameters():
            if name.endswith(".gate"):
                p.data = gen.uniform(0.25, 0.75, size=p.shape).astype(dtype)
        frames = [gen.random((1, hw, hw)).astype(dtype) for _ in range(model.cfg.t)]
        out = model.forward([Tensor(f) for f in frames])
        assert out.probs._backward is not None
        got = model.predict(frames)
    assert got.dtype == out.probs.data.dtype == np.dtype(dtype)
    assert np.max(np.abs(got - out.probs.data)) <= atol


def test_every_recorded_node_requires_grad():
    """``requires_grad`` is the one flag that decides who gets a gradient:
    every node of a default-model loss graph that will run a backward
    closure carries it."""
    model = SnippetSegmenter(ModelConfig(), seed=0)
    gen = vrng.generator(6, "test", "one-flag")
    frames = [Tensor(gen.random((1, 64, 64)).astype(np.float32)) for _ in range(model.cfg.t)]
    label = (gen.random((2, 64, 64)) > 0.5).astype(np.float32)
    nodes = T._topological(combined_loss(model.forward(frames).probs, label))
    recorded = [n for n in nodes if n._backward is not None]
    assert len(recorded) > 100
    assert all(n.requires_grad for n in recorded)


def test_forward_gradients_equal_one_snippet_composition():
    """A snippet's trip through the block-wise ``forward_features`` gives
    bit for bit the parameter gradients of b-e composed for that snippet
    alone, with its encoder map reshaped rather than split from a block.
    The backward pass sums in the order its gradients' memory layout
    gives, and at the default size another layout moves last bits."""
    model = SnippetSegmenter(ModelConfig(), seed=0)
    gen = vrng.generator(6, "test", "one-snippet")
    frames = [Tensor(gen.random((1, 64, 64)).astype(np.float32)) for _ in range(model.cfg.t)]
    label = (gen.random((2, 64, 64)) > 0.5).astype(np.float32)

    def composed():
        outs = [model.backbone.forward(f) for f in frames]
        center = outs[len(outs) // 2]
        blended = model.tcm.forward([o.deep for o in outs])
        maps = model.encoder.forward(blended.reshape(1, *blended.shape))
        return model.head.forward(model.decoder.forward(
            maps.reshape(maps.shape[1:]), blended, (center.s3, center.s2, center.s1)))

    def grads(segment):
        for _, p in model.named_parameters():
            p.grad = None
        T.backward(combined_loss(segment().probs, label))
        return {name: p.grad for name, p in model.named_parameters()}

    want = grads(composed)
    got = grads(lambda: model.forward(frames))
    assert [n for n in want if not np.array_equal(got[n], want[n])] == []


def test_default_loss_graph_holds_under_20_mb():
    """A default-model snippet's loss graph holds its activations, not the
    im2col columns of its convs, which would add about 17 MB."""
    model = SnippetSegmenter(ModelConfig(), seed=0)
    gen = vrng.generator(6, "test", "graph-bytes")
    frames = [Tensor(gen.random((1, 64, 64)).astype(np.float32)) for _ in range(model.cfg.t)]
    label = (gen.random((2, 64, 64)) > 0.5).astype(np.float32)
    loss, held, _ = held_bytes(lambda: combined_loss(model.forward(frames).probs, label))
    assert loss._backward is not None
    assert held < 20 * 2**20


def test_default_parameter_names_and_shapes_pinned():
    """Names key the init streams and the checkpoint blobs: a module rename
    silently re-initializes every model and orphans every checkpoint."""
    params = list(SnippetSegmenter(ModelConfig(), seed=0).named_parameters())
    assert len(params) == 161
    assert sum(p.data.size for _, p in params) == 1_374_940
    lines = "\n".join(f"{name}:{tuple(p.shape)}" for name, p in params)
    assert hashlib.sha256(lines.encode()).hexdigest() == \
        "ca3da4c562a9ad0c898f4b45b0c3df078d0323317e95835e8d4299dd078ae50e"
