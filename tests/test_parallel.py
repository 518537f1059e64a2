"""Two-process training: the forked worker's half of each batch and the
ordered fold must give exactly the single-process results, and no process
may outlive ``fit``."""

import os

import numpy as np
import pytest

from oracles import reference_batch_grads, reference_fit
from vswu import parallel
from vswu import rng as vrng
from vswu import tensor as T
from vswu import training
from vswu.backbone import BackboneConfig
from vswu.dataset import SynthConfig, synth_generate, window_snippets
from vswu.decoder import DecoderConfig
from vswu.model import ModelConfig, SnippetSegmenter
from vswu.swin import SwinConfig
from vswu.training import TrainConfig, apply_freeze, fit


def t5_config():
    return ModelConfig(
        h=32, w=32, t=5,
        backbone=BackboneConfig(stage_channels=(2, 4, 6, 8), blocks_per_stage=2),
        swin=SwinConfig(embed_dim=8, depths=(2,), heads=(2,), window_size=(2,)),
        decoder=DecoderConfig(stage_channels=(8, 6, 4, 4)))


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("parallel-data")
    manifest = synth_generate(
        SynthConfig(num_sequences=4, frames_per_sequence=13, h=32, w=32, seed=5,
                    noise_sigma=0.02), root)
    return (window_snippets(manifest, 5, splits=("train",)),
            window_snippets(manifest, 5, splits=("val",)))


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def threads_restored():
    before = parallel.blas_threads()
    yield
    assert parallel.blas_threads() == before
    no_child_left()


def count_parent_losses(monkeypatch):
    """Count ``combined_loss`` calls in this process; the worker's calls
    happen in its own memory and are not counted."""
    calls = []
    real = training.combined_loss

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(training, "combined_loss", counted)
    return calls


@pytest.mark.parametrize("size", [1, 2, 3])
def test_batch_gradients_match_one_graph(data, size, monkeypatch, threads_restored):
    """One batch of ``size`` snippets, TCM on, component a frozen: the loss
    and every gradient equal the single-graph reference bit for bit."""
    train, val = data
    cfg = TrainConfig(batch_size=size, max_epochs=1, seed=7, augment=False)
    model = apply_freeze(SnippetSegmenter(t5_config(), seed=7), {"a"})
    assert model.tcm is not None
    calls = count_parent_losses(monkeypatch)
    log, _ = fit(model, train[:size], val[:2], cfg)
    assert len(calls) == size - size // 2 + 2  # the parent's half, then validation

    ref = apply_freeze(SnippetSegmenter(t5_config(), seed=7), {"a"})
    order = vrng.generator(cfg.seed, "shuffle", 1).permutation(size)
    with parallel.one_blas_thread():
        loss, grads = reference_batch_grads(ref, [train[i] for i in order])
    assert log[0]["train_loss"] == float(loss)
    params = dict(model.named_parameters())
    assert len(grads) == len([p for p in params.values() if p.requires_grad])
    for name, g in grads.items():
        assert g is not None, name
        assert np.array_equal(params[name].grad, g), name


@pytest.mark.parametrize("size,freeze", [(2, ""), (3, "a")])
def test_two_epoch_fit_matches_serial_reference(data, size, freeze, monkeypatch,
                                                threads_restored):
    """Seven snippets, so the last batch is shorter and, at size 2, runs
    in the parent alone."""
    train, val = data
    cfg = TrainConfig(batch_size=size, max_epochs=2, seed=9, augment=True)
    model = apply_freeze(SnippetSegmenter(t5_config(), seed=9), set(freeze))
    calls = count_parent_losses(monkeypatch)
    log, _ = fit(model, train[:7], val[:3], cfg)
    batches = [len(range(b0, min(b0 + size, 7))) for b0 in range(0, 7, size)]
    assert len(calls) == 2 * (sum(b - b // 2 for b in batches) + 3)

    ref = apply_freeze(SnippetSegmenter(t5_config(), seed=9), set(freeze))
    with parallel.one_blas_thread():
        ref_log = reference_fit(ref, train[:7], val[:3], cfg)
    assert log == ref_log
    ref_params = dict(ref.named_parameters())
    for name, p in model.named_parameters():
        assert np.array_equal(p.data, ref_params[name].data), name


def poison_stem(monkeypatch, model, in_worker):
    """Make the backbone stem conv's backward emit NaN, in the worker's
    process or in this one."""
    parent, stem, real = os.getpid(), model.backbone.stem.w, T.conv2d

    def conv2d(x, k, *args, **kwargs):
        out = real(x, k, *args, **kwargs)
        if k is stem and (os.getpid() != parent) == in_worker:
            inner = out._backward
            out._backward = lambda g, grads: inner(np.full_like(g, np.nan), grads)
        return out

    monkeypatch.setattr(T, "conv2d", conv2d)


@pytest.mark.parametrize("in_worker", [True, False])
def test_non_finite_gradient_names_component(data, in_worker, monkeypatch,
                                            threads_restored):
    train, val = data
    model = SnippetSegmenter(t5_config(), seed=3)
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    poison_stem(monkeypatch, model, in_worker)
    with pytest.raises(RuntimeError, match=r"non-finite gradient at epoch 1, batch 0, "
                                           r"in component\(s\) a$"):
        fit(model, train[:4], val[:2], TrainConfig(batch_size=2, max_epochs=1, seed=3))
    for n, p in model.named_parameters():
        assert np.array_equal(p.data, before[n]), n  # no step was taken


@pytest.mark.parametrize("in_worker", [True, False])
def test_a_failing_half_leaves_no_process(data, in_worker, monkeypatch, threads_restored):
    train, val = data
    parent, real = os.getpid(), training.combined_loss

    def combined_loss(*args):
        if (os.getpid() != parent) == in_worker:
            raise ValueError("boom in one half")
        return real(*args)

    monkeypatch.setattr(training, "combined_loss", combined_loss)
    model = SnippetSegmenter(t5_config(), seed=3)
    want = (RuntimeError, r"training worker failed:(.|\n)*boom in one half") \
        if in_worker else (ValueError, "boom in one half")
    with pytest.raises(want[0], match=want[1]):
        fit(model, train[:4], val[:2], TrainConfig(batch_size=2, max_epochs=1, seed=3))


def test_fit_returns_with_private_parameters(data, threads_restored):
    train, val = data
    model = SnippetSegmenter(t5_config(), seed=4)
    fit(model, train[:4], val[:2], TrainConfig(batch_size=2, max_epochs=1, seed=4))
    for name, p in model.named_parameters():
        assert p.data.flags.owndata and p.data.flags.writeable, name


def test_one_blas_thread_restores_counts_when_raising():
    before = parallel.blas_threads()
    assert before, "no OpenBLAS thread control found"
    with pytest.raises(KeyError):
        with parallel.one_blas_thread() as pinned:
            assert pinned and parallel.blas_threads() == [1] * len(before)
            raise KeyError("x")
    assert parallel.blas_threads() == before
