"""The parameter store: one vector of parameter values, one of gradients.

Its norm, clip and SGD step are whole-vector passes; each must equal the
per-tensor update it replaced (`helpers.global_grad_norm`, `clip_gradients`,
`sgd_step`) bit for bit.  Only the norm is a reduction, and it is NumPy's,
not BLAS's, so these bits hold at any BLAS thread count.
"""

from __future__ import annotations

import numpy as np
import pytest

import helpers
from helpers import planted_corpus, small_random_doc
from sectsum import autodiff as ad
from sectsum import training
from sectsum.config import RunConfig
from sectsum.model import Model
from sectsum.rouge import stable_seed
from sectsum.training import ce_loss, clip_gradients, sgd_step


def _random_configs(count: int) -> list[RunConfig]:
    """The default config, then `count` - 1 drawn over every field that sets a parameter shape."""
    rng = np.random.default_rng(stable_seed("param-store-configs"))
    configs = [RunConfig()]
    while len(configs) < count:
        heads = int(rng.choice([1, 2, 3, 4, 8]))
        configs.append(RunConfig(
            heads=heads,
            d_model=heads * 2 * int(rng.integers(1, 9)),
            layers=int(rng.integers(1, 4)),
            ffn_dim=int(rng.integers(1, 300)),
            s_max=int(rng.integers(1, 40)),
            len_buckets=int(rng.integers(1, 130)),
            max_sentences=int(rng.integers(1, 700)),
            combine=str(rng.choice(["sum", "concat"])),
        ))
    return configs


CONFIGS = _random_configs(60)


def _random_gradients(rng, model: Model) -> list[np.ndarray | None]:
    """One gradient per parameter over mixed scales, with exact and signed zeros; some None."""
    grads = []
    for t in model.parameters().values():
        if rng.random() < 0.1:
            grads.append(None)
            continue
        g = rng.standard_normal(t.shape) * 10.0 ** rng.uniform(-4, 4)
        g[rng.random(t.shape) < 0.05] = 0.0
        g[rng.random(t.shape) < 0.05] = -0.0
        grads.append(g)
    return grads


def _give(model: Model, grads) -> list[ad.Tensor]:
    """Put `grads` into the model's store as a backward would, and return
    plain tensors holding copies of the values and gradients for the reference."""
    reference = []
    for t, g in zip(model.parameters().values(), grads):
        ref = ad.Tensor(t.data, requires_grad=True)
        if g is not None:
            np.copyto(t.grad_view, g)
            t.grad = t.grad_view
            ref.grad = g.copy()
        reference.append(ref)
    return reference


def test_every_parameter_is_a_view_of_the_store():
    model = Model(RunConfig())
    params = model.parameters()
    store = model.store
    assert len(params) == 136 and store.tensors == list(params.values())
    assert store.data.size == store.grad.size == sum(t.data.size for t in params.values()) == 196_673
    for t in params.values():
        assert t.data.flags.c_contiguous and t.data.base is store.data
        assert t.grad_view.flags.c_contiguous and t.grad_view.base is store.grad
        assert t.grad_view.shape == t.data.shape and t.grad is None
    # each parameter has its own place
    assert np.unique(np.concatenate([t.data.ravel() for t in params.values()])).size == store.data.size
    twin = Model(RunConfig())  # construction copies the initial values in unchanged
    assert store.data.tobytes() == twin.store.data.tobytes()


@pytest.mark.parametrize("i", range(len(CONFIGS)))
def test_flat_norm_equals_the_per_tensor_norm(i):
    model = Model(CONFIGS[i])
    rng = np.random.default_rng(stable_seed("param-store-norm", i))
    reference = _give(model, _random_gradients(rng, model))
    assert model.store.grad_norm() == helpers.global_grad_norm(reference)


@pytest.mark.parametrize("max_norm", [1e-3, 1e9], ids=["clipped", "unclipped"])
@pytest.mark.parametrize("i", range(0, len(CONFIGS), 6))
def test_flat_clip_and_step_equal_the_per_tensor_update(i, max_norm):
    model = Model(CONFIGS[i])
    rng = np.random.default_rng(stable_seed("param-store-step", i))
    reference = _give(model, _random_gradients(rng, model))
    lr = float(rng.uniform(1e-4, 1.0))
    factor = clip_gradients(model.store, max_norm)
    assert factor == helpers.clip_gradients(reference, max_norm)
    assert (factor < 1.0) == (max_norm == 1e-3)
    sgd_step(model.store, lr)
    helpers.sgd_step(reference, lr)
    for t, ref in zip(model.parameters().values(), reference):
        assert t.data.tobytes() == ref.data.tobytes()
        assert t.data.base is model.store.data  # updated in place


def _train_with(update: str, cfg: RunConfig, monkeypatch):
    """Train a fresh model with the store's update or the per-tensor reference;
    its parameter bytes, metrics and clip factors."""
    factors = []
    with monkeypatch.context() as m:
        if update == "reference":
            m.setattr(training, "clip_gradients",
                      lambda store, max_norm: factors.append(helpers.clip_gradients(store.tensors, max_norm)))
            m.setattr(training, "sgd_step", lambda store, lr: helpers.sgd_step(store.tensors, lr))
        else:
            def clip(store, max_norm):
                factors.append(clip_gradients(store, max_norm))
            m.setattr(training, "clip_gradients", clip)
        model = Model(cfg)
        result = training.train(model, planted_corpus(n_docs=7, n_sentences=12, n_planted=3), cfg)
    params = {name: t.data.tobytes() for name, t in model.parameters().items()}
    return params, result.metrics, result.updates, factors


@pytest.mark.parametrize("accumulation_steps", [1, 3])
@pytest.mark.parametrize("clip_norm, lr_scale", [(1e-2, 4.0), (1e9, 0.02)], ids=["clipped", "unclipped"])
def test_training_with_the_store_equals_training_with_the_per_tensor_update(
        monkeypatch, accumulation_steps, clip_norm, lr_scale):
    cfg = RunConfig(d_model=8, layers=2, heads=2, window=4, global_ratio=25.0, max_sentences=12,
                    s_max=4, len_buckets=6, ffn_dim=12, epochs=3, holdout_ratio=0.15, lr_scale=lr_scale,
                    warmup_steps=3, accumulation_steps=accumulation_steps, clip_norm=clip_norm, seed=5)
    flat = _train_with("store", cfg, monkeypatch)
    reference = _train_with("reference", cfg, monkeypatch)
    assert flat == reference
    params, _, updates, factors = flat
    assert len(factors) == updates == 3 * (6 // accumulation_steps)  # six training documents
    assert all(f < 1.0 for f in factors) if clip_norm == 1e-2 else all(f == 1.0 for f in factors)
    assert params != {name: t.data.tobytes() for name, t in Model(cfg).parameters().items()}


def _loss_and_grads(model: Model, doc, labels):
    model.zero_grads()
    loss = ce_loss(model.forward(doc), labels)
    ad.backward(loss)
    return loss.data.tobytes(), [None if t.grad is None else t.grad.tobytes()
                                 for t in model.parameters().values()]


def test_the_loss_after_an_in_place_update_is_a_fresh_models_at_the_same_parameters():
    cfg = RunConfig(d_model=16, heads=2, window=3, max_sentences=20, s_max=4, len_buckets=8, clip_norm=0.5)
    model = Model(cfg)
    first, second = small_random_doc(3), small_random_doc(4)
    before = model.store.data.copy()
    loss = ce_loss(model.forward(first), [i % 2 for i in range(first.n_sentences)])
    ad.backward(loss)
    del loss
    assert clip_gradients(model.store, cfg.clip_norm) < 1.0
    sgd_step(model.store, 0.3)
    model.zero_grads()
    assert not np.array_equal(model.store.data, before)

    fresh = Model(cfg)
    fresh.load_state({name: t.data.copy() for name, t in model.parameters().items()})
    labels = [1 - i % 2 for i in range(second.n_sentences)]
    assert _loss_and_grads(model, second, labels) == _loss_and_grads(fresh, second, labels)


def test_backward_gives_a_store_parameter_the_gradient_bits_of_a_plain_tensor():
    """In place, with the additions of a plain leaf: a -0.0 copied, not added
    to 0.0; two uses in a sweep added in order; and every gradient added to an
    earlier one as it arrives, so (1 + 1e-16) + 1e-16, which is 1.0, not 1 + 2e-16."""
    stored = ad.Tensor(np.ones(2), requires_grad=True)
    store = ad.ParamStore([stored])
    plain = ad.Tensor(np.ones(2), requires_grad=True)

    def sweep(*coefficients):
        for t in (stored, plain):
            ad.backward(ad.add(*[ad.tsum(ad.mul(t, ad.Tensor(c))) for c in coefficients])
                        if len(coefficients) > 1 else ad.tsum(ad.mul(t, ad.Tensor(coefficients[0]))))
            assert t is plain or t.grad is t.grad_view
        assert stored.grad.tobytes() == plain.grad.tobytes()
        return stored.grad.copy()

    first = sweep([1.0, -0.0])
    assert np.signbit(first[1])
    assert sweep([1e-16, 1e-16], [1e-16, 1e-16])[0] == (1.0 + 1e-16) + 1e-16 == 1.0
    store.zero_grads()
    plain.grad = None
    assert stored.grad is None and not store.grad.any()
    assert sweep([0.5, -0.0], [-0.0, 0.25]).tolist() == [0.5, 0.25]


def test_inference_never_writes_the_gradient_vector():
    cfg = RunConfig(d_model=8, heads=2, max_sentences=12, s_max=3, len_buckets=6)
    arrays = {name: t.data + 1.0 for name, t in Model(cfg).parameters().items()}
    model = Model(cfg)
    model.store.grad.flags.writeable = False  # any write raises
    model.load_state(arrays)
    model.zero_grads()
    with ad.no_grad():
        model.forward(small_random_doc(2))
    assert all(t.data.tobytes() == arrays[name].tobytes() for name, t in model.parameters().items())
