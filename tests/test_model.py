import numpy as np
import pytest

import oracles
from calibtrain.autodiff import Adam, backward
from calibtrain.data import FeatureScaler, features, generate_gaussian_mixture, labels
from calibtrain.harness.config import DEFAULT_SUITE
from calibtrain.losses import LossSpec, kl_loss, reconstruction_loss, total_loss
from calibtrain.model import (
    LOGVAR_MAX,
    LOGVAR_MIN,
    NonFiniteActivation,
    VaeClassifier,
    load_checkpoint,
    save_checkpoint,
)
from calibtrain.uncertainty import epistemic_batch
from oracles import FD_STEP, graph_total_loss, graph_vae_forward, rel_error


def make_model(seed=0, d=4):
    return VaeClassifier(d=d, hidden=8, latent=3, seed=seed)


def batch(n=5, d=4, seed=1):
    rng = np.random.default_rng(seed)
    return rng.random((n, d))  # already inside [0, 1]


def vae_loss(x, out, lambda_kl):
    """L_RE + lambda_kl * L_KL: the training loss without the classifier term."""
    spec = LossSpec(strategy="baseline", lambda_kl=lambda_kl, lambda_c=0.0)
    return total_loss(x, out, np.zeros(len(x), dtype=int), spec)[0]


def test_forward_shapes_and_prob_invariants():
    m = make_model()
    x = batch()
    out = m.forward(x)
    assert out.xhat.shape == (5, 4)
    assert out.mu_z.shape == (5, 3)
    assert out.probs.shape == (5, 2)
    sums = out.probs.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) < 1e-12)
    assert np.all(out.probs > 0) and np.all(out.probs < 1)
    assert np.all(out.xhat > 0) and np.all(out.xhat < 1)


def test_deterministic_forward_repeats():
    m = make_model()
    x = batch()
    a = m.forward(x, sample_latent=False)
    b = m.forward(x, sample_latent=False)
    assert np.array_equal(a.probs, b.probs)
    assert np.array_equal(a.z, a.mu_z)


def test_sampled_forward_uses_rng():
    m = make_model()
    x = batch()
    a = m.forward(x, rng=np.random.default_rng(7), sample_latent=True)
    b = m.forward(x, rng=np.random.default_rng(7), sample_latent=True)
    c = m.forward(x, rng=np.random.default_rng(8), sample_latent=True)
    assert np.array_equal(a.z, b.z)
    assert not np.array_equal(a.z, c.z)
    with pytest.raises(ValueError):
        m.forward(x, sample_latent=True)


def test_zero_init_classifier_outputs_half():
    m = make_model(seed=3)
    out = m.forward(batch())
    assert np.array_equal(out.probs, np.full((5, 2), 0.5))


def test_logvar_clamped_and_zero_variance_limit():
    m = make_model()
    # push the logvar head far negative; clamp must hold it at the floor
    m.params["enc.b_lv"].value[:] = -1000.0
    out = m.forward(batch(), rng=np.random.default_rng(0), sample_latent=True)
    assert np.all(out.logvar_z == -10.0)
    # sigma = exp(-5) ~ 6.7e-3, so z hugs mu
    assert np.max(np.abs(out.z - out.mu_z)) < 0.05


def test_input_shape_validated():
    m = make_model()
    with pytest.raises(ValueError):
        m.forward(np.zeros((3, 7)))
    with pytest.raises(ValueError):
        m.forward(np.zeros(4))


def test_nonfinite_activation_names_layer():
    m = make_model()
    m.params["enc.w1"].value[0, 0] = np.nan
    with pytest.raises(NonFiniteActivation, match="enc.hidden"):
        m.forward(batch())


def test_numpy_path_matches_graph_path_bitwise():
    m = VaeClassifier(d=6, hidden=16, latent=4, seed=9)
    # break the zero classifier symmetry so the check is non-trivial
    rng = np.random.default_rng(2)
    m.params["clf.w2"].value[:] = rng.standard_normal((16, 2)) * 0.3
    x = np.random.default_rng(3).random((7, 6))
    res = m.forward(x)
    assert np.array_equal(m.predict_probs(x), res.probs)
    mu, lv = m.encode_values(x)
    assert np.array_equal(mu, res.mu_z)
    assert np.array_equal(lv, res.logvar_z)
    assert np.array_equal(m.classify_values(mu), res.probs)
    assert np.array_equal(graph_vae_forward(m, x).xhat.value, res.xhat)


@pytest.fixture(scope="module")
def scaled_batch():
    split = generate_gaussian_mixture(sizes=(250, 10, 10), seed=4)
    return FeatureScaler().fit_transform(features(split.train)), labels(split.train)


def _spread_model():
    """Default-sized model off its symmetric init, with two logvar units
    pushed across the clamp bounds for some samples of the batch."""
    model = VaeClassifier(d=8, seed=3)
    rng = np.random.default_rng(8)
    for _, node in model.params.items():
        node.value += rng.normal(0.0, 0.3, node.value.shape)
    model.params["enc.b_lv"].value[:2] = [11.0, -10.0]
    return model


@pytest.mark.parametrize("sample_latent", [True, False], ids=["sampled", "mean"])
@pytest.mark.parametrize("n", [25, 250])
@pytest.mark.parametrize("entry", DEFAULT_SUITE, ids=lambda e: e["strategy"])
def test_layers_match_graph_reference_bitwise(scaled_batch, entry, n, sample_latent):
    x, g = scaled_batch[0][:n], scaled_batch[1][:n]
    spec = LossSpec.from_dict(dict(entry))
    model = _spread_model()
    conf = None
    if spec.strategy == "confidence_weight":
        conf = epistemic_batch(model, x, n=5, rng=np.random.default_rng(7))

    def run(forward, loss_fn, backward_fn, value):
        model.params.zero_grad()
        out = forward(model, x, rng=np.random.default_rng(11), sample_latent=sample_latent)
        loss, _ = loss_fn(x, out, g, spec, epistemic_conf=conf)
        backward_fn(loss)
        values = [value(out.xhat), value(out.mu_z), value(out.logvar_z), value(out.z),
                  value(out.probs), loss.value]
        return values, {name: node.grad.copy() for name, node in model.params.items()}

    values, grads = run(VaeClassifier.forward, total_loss, backward, lambda a: a)
    ref_values, ref_grads = run(graph_vae_forward, graph_total_loss, oracles.backward,
                                lambda node: node.value)
    for got, want in zip(values, ref_values):
        assert np.array_equal(got, want)
    assert (values[2] == LOGVAR_MAX).any() and (values[2] == LOGVAR_MIN).any()
    assert all(np.any(grad != 0.0) for grad in grads.values())
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name]), name


def test_forward_returns_plain_arrays(scaled_batch):
    x = scaled_batch[0][:25]
    m = _spread_model()
    out = m.forward(x, rng=np.random.default_rng(0), sample_latent=True)
    # the outputs are plain arrays, and the activations the backward pass
    # reads ride along with them, the input included
    for name in ("xhat", "mu_z", "logvar_z", "z", "probs", "h_enc", "h_dec", "h_clf"):
        assert type(getattr(out, name)) is np.ndarray, name
    assert out.model is m and out.x is x
    assert np.array_equal(out.z, out.mu_z + out.sigma * out.eps)
    assert m.forward(x).eps is None


def test_param_writes_reach_next_forward_after_adam():
    m = make_model()
    x = batch()
    opt = Adam(m.params, lr=0.1)
    m.params["clf.b2"].value[0] = 4.0                       # in-place write
    assert np.all(m.forward(x).probs[:, 0] > 0.9)
    m.params["clf.b2"].value = np.array([0.0, 4.0])         # assignment
    assert np.all(m.forward(x).probs[:, 1] > 0.9)
    assert np.array_equal(m.predict_probs(x), m.forward(x).probs)

    out = m.forward(x)
    backward(vae_loss(x, out, 0.0))
    before = m.params.copy_values()
    opt.step()
    moved = [name for name in m.params.names()
             if not np.array_equal(m.params[name].value, before[name])]
    assert moved == ["enc.w1", "enc.b1", "enc.w_mu", "enc.b_mu",
                     "dec.w1", "dec.b1", "dec.w2", "dec.b2"]
    assert not np.array_equal(m.forward(x).xhat, out.xhat)


def test_kl_closed_forms():
    mu = np.zeros((1, 1))
    lv = np.zeros((1, 1))
    assert kl_loss(mu, lv).value == 0.0
    mu1 = np.ones((1, 1))
    assert abs(kl_loss(mu1, lv).value - 0.5) < 1e-15
    # averaged over batch: two samples with KL 0 and 0.5 give 0.25
    mu2 = np.array([[0.0], [1.0]])
    lv2 = np.zeros((2, 1))
    assert abs(kl_loss(mu2, lv2).value - 0.25) < 1e-15


def test_kl_nonnegative_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        mu = rng.standard_normal((4, 3)) * 2
        lv = rng.standard_normal((4, 3)) * 2
        assert kl_loss(mu, lv).value >= 0.0


def test_reconstruction_zero_on_exact_binary():
    x = np.array([[0.0, 1.0, 1.0, 0.0]])
    assert reconstruction_loss(x, x).value == 0.0


def test_reconstruction_rejects_out_of_range():
    m = make_model()
    out = m.forward(batch())
    bad = batch() + 2.0
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        reconstruction_loss(bad, out.xhat)


def test_classifier_untouched_by_vae_loss():
    m = make_model()
    x = batch()
    out = m.forward(x)
    backward(vae_loss(x, out, 0.001))
    for name in ("clf.w1", "clf.b1", "clf.w2", "clf.b2"):
        assert np.all(m.params[name].grad == 0.0), name
    assert np.any(m.params["enc.w1"].grad != 0.0)
    assert np.any(m.params["dec.w1"].grad != 0.0)


def test_vae_loss_gradient_fd():
    m = make_model(seed=4)
    x = batch(seed=6)
    eps_draw = np.random.default_rng(11).standard_normal((5, 3))

    def loss_value():
        out = m.forward(x, rng=_FixedEps(eps_draw), sample_latent=True)
        return vae_loss(x, out, 0.01)

    loss = loss_value()
    backward(loss)
    rng = np.random.default_rng(12)
    for name in ("enc.w1", "enc.w_lv", "dec.w2", "enc.b_mu"):
        node = m.params[name]
        direction = rng.standard_normal(node.value.shape)
        analytic = float(np.sum(node.grad * direction))
        base = node.value.copy()
        node.value[:] = base + FD_STEP * direction
        hi = loss_value().value
        node.value[:] = base - FD_STEP * direction
        lo = loss_value().value
        node.value[:] = base
        fd = (hi - lo) / (2 * FD_STEP)
        assert rel_error(analytic, fd) < 1e-4, name


class _FixedEps:
    """Stands in for a Generator, replaying one fixed normal draw."""

    def __init__(self, draw):
        self.draw = draw

    def standard_normal(self, shape):
        assert shape == self.draw.shape
        return self.draw.copy()


def test_checkpoint_round_trip(tmp_path):
    m = VaeClassifier(d=5, hidden=8, latent=3, seed=13)
    rng = np.random.default_rng(1)
    for _, node in m.params.items():
        node.value[:] = rng.standard_normal(node.value.shape)
    save_checkpoint(m, tmp_path, epoch=17, extra={"note": "unit"})
    back, manifest = load_checkpoint(tmp_path)
    assert manifest["epoch"] == 17
    assert manifest["dims"] == {"d": 5, "hidden": 8, "latent": 3}
    assert manifest["extra"] == {"note": "unit"}
    for name in m.params.names():
        assert np.array_equal(back.params[name].value, m.params[name].value), name
    assert back.params.flat.tobytes() == m.params.flat.tobytes()
    x = np.random.default_rng(2).random((4, 5))
    assert np.array_equal(back.predict_probs(x), m.predict_probs(x))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "params.bin"]


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    m = VaeClassifier(d=3, hidden=4, latent=2, seed=0)
    save_checkpoint(m, tmp_path, epoch=1)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    m.params.flat[:] += 1.0

    def crash(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("calibtrain.model.os.replace", crash)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(m, tmp_path, epoch=2)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("change", [-1, 1])
def test_checkpoint_blob_size_checked(tmp_path, change):
    m = VaeClassifier(d=3, hidden=4, latent=2, seed=0)
    save_checkpoint(m, tmp_path, epoch=1)
    expected = sum(node.value.size for _, node in m.params.items())
    blob = tmp_path / "params.bin"
    raw = blob.read_bytes()
    blob.write_bytes(raw[:change * 8] if change < 0 else raw + bytes(8 * change))
    with pytest.raises(ValueError, match=rf"holds {expected + change} .* declares {expected}$"):
        load_checkpoint(tmp_path)


def test_checkpoint_partial_value_rejected(tmp_path):
    save_checkpoint(VaeClassifier(d=3, hidden=4, latent=2, seed=0), tmp_path, epoch=1)
    blob = tmp_path / "params.bin"
    blob.write_bytes(blob.read_bytes()[:-3])
    with pytest.raises(ValueError, match="parameter blob"):
        load_checkpoint(tmp_path)


def test_checkpoint_rewrite_byte_identical(tmp_path):
    m = VaeClassifier(d=3, hidden=4, latent=2, seed=0)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    save_checkpoint(m, d1, epoch=1)
    save_checkpoint(m, d2, epoch=1)
    assert (d1 / "params.bin").read_bytes() == (d2 / "params.bin").read_bytes()
    assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()


def test_init_deterministic_per_seed():
    a = VaeClassifier(d=4, hidden=8, latent=3, seed=42)
    b = VaeClassifier(d=4, hidden=8, latent=3, seed=42)
    c = VaeClassifier(d=4, hidden=8, latent=3, seed=43)
    assert np.array_equal(a.params["enc.w1"].value, b.params["enc.w1"].value)
    assert not np.array_equal(a.params["enc.w1"].value, c.params["enc.w1"].value)


def test_bad_dims_rejected():
    with pytest.raises(ValueError):
        VaeClassifier(d=0)
    with pytest.raises(ValueError):
        VaeClassifier(d=4, hidden=0)
