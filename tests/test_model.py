import json

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
    _binary_softmax,
    _binary_softmax_backward,
    _sigmoid_values,
    load_checkpoint,
    save_checkpoint,
)
from calibtrain.uncertainty import epistemic_batch
from oracles import FD_STEP, FixedDraw, graph_total_loss, graph_vae_forward, latent_rng, rel_error


def make_model(seed=0, d=4):
    return VaeClassifier(d=d, hidden=8, latent=3, seed=seed)


def batch(n=5, d=4, seed=1):
    rng = np.random.default_rng(seed)
    return rng.random((n, d))  # already inside [0, 1]


def vae_loss(x, out, lambda_kl):
    """L_RE + lambda_kl * L_KL: the training loss without the classifier term."""
    spec = LossSpec(strategy="baseline", lambda_kl=lambda_kl, lambda_c=0.0)
    return total_loss(x, out, np.zeros(len(x), dtype=int), spec)[0]


def draw(seed=0):
    return np.random.default_rng(seed)


def test_forward_shapes_and_prob_invariants():
    m = make_model()
    x = batch()
    out = m.forward(x, draw())
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
    ref = graph_vae_forward(m, x)
    for _ in range(2):
        assert np.array_equal(m.predict_probs(x), ref.probs.value)
        mu, lv = m.encode_values(x)
        assert np.array_equal(mu, ref.mu_z.value)
        assert np.array_equal(lv, ref.logvar_z.value)


def test_sampled_forward_uses_rng():
    m = make_model()
    x = batch()
    a = m.forward(x, draw(7))
    b = m.forward(x, rng=draw(7), sample_latent=True)     # the benchmark's call
    c = m.forward(x, draw(8))
    assert np.array_equal(a.z, b.z)
    assert not np.array_equal(a.z, c.z)
    with pytest.raises(TypeError):
        m.forward(x)
    with pytest.raises(ValueError, match="predict_probs"):
        m.forward(x, draw(7), sample_latent=False)


def test_zero_init_classifier_outputs_half():
    m = make_model(seed=3)
    out = m.forward(batch(), draw())
    assert np.array_equal(out.probs, np.full((5, 2), 0.5))


def test_logvar_clamped_and_zero_variance_limit():
    m = make_model()
    # push the logvar head far negative; clamp must hold it at the floor
    m.params["enc.b_lv"].value[:] = -1000.0
    out = m.forward(batch(), draw())
    assert np.all(out.logvar_z == -10.0)
    # sigma = exp(-5) ~ 6.7e-3, so z hugs mu
    assert np.max(np.abs(out.z - out.mu_z)) < 0.05


def test_input_shape_validated():
    m = make_model()
    with pytest.raises(ValueError):
        m.forward(np.zeros((3, 7)), draw())
    with pytest.raises(ValueError):
        m.forward(np.zeros(4), draw())


def test_nonfinite_activation_names_layer():
    m = make_model()
    m.params["enc.w1"].value[0, 0] = np.nan
    with pytest.raises(NonFiniteActivation, match="enc.hidden"):
        m.forward(batch(), draw())


def test_numpy_path_matches_graph_path_bitwise():
    m = VaeClassifier(d=6, hidden=16, latent=4, seed=9)
    # break the zero classifier symmetry so the check is non-trivial
    rng = np.random.default_rng(2)
    m.params["clf.w2"].value[:] = rng.standard_normal((16, 2)) * 0.3
    x = np.random.default_rng(3).random((7, 6))
    ref = graph_vae_forward(m, x)
    probs = m.predict_probs(x)
    assert np.array_equal(probs, ref.probs.value)
    mu, lv = m.encode_values(x)
    assert np.array_equal(mu, ref.mu_z.value)
    assert np.array_equal(lv, ref.logvar_z.value)
    assert np.array_equal(m.classify_values(mu), probs)
    # the training forward runs the same encoder and classifier
    res = m.forward(x, draw())
    assert np.array_equal(res.mu_z, mu) and np.array_equal(res.logvar_z, lv)
    assert np.array_equal(m.classify_values(res.z), res.probs)


# -- the branch-free sigmoid and the binary head against their references ------

# signed zeros, subnormals, exp's overflow and underflow edges and |x| = 800
EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.5, -0.5, 1.0, -1.0,
                  36.7, -36.7, 709.5, -709.5, 745.2, -745.2, 800.0, -800.0,
                  np.inf, -np.inf])


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_sigmoid_matches_masked_reference_bitwise():
    rng = np.random.default_rng(20)
    for x in (EDGES, rng.standard_normal((40, 8)) * 10.0,
              rng.uniform(-800.0, 800.0, (25, 8)), np.array([-0.0])):
        assert_same_bits(_sigmoid_values(x), oracles.ref_sigmoid(x))


def test_binary_softmax_matches_reduction_reference_bitwise():
    # every ordered pair of edge values (the infinities aside, which no
    # finite logit reaches): ties, ±0 against ±0 and gaps of up to 1600
    finite = EDGES[np.isfinite(EDGES)]
    pairs = np.array([(a, b) for a in finite for b in finite])
    rng = np.random.default_rng(21)
    for x in (pairs, rng.standard_normal((250, 2)) * 30.0, np.zeros((3, 2))):
        assert_same_bits(_binary_softmax(x), oracles.ref_softmax(x))


def test_binary_softmax_backward_matches_reduction_reference_bitwise():
    # cotangents with signed zeros in either column or both, against saturated
    # and tied probabilities; -0.0 * s in both columns must sum to +0.0
    cot = [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-310, -1e-310]
    probs = _binary_softmax(np.array([[0.0, 0.0], [0.0, -0.0], [3.0, -1.0], [800.0, -800.0],
                                      [-800.0, 800.0], [0.1, 0.2]]))
    g = np.array([(a, b) for a in cot for b in cot for _ in probs])
    s = np.tile(probs, (len(cot) ** 2, 1))
    assert_same_bits(_binary_softmax_backward(g, s), oracles.ref_softmax_backward(g, s))
    rng = np.random.default_rng(22)
    s = _binary_softmax(rng.standard_normal((250, 2)) * 5.0)
    g = rng.standard_normal((250, 2)) * (rng.random((250, 2)) < 0.7)   # some zeros
    assert_same_bits(_binary_softmax_backward(g, s), oracles.ref_softmax_backward(g, s))
    assert_same_bits(_binary_softmax_backward(-g, s), oracles.ref_softmax_backward(-g, s))


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


@pytest.mark.parametrize("latent", ["sampled", "mean"])
@pytest.mark.parametrize("n", [25, 250])
@pytest.mark.parametrize("entry", DEFAULT_SUITE, ids=lambda e: e["strategy"])
def test_layers_match_graph_reference_bitwise(scaled_batch, entry, n, latent):
    x, g = scaled_batch[0][:n], scaled_batch[1][:n]
    spec = LossSpec.from_dict(dict(entry))
    model = _spread_model()
    conf = None
    if spec.strategy == "confidence_weight":
        conf = epistemic_batch(model, x, n=5, rng=np.random.default_rng(7))

    def run(forward, loss_fn, backward_fn, value):
        model.params.zero_grad()
        out = forward(model, x, rng=latent_rng(latent, 11))
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
    out = m.forward(x, draw())
    # the outputs are plain arrays, and the activations the backward pass
    # reads ride along with them, the input included
    for name in ("xhat", "mu_z", "logvar_z", "z", "probs", "h_enc", "eps", "sigma",
                 "h_dec", "h_clf"):
        assert type(getattr(out, name)) is np.ndarray, name
    assert out.model is m and out.x is x
    assert np.array_equal(out.z, out.mu_z + out.sigma * out.eps)


def test_param_writes_reach_next_forward_after_adam():
    m = make_model()
    x = batch()
    opt = Adam(m.params, lr=0.1)
    m.params["clf.b2"].value[0] = 4.0                       # in-place write
    assert np.all(m.predict_probs(x)[:, 0] > 0.9)
    m.params["clf.b2"].value = np.array([0.0, 4.0])         # assignment
    assert np.all(m.predict_probs(x)[:, 1] > 0.9)

    out = m.forward(x, draw())
    backward(vae_loss(x, out, 0.0))
    before = m.params.copy_values()
    opt.step()
    moved = [name for name in m.params.names()
             if not np.array_equal(m.params[name].value, before[name])]
    assert moved == ["enc.w1", "enc.b1", "enc.w_mu", "enc.b_mu", "enc.w_lv", "enc.b_lv",
                     "dec.w1", "dec.b1", "dec.w2", "dec.b2"]
    assert not np.array_equal(m.forward(x, draw()).xhat, out.xhat)


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
    out = m.forward(batch(), draw())
    bad = batch() + 2.0
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        reconstruction_loss(bad, out.xhat)


def test_classifier_untouched_by_vae_loss():
    m = make_model()
    x = batch()
    out = m.forward(x, draw())
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
        out = m.forward(x, FixedDraw(eps_draw))
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


def _renamed(manifest):
    manifest["param_order"][0] = "enc.w0"
    manifest["param_shapes"]["enc.w0"] = manifest["param_shapes"].pop("enc.w1")


def _swapped_shapes(manifest):
    shapes = manifest["param_shapes"]
    shapes["enc.w_mu"], shapes["dec.w1"] = shapes["dec.w1"], shapes["enc.w_mu"]


def _other_dims(manifest):
    manifest["dims"]["d"] = 4


def _zero_dims(manifest):
    manifest["dims"]["d"] = 0


def _no_dims(manifest):
    del manifest["dims"]


def _no_seed(manifest):
    del manifest["seed"]


def _not_an_object(manifest):
    return [manifest]


@pytest.mark.parametrize("edit", [_renamed, _swapped_shapes, _other_dims, _zero_dims,
                                  _no_dims, _no_seed, _not_an_object],
                         ids=["renamed", "swapped_shapes", "other_dims", "zero_dims",
                              "no_dims", "no_seed", "not_an_object"])
def test_checkpoint_layout_mismatch_rejected(tmp_path, edit):
    """A manifest whose layout is not that of a model of its dims, or that
    gives no valid dims or seed, is refused with one error naming the
    checkpoint."""
    save_checkpoint(VaeClassifier(d=3, hidden=4, latent=2, seed=0), tmp_path, epoch=1)
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    path.write_text(json.dumps(edit(manifest) or manifest))
    with pytest.raises(ValueError) as err:
        load_checkpoint(tmp_path)
    assert str(err.value).startswith(f"checkpoint {tmp_path}: ")
    assert "\n" not in str(err.value)


def test_checkpoint_manifest_not_json_rejected(tmp_path):
    save_checkpoint(VaeClassifier(d=3, hidden=4, latent=2, seed=0), tmp_path, epoch=1)
    (tmp_path / "manifest.json").write_text("{bad")
    with pytest.raises(ValueError) as err:
        load_checkpoint(tmp_path)
    assert str(err.value).startswith(f"checkpoint {tmp_path}: manifest.json is not JSON (")


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
