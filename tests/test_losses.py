import math
import tracemalloc

import numpy as np
import pytest

import oracles
from calibtrain.autodiff import backward
from calibtrain.data import FeatureScaler, features, generate_gaussian_mixture
from calibtrain.data import labels as split_labels
from calibtrain.harness.config import DEFAULT_SUITE
from calibtrain.losses import (
    STRATEGIES,
    BatchView,
    LossSpec,
    avuc_loss,
    classifier_bce,
    confidence_weights,
    kl_loss,
    make_batch_view,
    mmce_loss,
    paired_confidence_loss,
    probability_loss,
    reconstruction_loss,
    soft_ece_loss,
    total_loss,
    weighted_classifier_loss,
)
from calibtrain.metrics import ece, records_from_probs
from calibtrain.model import VaeClassifier, _in_order
from calibtrain.uncertainty import epistemic_batch
from oracles import (
    FD_STEP,
    FixedDraw,
    graph_batch_view,
    graph_kl_loss,
    graph_reconstruction_loss,
    graph_total_loss,
    graph_vae_forward,
    latent_rng,
    brute_mmce,
    brute_paired_confidence,
    brute_probability_loss,
    brute_soft_ece,
    rel_error,
)


def view(prob_pos, labels, epi=None) -> BatchView:
    p = np.asarray(prob_pos, dtype=np.float64)
    probs = np.stack([1.0 - p, p], axis=1)
    return make_batch_view(probs, np.asarray(labels), epistemic_conf=epi)


def random_view(rng, n, epi=False):
    p = rng.uniform(0.001, 0.999, n)
    labels = (rng.random(n) < 0.5).astype(int)
    c = rng.random(n) if epi else None
    return view(p, labels, epi=c)


# -- LossSpec ------------------------------------------------------------------

def test_spec_accepts_tuned_operating_points():
    LossSpec(strategy="baseline", lambda_kl=0.001, lambda_c=3.0)
    LossSpec(strategy="baseline", lambda_kl=0.1, lambda_c=1.3)
    LossSpec(strategy="probability", lambda_kl=0.1, lambda_c=0.6, lambda_n=1.2)
    LossSpec(strategy="paired_confidence", margin=0.6)
    LossSpec(strategy="paired_confidence", margin=0.8)
    LossSpec(strategy="confidence_weight", weight_floor=1.0)
    LossSpec(strategy="confidence_weight", weight_floor=2.0)  # above 1 permitted
    LossSpec(strategy="soft_ece", temperature=0.1)
    LossSpec(strategy="soft_ece", temperature=0.01)
    LossSpec(strategy="mmce", lambda_n=10.0)
    LossSpec(strategy="mmce", lambda_n=2.0)


@pytest.mark.parametrize("kw", [
    dict(strategy="nonsense"),
    dict(strategy="baseline", lambda_kl=-0.1),
    dict(strategy="baseline", lambda_c=-1.0),
    dict(strategy="mmce", lambda_n=-2.0),
    dict(strategy="paired_confidence", margin=1.5),
    dict(strategy="confidence_weight", weight_floor=-0.5),
    dict(strategy="soft_ece", temperature=0.0),
    dict(strategy="soft_ece", n_bins=1),
    dict(strategy="soft_ece", norm_order=0.5),
    dict(strategy="mmce", kernel_width=0.0),
    dict(strategy="avuc", avuc_threshold=0.5),   # training state, not a field
])
def test_spec_rejects_bad_values(kw):
    # from_dict passes every key on to LossSpec's checks
    with pytest.raises(ValueError):
        LossSpec.from_dict(kw)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["lambda_kl", "lambda_c", "lambda_n", "margin",
                                   "weight_floor", "temperature", "n_bins",
                                   "norm_order", "kernel_width"])
def test_spec_rejects_non_finite_numbers(field, value):
    # a NaN passes a range check written as `x <= 0`: refuse it by type
    with pytest.raises(ValueError, match=f"^{field} must be "):
        LossSpec(strategy="baseline", **{field: value})


def test_from_dict_checks_and_keeps_unread_keys():
    # baseline reads neither margin nor kernel_width: both are kept, and checked
    spec = LossSpec.from_dict({"strategy": "baseline", "lambda_c": 2.0,
                               "margin": 0.8, "kernel_width": 0.9})
    assert (spec.lambda_c, spec.margin, spec.kernel_width) == (2.0, 0.8, 0.9)
    with pytest.raises(ValueError, match=r"^margin must lie in \[0, 1\], got 2$"):
        LossSpec.from_dict({"strategy": "baseline", "margin": 2})


def test_spec_takes_an_integral_float_count():
    spec = LossSpec(strategy="soft_ece", n_bins=15.0)
    assert spec.n_bins == 15 and type(spec.n_bins) is int


def test_from_dict_rejects_unknown_and_missing():
    with pytest.raises(ValueError, match="unknown"):
        LossSpec.from_dict({"strategy": "baseline", "typo_key": 1})
    with pytest.raises(ValueError, match="strategy"):
        LossSpec.from_dict({"lambda_c": 1.0})


# -- batch view ----------------------------------------------------------------

def test_batch_view_fields():
    b = view([0.9, 0.3, 0.5], [1, 1, 0])
    assert list(b.predicted) == [1, 0, 0]  # tie goes to class 0
    assert list(b.correct) == [True, False, True]
    assert np.allclose(b.r().ravel(), [0.9, 0.7, 0.5])
    assert np.allclose(b.prob_pos().ravel(), [0.9, 0.3, 0.5])
    assert np.allclose(b.true_prob().ravel(), [0.9, 0.3, 0.5])


def test_batch_view_validation():
    with pytest.raises(ValueError):
        make_batch_view(np.zeros((3, 3)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        view([0.9, 0.8], [1])
    with pytest.raises(ValueError):
        view([0.9], [1], epi=np.array([[0.5]]))


# -- paired confidence -----------------------------------------------------------

def test_paired_hand_fixture():
    # one false positive at 0.9 against one true positive at 0.8, margin 0.6
    b = view([0.9, 0.8], [0, 1])
    got = paired_confidence_loss(b, 0.6)
    assert abs(got.value - 0.7) < 1e-12


def test_paired_margin_satisfied_is_zero():
    # correct side beats incorrect by more than the margin
    b = view([0.55, 0.9], [0, 1])
    assert paired_confidence_loss(b, 0.2).value == 0.0


def test_paired_all_correct_is_zero():
    b = view([0.9, 0.1], [1, 0])
    assert paired_confidence_loss(b, 0.6).value == 0.0


def test_paired_normalizer_divides_by_incorrect_count():
    # two false positives, three true positives at identical confidences:
    # sum of 6 pair terms / 2 incorrect
    b = view([0.9, 0.9, 0.8, 0.8, 0.8], [0, 0, 1, 1, 1])
    per_pair = max(0.9 - 0.8 + 0.6, 0)
    assert abs(paired_confidence_loss(b, 0.6).value - 6 * per_pair / 2) < 1e-12


def test_paired_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        p = rng.uniform(0.001, 0.999, n)
        labels = (rng.random(n) < 0.5).astype(int)
        margin = float(rng.uniform(0, 1))
        b = view(p, labels)
        want = brute_paired_confidence(list(p), list(b.predicted), list(labels), margin)
        assert abs(paired_confidence_loss(b, margin).value - want) < 1e-10


# -- probability loss -------------------------------------------------------------

def test_probability_hand_fixtures():
    uniform = view([0.5] * 4, [1, 0, 1, 0])
    assert abs(probability_loss(uniform).value - 1.0) < 1e-12
    lone_pos = view([0.3], [1])   # P(neg) = 0.7, no negatives in batch
    assert abs(probability_loss(lone_pos).value - 0.7) < 1e-12
    perfect = view([1.0, 0.0], [1, 0])
    assert probability_loss(perfect).value == 0.0


def test_probability_empty_batch_is_zero_without_gradient():
    term = probability_loss(view([], []))
    assert term.value == 0.0 and term.vjp(np.float64(1.0)) == []


def test_reconstruction_loss_refuses_a_shape_mismatch():
    # (1, 3) would broadcast against (2, 3) if the shapes went unchecked
    with pytest.raises(ValueError, match=r"^target shape \(2, 3\) != reconstruction shape \(1, 3\)$"):
        reconstruction_loss(np.zeros((2, 3)), np.full((1, 3), 0.5))


def test_probability_balanced_closed_form():
    # every sample's true-class probability q -> loss 2(1-q) on balanced batches
    for q in (0.5, 0.65, 0.9, 1.0):
        b = view([q, 1.0 - q, q, 1.0 - q], [1, 0, 1, 0])
        assert abs(probability_loss(b).value - 2 * (1 - q)) < 1e-12


def test_probability_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 60))
        p = rng.uniform(0.0, 1.0, n)
        labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
        b = view(p, labels)
        want = brute_probability_loss(list(p), list(labels))
        assert abs(probability_loss(b).value - want) < 1e-10


# -- confidence weights ------------------------------------------------------------

def test_weight_hand_fixtures():
    b = view([0.9, 0.9, 0.2], [1, 1, 0], epi=np.array([1.0, 0.0, 0.7]))
    w = confidence_weights(b, 0.5)
    assert abs(w[0] - 0.5) < 1e-15    # g=1, C=1: floor engages
    assert abs(w[1] - 1.0) < 1e-15    # g=1, C=0: confidently wrong stays 1
    assert abs(w[2] - 0.85) < 1e-15   # g=0, C=0.7, w=0.5


def test_weight_floor_one_gives_unit_weights():
    rng = np.random.default_rng(2)
    b = random_view(rng, 12, epi=True)
    assert np.array_equal(confidence_weights(b, 1.0), np.ones(12))


def test_weighted_loss_needs_confidences():
    b = view([0.9], [1])
    with pytest.raises(ValueError, match="epistemic"):
        confidence_weights(b, 0.5)


def test_weighted_loss_reduces_to_bce_at_floor_one():
    rng = np.random.default_rng(3)
    b = random_view(rng, 9, epi=True)
    assert weighted_classifier_loss(b, 1.0).value == classifier_bce(b).value


# -- AvUC ---------------------------------------------------------------------

def test_avuc_ideal_batch_is_zero():
    b = view([0.999, 0.999, 0.001], [1, 1, 0])
    assert avuc_loss(b, 1.0).value == 0.0


def test_avuc_confident_wrong_grows():
    good = avuc_loss(view([0.999, 0.001], [1, 0]), 1.0).value
    bad = avuc_loss(view([0.999, 0.001], [0, 1]), 1.0).value
    assert good == 0.0
    assert bad > 10  # numerator against the 1e-12 floor


def test_avuc_threshold_partitions():
    # low threshold marks everything uncertain: correct mass moves to n_AU
    b = view([0.9, 0.8, 0.75], [1, 1, 1])
    loose = avuc_loss(b, 1.0).value
    strict = avuc_loss(b, 0.0).value
    assert loose == 0.0   # all certain, all accurate
    assert strict > 0.5   # all uncertain but accurate


def test_avuc_nonnegative_random():
    rng = np.random.default_rng(4)
    for _ in range(40):
        b = random_view(rng, int(rng.integers(1, 30)))
        t = float(rng.random())
        assert avuc_loss(b, t).value >= 0.0


# -- soft ECE -------------------------------------------------------------------

def test_soft_ece_perfectly_calibrated_near_zero():
    b = view([0.8] * 10, [1] * 8 + [0] * 2)
    assert soft_ece_loss(b, 15, 0.1, 2.0).value < 1e-8


def test_soft_ece_hard_limit_matches_ece():
    # T -> 0 with p = 1 reproduces hard equal-width ECE when no confidence
    # sits near a bin boundary
    rng = np.random.default_rng(5)
    p = rng.uniform(0.52, 0.98, 40)
    keep = np.abs(p * 15 - np.round(p * 15)) > 0.015   # off the bin edges
    p = p[keep]
    labels = (rng.random(p.size) < 0.5).astype(int)
    b = view(p, labels)
    soft = soft_ece_loss(b, 15, 1e-6, 1.0).value
    recs = records_from_probs(np.stack([1 - p, p], axis=1), labels)
    assert abs(soft - ece(recs, 15)) < 1e-6


def test_soft_ece_matches_oracle():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(1, 50))
        p = rng.uniform(0.001, 0.999, n)
        labels = (rng.random(n) < 0.5).astype(int)
        t = float(rng.uniform(0.01, 0.5))
        order = float(rng.choice([1.0, 2.0, 3.0]))
        b = view(p, labels)
        rs = [float(r) for r in np.maximum(p, 1 - p)]
        corrects = list(b.correct)
        want = brute_soft_ece(rs, corrects, 15, t, order)
        assert abs(soft_ece_loss(b, 15, t, order).value - want) < 1e-10


# -- MMCE -----------------------------------------------------------------------

def test_mmce_hand_fixtures():
    perfect = view([1.0, 1.0], [1, 1])
    assert mmce_loss(perfect, 0.4).value == 0.0
    # one correct and one incorrect, both fully confident
    b = view([1.0, 1.0], [1, 0])
    assert abs(mmce_loss(b, 0.4).value - 1.0) < 1e-12


def test_mmce_single_sided_batches():
    rng = np.random.default_rng(7)
    p = rng.uniform(0.6, 0.99, 8)
    all_correct = view(p, np.ones(8, dtype=int))
    assert mmce_loss(all_correct, 0.4).value >= 0.0
    all_wrong = view(p, np.zeros(8, dtype=int))
    assert mmce_loss(all_wrong, 0.4).value >= 0.0


def test_mmce_matches_oracle():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        p = rng.uniform(0.001, 0.999, n)
        labels = (rng.random(n) < 0.5).astype(int)
        b = view(p, labels)
        rs = [float(r) for r in np.maximum(p, 1 - p)]
        want = brute_mmce(rs, list(b.correct), 0.4)
        assert abs(mmce_loss(b, 0.4).value - want) < 1e-10


def test_mmce_permutation_symmetric():
    rng = np.random.default_rng(9)
    p = rng.uniform(0.001, 0.999, 20)
    labels = (rng.random(20) < 0.5).astype(int)
    base = mmce_loss(view(p, labels), 0.4).value
    perm = rng.permutation(20)
    assert abs(mmce_loss(view(p[perm], labels[perm]), 0.4).value - base) < 1e-12


def test_mmce_finite_nonnegative_many_batches():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        b = random_view(rng, int(rng.integers(1, 12)))
        v = mmce_loss(b, 0.4).value
        assert np.isfinite(v) and v >= 0.0


# -- regularizers are nonnegative --------------------------------------------------

def test_all_strategy_losses_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(30):
        b = random_view(rng, int(rng.integers(1, 25)), epi=True)
        assert paired_confidence_loss(b, float(rng.uniform(0, 1))).value >= 0.0
        assert probability_loss(b).value >= 0.0
        assert avuc_loss(b, float(rng.random())).value >= 0.0
        assert soft_ece_loss(b, 15, 0.1, 2.0).value >= 0.0
        assert mmce_loss(b, 0.4).value >= 0.0
        assert weighted_classifier_loss(b, float(rng.uniform(0, 2))).value >= 0.0
        assert classifier_bce(b).value >= 0.0


# -- composite dispatch --------------------------------------------------------------

def _composite_setup(seed=0, n=8, d=4):
    rng = np.random.default_rng(seed)
    model = VaeClassifier(d=d, hidden=6, latent=3, seed=seed)
    # randomize every head so gradients are non-trivial
    for _, node in model.params.items():
        node.value[:] = rng.standard_normal(node.value.shape) * 0.4
    x = rng.random((n, d))
    labels = (rng.random(n) < 0.5).astype(int)
    eps = rng.standard_normal((n, 3))
    c = rng.random(n)
    return model, x, labels, eps, c


def _composite_loss(model, x, labels, eps, spec, c=None):
    out = model.forward(x, FixedDraw(eps))
    node, _ = total_loss(x, out, labels, spec,
                         epistemic_conf=c if spec.strategy == "confidence_weight" else None)
    return node


def test_total_loss_lambda_zero_reduces_to_reconstruction():
    model, x, labels, eps, _ = _composite_setup()
    spec = LossSpec(strategy="baseline", lambda_kl=0.0, lambda_c=0.0)
    node = _composite_loss(model, x, labels, eps, spec)
    out = model.forward(x, FixedDraw(eps))
    assert node.value == reconstruction_loss(x, out.xhat).value


def test_total_loss_lambda_c_zero_leaves_classifier_untouched():
    model, x, labels, eps, _ = _composite_setup(seed=1)
    spec = LossSpec(strategy="baseline", lambda_kl=0.01, lambda_c=0.0)
    node = _composite_loss(model, x, labels, eps, spec)
    backward(node)
    for name in ("clf.w1", "clf.b1", "clf.w2", "clf.b2"):
        assert np.all(model.params[name].grad == 0.0)


def _grads_after(model, node):
    model.params.zero_grad()
    backward(node)
    return {n: p.grad.copy() for n, p in model.params.items()}


def test_lambda_n_zero_equals_baseline_bitwise():
    base_spec = LossSpec(strategy="baseline", lambda_kl=0.01, lambda_c=2.0)
    for strat in ("paired_confidence", "probability", "avuc", "soft_ece", "mmce"):
        model, x, labels, eps, _ = _composite_setup(seed=2)
        spec = LossSpec(strategy=strat, lambda_kl=0.01, lambda_c=2.0, lambda_n=0.0)
        node = _composite_loss(model, x, labels, eps, spec)
        base = _composite_loss(model, x, labels, eps, base_spec)
        assert node.value == base.value, strat
        g1 = _grads_after(model, node)
        g2 = _grads_after(model, base)
        for name in g1:
            assert np.array_equal(g1[name], g2[name]), (strat, name)


def test_confidence_weight_floor_one_equals_baseline_bitwise():
    model, x, labels, eps, c = _composite_setup(seed=3)
    base = _composite_loss(model, x, labels, eps,
                           LossSpec(strategy="baseline", lambda_kl=0.01, lambda_c=2.0))
    cw = _composite_loss(model, x, labels, eps,
                         LossSpec(strategy="confidence_weight", lambda_kl=0.01,
                                  lambda_c=2.0, weight_floor=1.0), c=c)
    assert cw.value == base.value
    g1 = _grads_after(model, cw)
    g2 = _grads_after(model, base)
    for name in g1:
        assert np.array_equal(g1[name], g2[name]), name


@pytest.mark.parametrize("strategy", [
    "baseline", "paired_confidence", "probability", "avuc", "soft_ece", "mmce",
    "confidence_weight",
])
def test_composite_gradient_fd(strategy):
    model, x, labels, eps, c = _composite_setup(seed=5)
    spec = LossSpec(strategy=strategy, lambda_kl=0.01, lambda_c=2.0, lambda_n=0.7,
                    weight_floor=0.3)
    node = _composite_loss(model, x, labels, eps, spec, c=c)
    backward(node)
    rng = np.random.default_rng(6)
    for name in ("enc.w1", "clf.w2", "dec.w1"):
        p = model.params[name]
        direction = rng.standard_normal(p.value.shape)
        analytic = float(np.sum(p.grad * direction))
        base_vals = p.value.copy()
        p.value[:] = base_vals + FD_STEP * direction
        hi = _composite_loss(model, x, labels, eps, spec, c=c).value
        p.value[:] = base_vals - FD_STEP * direction
        lo = _composite_loss(model, x, labels, eps, spec, c=c).value
        p.value[:] = base_vals
        fd = (hi - lo) / (2 * FD_STEP)
        assert rel_error(analytic, fd) < 1e-4, (strategy, name)


# -- fused heads against the op-by-op graph ------------------------------------------

@pytest.fixture(scope="module")
def scaled_batch():
    split = generate_gaussian_mixture(sizes=(250, 10, 10), seed=4)
    return FeatureScaler().fit_transform(features(split.train)), split_labels(split.train)


def _spread_model():
    """Default-sized model far enough off its init that every strategy sees
    correct and incorrect predictions."""
    model = VaeClassifier(d=8, seed=3)
    rng = np.random.default_rng(8)
    for _, node in model.params.items():
        node.value += rng.normal(0.0, 1.0, node.value.shape)
    return model


def _check_against_graph_reference(scaled_batch, spec, n, latent, avuc_threshold=1.0):
    x, g = scaled_batch[0][:n], scaled_batch[1][:n]
    model = _spread_model()
    conf = None
    if spec.strategy == "confidence_weight":
        conf = epistemic_batch(model, x, n=5, rng=np.random.default_rng(7))

    def run(forward, loss_fn, backward_fn):
        model.params.zero_grad()
        out = forward(model, x, rng=latent_rng(latent, 11))
        loss, batch = loss_fn(x, out, g, spec, epistemic_conf=conf,
                              avuc_threshold=avuc_threshold)
        backward_fn(loss)
        return loss.value, batch, {name: p.grad.copy() for name, p in model.params.items()}

    value, batch, grads = run(VaeClassifier.forward, total_loss, backward)
    ref_value, _, ref_grads = run(graph_vae_forward, graph_total_loss, oracles.backward)
    assert 0 < batch.correct.sum() < n            # both kinds of sample present
    assert value == ref_value
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name]), name
    assert any(np.any(grad != 0.0) for grad in grads.values())


@pytest.mark.parametrize("latent", ["sampled", "mean"])
@pytest.mark.parametrize("n", [25, 250])
@pytest.mark.parametrize("entry", DEFAULT_SUITE, ids=lambda e: e["strategy"])
def test_fused_heads_match_graph_reference_bitwise(scaled_batch, entry, n, latent):
    _check_against_graph_reference(scaled_batch, LossSpec.from_dict(dict(entry)), n, latent)


@pytest.mark.parametrize("threshold", [0.0, 0.6])
def test_fused_heads_match_graph_reference_with_avuc_threshold(scaled_batch, threshold):
    # the threshold reaches both composites as an argument, not through the spec
    _check_against_graph_reference(scaled_batch, LossSpec(strategy="avuc"), 25, "sampled",
                                   avuc_threshold=threshold)


# (strategy, (lambda_c, lambda_kl, lambda_n)) per case. A dropped term changes
# which path reaches mu, logvar and z first: with no term on the probabilities
# (baseline without its classifier term) the latent's part reaches mu and
# logvar before KL's, and a probability loss without its regularizer has the
# classifier term alone on the probabilities.
ZERO_WEIGHT_CASES = {
    f"{strategy}-{name}": (strategy, weights)
    for strategy in ("avuc", "mmce")
    for name, weights in (("no_classifier", (0.0, 0.001, 1.0)), ("no_kl", (3.0, 0.0, 1.0)),
                          ("neither", (0.0, 0.0, 1.0)))
}
ZERO_WEIGHT_CASES["baseline-no_classifier"] = ("baseline", (0.0, 0.001, 1.0))
ZERO_WEIGHT_CASES["probability-no_regularizer"] = ("probability", (3.0, 0.001, 0.0))


@pytest.mark.parametrize("latent", ["sampled", "mean"])
@pytest.mark.parametrize("strategy, weights", ZERO_WEIGHT_CASES.values(),
                         ids=ZERO_WEIGHT_CASES.keys())
def test_fused_heads_match_graph_reference_with_zero_weights(scaled_batch, strategy, weights,
                                                             latent):
    spec = LossSpec(strategy=strategy, lambda_c=weights[0], lambda_kl=weights[1],
                    lambda_n=weights[2])
    _check_against_graph_reference(scaled_batch, spec, 25, latent)


@pytest.mark.parametrize("entry", DEFAULT_SUITE, ids=lambda e: e["strategy"])
def test_loss_value_sums_weighted_terms_left_to_right(scaled_batch, entry):
    x, g = scaled_batch[0][:25], scaled_batch[1][:25]
    spec = LossSpec.from_dict(dict(entry))
    model = _spread_model()
    conf = np.full(25, 0.5) if spec.strategy == "confidence_weight" else None
    out = model.forward(x, np.random.default_rng(0))
    loss, batch = total_loss(x, out, g, spec, epistemic_conf=conf)
    want = (reconstruction_loss(x, out.xhat).value
            + kl_loss(out.mu_z, out.logvar_z).value * spec.lambda_kl)
    if spec.strategy == "confidence_weight":
        want = want + weighted_classifier_loss(batch, spec.weight_floor).value * spec.lambda_c
    else:
        want = want + classifier_bce(batch).value * spec.lambda_c
    regularizer = STRATEGIES[spec.strategy].regularizer
    if regularizer is not None:
        want = want + regularizer(batch, spec, 1.0).value * spec.lambda_n
    assert loss.value == want


# Degenerate batches as (P(g=1), labels): the fused terms must equal the graph
# terms bitwise, in value and in the gradient of the probabilities.
def _mixed(n, seed):
    rng = np.random.default_rng(seed)
    return list(rng.uniform(0.001, 0.999, n)), list((rng.random(n) < 0.5).astype(int))


DEGENERATE = {
    "all_correct": ([0.9, 0.2, 0.7, 0.1, 0.6], [1, 0, 1, 0, 1]),
    "all_wrong": ([0.9, 0.2, 0.7, 0.1, 0.6], [0, 1, 0, 1, 0]),
    "one_side_empty": ([0.9, 0.6, 0.8, 0.7, 0.55], [1, 0, 1, 0, 0]),
    "single_class": ([0.9, 0.3, 0.6, 0.2, 0.45], [1, 1, 1, 1, 1]),
    "log_floor": ([1.0, 0.0, 0.5, 1e-13, 1.0 - 1e-16], [0, 1, 1, 1, 1]),
    "single_sample": ([0.3], [1]),
    "mixed": _mixed(40, 12),
    "mixed_large": _mixed(400, 13),
    # P_i - P_j + 0.25 == 0 exactly for an (incorrect, correct) pair on each
    # side, and 0.7/0.7, 0.3/0.3 ties between incorrect and correct
    "hinge_at_zero": ([0.625, 0.875, 0.375, 0.125, 0.7, 0.7, 0.3, 0.3],
                      [0, 1, 1, 0, 0, 1, 1, 0]),
    # every predicted positive is wrong; the negative side is mixed
    "one_side_all_wrong": ([0.9, 0.8, 0.7, 0.2, 0.3, 0.1], [0, 0, 0, 0, 1, 0]),
}
TERMS = {
    "classifier_bce": (classifier_bce, oracles.graph_classifier_bce, ()),
    "weighted": (weighted_classifier_loss, oracles.graph_weighted_classifier_loss, (0.3,)),
    "paired": (paired_confidence_loss, oracles.graph_paired_confidence_loss, (0.6,)),
    "paired_narrow": (paired_confidence_loss, oracles.graph_paired_confidence_loss, (0.1,)),
    "paired_quarter": (paired_confidence_loss, oracles.graph_paired_confidence_loss, (0.25,)),
    "paired_no_margin": (paired_confidence_loss, oracles.graph_paired_confidence_loss, (0.0,)),
    "paired_wide": (paired_confidence_loss, oracles.graph_paired_confidence_loss, (1.0,)),
    "probability": (probability_loss, oracles.graph_probability_loss, ()),
    "avuc_certain": (avuc_loss, oracles.graph_avuc_loss, (1.0,)),
    "avuc_uncertain": (avuc_loss, oracles.graph_avuc_loss, (0.0,)),
    "avuc_split": (avuc_loss, oracles.graph_avuc_loss, (0.6,)),
    "soft_ece": (soft_ece_loss, oracles.graph_soft_ece_loss, (15, 0.1, 2.0)),
    "soft_ece_l1": (soft_ece_loss, oracles.graph_soft_ece_loss, (10, 0.05, 1.0)),
    "mmce": (mmce_loss, oracles.graph_mmce_loss, (0.4,)),
}


@pytest.mark.parametrize("term", sorted(TERMS))
@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_fused_terms_match_graph_terms_on_degenerate_batches(case, term):
    prob_pos, labels = DEGENERATE[case]
    fused, graph, args = TERMS[term]
    p = np.asarray(prob_pos, dtype=np.float64)
    probs = np.stack([1.0 - p, p], axis=1)
    epi = np.random.default_rng(14).random(len(p))

    # the classifier term feeds the probabilities first, as in training, so
    # the order of the term's own parts shows in the sums
    batch = make_batch_view(probs, np.asarray(labels), epistemic_conf=epi)
    term = fused(batch, *args)
    value = term.value
    grad = _in_order([*classifier_bce(batch).vjp(1.0), *term.vjp(0.7)])

    leaf = oracles.param(probs)
    graph_batch = graph_batch_view(leaf, np.asarray(labels), epistemic_conf=epi)
    node = graph(graph_batch, *args)
    oracles.backward(oracles.graph_classifier_bce(graph_batch) + node * 0.7)
    ref_value, ref_grad = node.value, leaf.grad
    assert value == ref_value
    assert np.array_equal(grad, ref_grad)


def test_paired_edge_batches_hit_the_hinge_kink():
    # the edge rows above reach what they are named for: a hinge input of
    # exactly 0 at margins 0.25 and 0, and a side with no correct member
    p, labels = DEGENERATE["hinge_at_zero"]
    b = view(p, labels)
    inc = np.flatnonzero(~b.correct & (b.predicted == 1))
    cor = np.flatnonzero(b.correct & (b.predicted == 1))
    prob = b.prob_pos().ravel()
    assert (prob[inc][:, None] - prob[cor][None, :] + 0.25 == 0.0).any()
    assert (prob[inc][:, None] - prob[cor][None, :] + 0.0 == 0.0).any()
    b = view(*DEGENERATE["one_side_all_wrong"])
    assert not (b.correct & (b.predicted == 1)).any() and (b.predicted == 0).any()


# Peak traced memory of one forward and VJP at batch 250, in (n, n) float64
# arrays. Measured: paired 1.32 and MMCE 4.32 (the kernel, its sign and two
# cotangent buffers); the per-op kernels they replaced peaked at 4.40 and 7.06.
PEAK_NN_ARRAYS = {"paired": 1.6, "mmce": 4.6}


@pytest.mark.parametrize("term", sorted(PEAK_NN_ARRAYS))
def test_pair_heads_peak_memory_stays_bounded(term):
    n = 250
    rng = np.random.default_rng(15)
    b = random_view(rng, n)
    head = {"paired": lambda: paired_confidence_loss(b, 0.6),
            "mmce": lambda: mmce_loss(b, 0.4)}[term]
    tracemalloc.start()
    try:
        head().vjp(0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * n * n) < PEAK_NN_ARRAYS[term]


def test_avuc_partitions_cover_both_extremes():
    # on the large mixed batch the avuc thresholds 1.0, 0.6 and 0.0 mark
    # every sample certain, some, and none
    p = np.asarray(DEGENERATE["mixed_large"][0])
    u = -(p * np.log(p) + (1 - p) * np.log(1 - p)) / math.log(2.0)
    assert np.all(u < 1.0) and not np.all(u < 0.6) and not np.any(u < 0.0)


@pytest.mark.parametrize("latent", ["sampled", "mean"])
def test_vae_terms_match_graph_terms_bitwise(scaled_batch, latent):
    x = scaled_batch[0][:25]
    model = _spread_model()

    def forward(forward_fn):
        model.params.zero_grad()
        return forward_fn(model, x, rng=latent_rng(latent, 3))

    out = forward(VaeClassifier.forward)
    recon, kl = reconstruction_loss(x, out.xhat), kl_loss(out.mu_z, out.logvar_z)
    model.backward(out, recon.vjp(1.0), kl_parts=kl.vjp(0.25))
    value, grad = recon.value + kl.value * 0.25, model.params.grad.copy()

    out = forward(graph_vae_forward)
    loss = graph_reconstruction_loss(x, out.xhat) + graph_kl_loss(out.mu_z, out.logvar_z) * 0.25
    oracles.backward(loss)
    ref_value, ref_grad = loss.value, model.params.grad.copy()
    assert value == ref_value
    assert np.array_equal(grad, ref_grad)
