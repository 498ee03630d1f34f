import numpy as np
import pytest

from calibtrain import uncertainty
from calibtrain.data import FeatureScaler, Subset, features, generate_gaussian_mixture
from calibtrain.model import VaeClassifier
from calibtrain.uncertainty import (
    KINDS,
    VOTE_ROWS,
    epistemic_batch,
    predictions_from_shares,
    uncertainty_records,
)
from oracles import perturb


def sign_model(latent_floor=False):
    """Handcrafted net that predicts by the sign of x0 (through tanh layers)."""
    m = VaeClassifier(d=2, hidden=4, latent=2, seed=0)
    for _, node in m.params.items():
        node.value[:] = 0.0
    m.params["enc.w1"].value[0, 0] = 0.5
    m.params["enc.w_mu"].value[0, 0] = 1.0
    m.params["clf.w1"].value[0, 0] = 0.5
    m.params["clf.w2"].value[0, 0] = -10.0
    m.params["clf.w2"].value[0, 1] = 10.0
    if latent_floor:
        m.params["enc.b_lv"].value[:] = -1000.0  # clamps logvar to -10
    return m


def share(model, x, kind, **kwargs):
    """Positive-vote share of the one raw sample x, voted as a one-row test
    ``Subset`` on its own stream."""
    row = Subset(np.array([x], dtype=np.float64), np.zeros(1, dtype=np.int64),
                 np.full(1, 0.5))
    return float(uncertainty_records(model, row, kind, **kwargs).probs[0, 1])


def classified_rows(model, monkeypatch):
    """Record the rows of every classifier pass of model, in call order."""
    rows = []
    classify = model.classify_values

    def recording(z):
        rows.append(np.array(z))
        return classify(z)

    monkeypatch.setattr(model, "classify_values", recording)
    return rows


# -- epistemic ------------------------------------------------------------------

def test_epistemic_counts_and_range(monkeypatch):
    m = sign_model()
    x = np.array([0.05, 0.0])
    rows = classified_rows(m, monkeypatch)
    c = share(m, x, "epistemic", n=20, base_seed=(0,))
    assert 0.0 <= c <= 1.0
    assert c * 20 == round(c * 20)   # a count of 20 votes
    # pass 0 is the deterministic one: z = mu on the original input
    (z,) = rows
    assert len(z) == 20
    mu, _ = m.encode_values(x[None, :])
    assert np.array_equal(z[0], mu[0])
    assert np.argmax(m.classify_values(z[:1]), axis=1)[0] == 1   # x0 > 0


def test_epistemic_deterministic_under_seed():
    m = sign_model()
    m.params["enc.b_lv"].value[:] = -1.0   # latent spread that splits the votes
    x = np.array([0.1, -0.3])
    a = share(m, x, "epistemic", n=20, base_seed=(5,))
    b = share(m, x, "epistemic", n=20, base_seed=(5,))
    assert 0.0 < a < 1.0
    assert a == b


def test_epistemic_degenerate_variance_matches_deterministic():
    m = sign_model(latent_floor=True)
    assert share(m, np.array([0.5, 0.2]), "epistemic", n=200, base_seed=(1, 0)) == 1.0
    assert share(m, np.array([-0.5, 0.2]), "epistemic", n=200, base_seed=(1, 1)) == 0.0


def test_epistemic_validation():
    m = sign_model()
    with pytest.raises(ValueError, match="need at least one pass"):
        share(m, np.zeros(2), "epistemic", n=0)
    # a single pass is the deterministic vote
    assert share(m, np.array([1.0, 0.0]), "epistemic", n=1) == 1.0
    assert share(m, np.array([-1.0, 0.0]), "epistemic", n=1) == 0.0


def test_epistemic_stability_20_vs_200():
    m = sign_model()
    rng_grid = np.random.default_rng(2)
    deltas = []
    for _ in range(40):
        x = rng_grid.uniform(-1, 1, 2)
        a = share(m, x, "epistemic", n=20, base_seed=(3,))
        b = share(m, x, "epistemic", n=200, base_seed=(3,))
        deltas.append(abs(a - b))
    assert np.mean(deltas) < 0.1


# -- aleatoric -------------------------------------------------------------------

def test_aleatoric_sigma_zero_unanimous():
    m = sign_model()
    assert share(m, np.array([0.4, -0.1]), "aleatoric", n=20, sigma=0.0) == 1.0
    assert share(m, np.array([-0.4, 0.1]), "aleatoric", n=20, sigma=0.0) == 0.0


def test_aleatoric_far_from_boundary_stable():
    m = sign_model()
    assert share(m, np.array([5.0, 0.0]), "aleatoric", n=20, sigma=0.1,
                 base_seed=(4,)) == 1.0


def test_aleatoric_boundary_mixed_over_seeds():
    # noise on the scale of the class separation splits the votes for a
    # sample sitting on the decision boundary
    m = sign_model()
    s = np.array([0.0, 0.0])
    mixed = sum(0.0 < share(m, s, "aleatoric", n=20, sigma=1.0, base_seed=(seed,)) < 1.0
                for seed in range(100))
    assert mixed >= 95


def test_aleatoric_validation():
    m = sign_model()
    s = np.zeros(2)
    with pytest.raises(ValueError, match="need at least one pass"):
        share(m, s, "aleatoric", n=0, sigma=0.1)
    with pytest.raises(ValueError, match="sigma"):
        share(m, s, "aleatoric", n=5, sigma=-1.0)


def test_aleatoric_scaler_applied():
    m = sign_model()
    scaler = FeatureScaler().fit(np.array([[-1.0, -1.0], [1.0, 1.0]]))
    # raw x0 = -0.5 scaled to 0.25: positive input to the scaled-space model
    s = np.array([-0.5, 0.0])
    assert share(m, s, "aleatoric", n=1) == 0.0
    assert share(m, s, "aleatoric", n=1, scaler=scaler) == 1.0


def test_aleatoric_noise_added_in_raw_units_before_scaling(monkeypatch):
    m = sign_model()
    scaler = FeatureScaler().fit(np.array([[-1.0, -1.0], [1.0, 1.0]]))
    # raw x0 = -2 scales (and clips) to 0, a negative vote; a copy turns
    # positive only when its raw noise exceeds 1, about 2% of draws at
    # sigma 0.5, against half of them for noise added after scaling
    s = np.array([-2.0, 0.0])
    n, sigma = 200, 0.5
    rows = classified_rows(m, monkeypatch)
    c = share(m, s, "aleatoric", n=n, sigma=sigma, scaler=scaler, base_seed=(6,))
    eps = np.random.default_rng((6,)).standard_normal((n - 1, 2))
    noisy = scaler.transform(np.vstack([s, s + eps * sigma]))
    (z,) = rows
    assert np.array_equal(z, m.encode_values(noisy)[0])
    assert 0.0 < c < 0.1
    assert c == float(np.argmax(m.classify_values(z), axis=1).mean())


# -- records ----------------------------------------------------------------------

def test_predictions_from_shares_conventions():
    # unanimous positive, a tie, and a minority of positive votes
    recs = predictions_from_shares(np.array([1.0, 0.5, 0.3]), np.array([1, 0, 0]))
    assert recs.conf[0] == 1.0 and recs.correct[0] and recs.predicted[0] == 1
    assert recs.predicted[1] == 1 and recs.conf[1] == 0.5 and not recs.correct[1]
    assert recs.predicted[2] == 0 and recs.conf[2] == 0.7 and recs.correct[2]


def test_uncertainty_records_full_split():
    split = generate_gaussian_mixture(sizes=(30, 10, 25), d=2, separation=2.0, seed=3)
    m = sign_model()
    recs = uncertainty_records(m, split.test, "epistemic", n=5, base_seed=(3, 3))
    assert len(recs) == 25
    again = uncertainty_records(m, split.test, "epistemic", n=5, base_seed=(3, 3))
    assert np.array_equal(recs.conf, again.conf)
    assert np.array_equal(recs.predicted, again.predicted)
    ale = uncertainty_records(m, split.test, "aleatoric", n=5, sigma=0.2, base_seed=(3, 4))
    assert len(ale) == 25
    with pytest.raises(ValueError):
        uncertainty_records(m, split.test, "dropout")
    for kind in KINDS:
        with pytest.raises(ValueError, match="need at least one pass"):
            uncertainty_records(m, split.test, kind, n=0)
    with pytest.raises(ValueError):   # default_rng rejects a negative seed word
        uncertainty_records(m, split.test, "epistemic", n=3, base_seed=(-1, 3))


# -- chunked records against per-sample loops ---------------------------------------

def unbatched_vote_shares(model, split, kind, scaler, n, sigma, base_seed):
    """Positive-vote shares from one forward pass per sample, sharing no code
    with the vote kernel: latent draws of shape (n - 1, latent), and n - 1
    separate ``perturb`` calls for the noisy inputs, all from one stream."""
    rng = np.random.default_rng(base_seed)
    shares = []
    for i in range(len(split.test)):
        sample = split.test.take(slice(i, i + 1))
        if kind == "epistemic":
            x = sample.x if scaler is None else scaler.transform(sample.x)
            mu, lv = model.encode_values(x)
            z = [mu]
            if n > 1:
                z.append(mu + np.exp(lv / 2.0) * rng.standard_normal((n - 1, mu.shape[1])))
            votes = [np.argmax(model.classify_values(zi), axis=1) for zi in z]
        else:
            rows = [sample.x] + [perturb(sample, sigma, rng).x for _ in range(n - 1)]
            xs = np.concatenate(rows) if scaler is None else scaler.transform(np.concatenate(rows))
            votes = [np.argmax(model.predict_probs(xs), axis=1)]
        shares.append(float(np.concatenate(votes).mean()))
    return shares


@pytest.mark.parametrize("kind,sigma", [("epistemic", None), ("aleatoric", 0.0),
                                        ("aleatoric", 0.7)])
@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("scaled", [False, True])
def test_uncertainty_records_match_per_sample_loops(kind, sigma, n, scaled):
    split = generate_gaussian_mixture(sizes=(30, 10, VOTE_ROWS + 44), d=2,
                                      separation=1.0, seed=5)
    assert len(split.test) % max(1, VOTE_ROWS // n) != 0   # a ragged last chunk
    m = sign_model()
    m.params["enc.b_lv"].value[:] = -1.0   # latent spread that splits some votes
    scaler = FeatureScaler().fit(features(split.train)) if scaled else None
    base = (9, 2)
    sigma = 0.1 * 1.0 if sigma is None else sigma   # the suite's, at separation 1.0
    got = uncertainty_records(m, split.test, kind, scaler=scaler, n=n, sigma=sigma,
                              base_seed=base)
    shares = unbatched_vote_shares(m, split, kind, scaler, n, sigma, base)
    want = predictions_from_shares(np.array(shares), split.test.g)
    assert len(got) == len(want) == len(split.test)
    for field in ("conf", "predicted", "g", "correct", "probs"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    if n > 1 and sigma > 0:
        assert any(0.0 < c < 1.0 for c in shares)   # the draws reached the votes


@pytest.mark.parametrize("kind", KINDS)
def test_uncertainty_records_do_not_depend_on_vote_rows(kind, monkeypatch):
    split = generate_gaussian_mixture(sizes=(30, 10, 300), d=2, separation=1.0, seed=7)
    m = sign_model()
    m.params["enc.b_lv"].value[:] = -1.0
    runs = []
    for rows in (1, 7, 512):
        monkeypatch.setattr(uncertainty, "VOTE_ROWS", rows)
        runs.append(uncertainty_records(m, split.test, kind, n=5, sigma=0.7,
                                        base_seed=(2, 3)))
    for got in runs[1:]:
        for field in ("conf", "predicted", "g", "correct", "probs"):
            assert np.array_equal(getattr(got, field), getattr(runs[0], field))
    assert np.any((runs[0].conf > 0.5) & (runs[0].conf < 1.0))   # the draws split votes


def test_uncertainty_records_seed_without_a_generator_per_sample(monkeypatch):
    calls = []
    for name in ("default_rng", "SeedSequence", "PCG64"):
        original = getattr(np.random, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counting)
    split = generate_gaussian_mixture(sizes=(30, 10, 600), d=2, seed=6)
    calls.clear()
    uncertainty_records(sign_model(), split.test, "epistemic", n=7, base_seed=(1, 3))
    assert len(calls) <= 2, calls


# -- batch path --------------------------------------------------------------------

def test_epistemic_batch_shape_and_determinism():
    m = sign_model()
    xs = np.random.default_rng(6).uniform(-1, 1, (30, 2))
    a = epistemic_batch(m, xs, n=20, rng=np.random.default_rng(7))
    b = epistemic_batch(m, xs, n=20, rng=np.random.default_rng(7))
    assert a.shape == (30,)
    assert np.array_equal(a, b)
    assert np.all((a >= 0) & (a <= 1))
    # counts are multiples of 1/20
    assert np.allclose(a * 20, np.round(a * 20))


def test_epistemic_batch_degenerate_variance():
    m = sign_model(latent_floor=True)
    xs = np.array([[0.5, 0.0], [-0.5, 0.0], [2.0, 1.0]])
    c = epistemic_batch(m, xs, n=50, rng=np.random.default_rng(8))
    det = np.argmax(m.predict_probs(xs), axis=1)
    assert np.array_equal(c, det.astype(float))


def per_pass_epistemic_batch(model, xs, n, rng):
    """One (b, latent) draw and one classifier pass per vote."""
    mu, lv = model.encode_values(xs)
    counts = (np.argmax(model.classify_values(mu), axis=1) == 1).astype(np.float64)
    for _ in range(n - 1):
        z = mu + np.exp(lv / 2.0) * rng.standard_normal(mu.shape)
        counts += np.argmax(model.classify_values(z), axis=1) == 1
    return counts / n


@pytest.mark.parametrize("n", [1, 2, 20])
@pytest.mark.parametrize("b", [1, 25, 26, 250, 513])
def test_epistemic_batch_blocks_match_per_pass_loop(b, n):
    m = VaeClassifier(d=3, hidden=8, latent=2, seed=1)
    rng = np.random.default_rng(4)
    for _, node in m.params.items():
        node.value[...] = rng.normal(0.0, 0.8, node.value.shape)
    m.params["enc.b_lv"].value[:] = 1.0   # wide latent draws
    xs = np.random.default_rng(b).uniform(0.0, 1.0, (b, 3))
    got = epistemic_batch(m, xs, n=n, rng=np.random.default_rng((b, n)))
    want = per_pass_epistemic_batch(m, xs, n, np.random.default_rng((b, n)))
    assert np.array_equal(got, want)
    if n == 20 and b >= 25:
        assert np.any((got > 0.0) & (got < 1.0))   # the latent draws split votes


def test_votes_cast_in_blocks_of_at_most_vote_rows(monkeypatch):
    m = sign_model()
    rows = []
    classify = m.classify_values

    def counting(z):
        rows.append(len(z))
        return classify(z)

    monkeypatch.setattr(m, "classify_values", counting)
    split = generate_gaussian_mixture(sizes=(30, 10, 600), d=2, seed=6)
    uncertainty_records(m, split.test, "epistemic", n=7)
    chunk = VOTE_ROWS // 7
    assert rows == [chunk * 7] * (600 // chunk) + [600 % chunk * 7]
    rows.clear()
    xs = np.random.default_rng(6).uniform(-1, 1, (250, 2))
    epistemic_batch(m, xs, n=20, rng=np.random.default_rng(7))
    # the same loop: all 20 passes of VOTE_ROWS // 20 = 25 rows at a time
    assert rows == [500] * 10
    assert max(rows) <= VOTE_ROWS
