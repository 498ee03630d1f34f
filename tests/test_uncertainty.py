import numpy as np
import pytest

from calibtrain.data import FeatureScaler, features, generate_gaussian_mixture
from calibtrain.model import VaeClassifier
from calibtrain.uncertainty import (
    VOTE_ROWS,
    Substreams,
    UncertaintyEstimate,
    aleatoric,
    epistemic,
    epistemic_batch,
    pcg64_states,
    predictions_from_shares,
    seed_words,
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


# -- estimate type ------------------------------------------------------------

def test_estimate_counting_definition():
    preds = np.array([1] * 13 + [0] * 7)
    est = UncertaintyEstimate(c_positive=float(preds.mean()), n_samples=20,
                              kind="epistemic", predictions=preds)
    assert est.c_positive == 0.65


def test_estimate_validation():
    with pytest.raises(ValueError):
        UncertaintyEstimate(c_positive=0.5, n_samples=0, kind="epistemic",
                            predictions=np.array([]))
    with pytest.raises(ValueError):
        UncertaintyEstimate(c_positive=0.5, n_samples=1, kind="dropout",
                            predictions=np.array([1]))


# -- epistemic ------------------------------------------------------------------

def test_epistemic_counts_and_range():
    m = sign_model()
    est = epistemic(m, np.array([0.05, 0.0]), n=20, rng=np.random.default_rng(0))
    assert est.n_samples == 20 and len(est.predictions) == 20
    assert est.c_positive == est.predictions.mean()
    assert 0.0 <= est.c_positive <= 1.0
    assert est.predictions[0] == 1  # deterministic pass prediction at x0 > 0


def test_epistemic_deterministic_under_seed():
    m = sign_model()
    x = np.array([0.1, -0.3])
    a = epistemic(m, x, n=20, rng=np.random.default_rng(5))
    b = epistemic(m, x, n=20, rng=np.random.default_rng(5))
    assert a.c_positive == b.c_positive
    assert np.array_equal(a.predictions, b.predictions)


def test_epistemic_degenerate_variance_matches_deterministic():
    m = sign_model(latent_floor=True)
    rng = np.random.default_rng(1)
    pos = epistemic(m, np.array([0.5, 0.2]), n=200, rng=rng)
    neg = epistemic(m, np.array([-0.5, 0.2]), n=200, rng=rng)
    assert pos.c_positive == 1.0
    assert neg.c_positive == 0.0


def test_epistemic_validation():
    m = sign_model()
    with pytest.raises(ValueError):
        epistemic(m, np.zeros(2), n=0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        epistemic(m, np.zeros(2), n=5, rng=None)
    # a single pass needs no rng
    est = epistemic(m, np.array([1.0, 0.0]), n=1)
    assert est.c_positive == 1.0


def test_epistemic_stability_20_vs_200():
    m = sign_model()
    rng_grid = np.random.default_rng(2)
    deltas = []
    for _ in range(40):
        x = rng_grid.uniform(-1, 1, 2)
        a = epistemic(m, x, n=20, rng=np.random.default_rng(3))
        b = epistemic(m, x, n=200, rng=np.random.default_rng(3))
        deltas.append(abs(a.c_positive - b.c_positive))
    assert np.mean(deltas) < 0.1


# -- aleatoric -------------------------------------------------------------------

def test_aleatoric_sigma_zero_unanimous():
    m = sign_model()
    s = np.array([0.4, -0.1])
    est = aleatoric(m, s, n=20, sigma=0.0)
    assert est.c_positive in (0.0, 1.0)
    assert est.c_positive == 1.0
    assert len(set(est.predictions.tolist())) == 1


def test_aleatoric_far_from_boundary_stable():
    m = sign_model()
    s = np.array([5.0, 0.0])
    est = aleatoric(m, s, n=20, sigma=0.1, rng=np.random.default_rng(4))
    assert est.c_positive == 1.0


def test_aleatoric_boundary_mixed_over_seeds():
    # noise on the scale of the class separation splits the votes for a
    # sample sitting on the decision boundary
    m = sign_model()
    s = np.array([0.0, 0.0])
    mixed = 0
    for seed in range(100):
        est = aleatoric(m, s, n=20, sigma=1.0, rng=np.random.default_rng(seed))
        if 0.0 < est.c_positive < 1.0:
            mixed += 1
    assert mixed >= 95


def test_aleatoric_validation():
    m = sign_model()
    s = np.zeros(2)
    with pytest.raises(ValueError):
        aleatoric(m, s, n=0, sigma=0.1, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        aleatoric(m, s, n=5, sigma=-1.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        aleatoric(m, s, n=5, sigma=0.5, rng=None)


def test_aleatoric_scaler_applied():
    m = sign_model()
    scaler = FeatureScaler().fit(np.array([[-1.0, -1.0], [1.0, 1.0]]))
    # raw x0 = -0.5 scaled to 0.25: positive input to the scaled-space model
    s = np.array([-0.5, 0.0])
    raw = aleatoric(m, s, n=1)
    scaled = aleatoric(m, s, n=1, scaler=scaler)
    assert raw.c_positive == 0.0
    assert scaled.c_positive == 1.0


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
    recs = uncertainty_records(m, split, "epistemic", n=5, base_seed=(3, 3))
    assert len(recs) == 25
    again = uncertainty_records(m, split, "epistemic", n=5, base_seed=(3, 3))
    assert np.array_equal(recs.conf, again.conf)
    assert np.array_equal(recs.predicted, again.predicted)
    ale = uncertainty_records(m, split, "aleatoric", n=5, base_seed=(3, 4))
    assert len(ale) == 25  # sigma defaulted from the split's separation
    with pytest.raises(ValueError):
        uncertainty_records(m, split, "dropout")


# -- chunked records against per-sample loops ---------------------------------------

def per_sample_records(model, split, kind, scaler, n, sigma, base_seed):
    """The single-sample estimators, one substream per test sample."""
    shares = []
    for i, x in enumerate(split.test.x):
        rng = np.random.default_rng(base_seed + (i,))
        if kind == "epistemic":
            x = x if scaler is None else scaler.transform(x[None, :])[0]
            est = epistemic(model, x, n=n, rng=rng)
        else:
            est = aleatoric(model, x, n=n, sigma=sigma, rng=rng, scaler=scaler)
        shares.append(est.c_positive)
    return predictions_from_shares(np.array(shares), split.test.g)


def unbatched_vote_shares(model, split, kind, scaler, n, sigma, base_seed):
    """Positive-vote shares from one forward pass per sample, sharing no code
    with the vote kernel: latent draws of shape (n - 1, latent), and n - 1
    separate ``perturb`` calls for the noisy inputs."""
    shares = []
    for i in range(len(split.test)):
        sample = split.test.take(slice(i, i + 1))
        rng = np.random.default_rng(base_seed + (i,))
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
    got = uncertainty_records(m, split, kind, scaler=scaler, n=n, sigma=sigma,
                              base_seed=base)
    sigma = 0.1 * split.params["separation"] if sigma is None else sigma
    want = per_sample_records(m, split, kind, scaler, n, sigma, base)
    assert len(got) == len(want) == len(split.test)
    for field in ("conf", "predicted", "g", "correct", "probs"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    shares = got.probs[:, 1].tolist()
    assert shares == unbatched_vote_shares(m, split, kind, scaler, n, sigma, base)
    if n > 1 and sigma > 0:
        assert any(0.0 < c < 1.0 for c in shares)   # the draws reached the votes


# -- vectorised substream seeding against NumPy ---------------------------------------

# the last key has five entropy words before i, so it reaches the hash's tail loop
SEED_KEYS = [(0, 3), (7, 4), (2**32 + 5, 3), (2**64 + 1, 2**40, 3)]
SEED_IDS = [0, 1, 127, 2**32 - 1]


@pytest.mark.parametrize("key", SEED_KEYS)
def test_seed_words_match_seed_sequence(key):
    got = seed_words(key, SEED_IDS)
    assert got.dtype == np.uint64 and got.shape == (len(SEED_IDS), 4)
    for i, words in zip(SEED_IDS, got):
        want = np.random.SeedSequence(key + (i,)).generate_state(4, np.uint64)
        assert np.array_equal(words, want)
    assert seed_words(key, []).shape == (0, 4)


@pytest.mark.parametrize("key", SEED_KEYS)
def test_pcg64_states_match_numpy(key):
    rows = pcg64_states(seed_words(key, SEED_IDS)).tolist()
    for i, (s_hi, s_lo, i_hi, i_lo) in zip(SEED_IDS, rows):
        want = np.random.PCG64(key + (i,)).state["state"]
        assert (s_hi << 64 | s_lo, i_hi << 64 | i_lo) == (want["state"], want["inc"])


@pytest.mark.parametrize("key", SEED_KEYS)
@pytest.mark.parametrize("shape", [(19, 8), (4, 2)])
def test_substreams_draw_the_default_rng_streams(key, shape):
    streams = Substreams(key, SEED_IDS)
    out = streams.standard_normal(0, np.empty((len(SEED_IDS),) + shape))
    for i, draw in zip(SEED_IDS, out):
        assert np.array_equal(draw, np.random.default_rng(key + (i,)).standard_normal(shape))
    # a later window reads the same streams again from their start
    tail = streams.standard_normal(2, np.empty((2,) + shape))
    assert np.array_equal(tail, out[2:])
    assert Substreams(key, []).standard_normal(0, np.empty((0,) + shape)).shape == (0,) + shape


def test_seeding_rejects_words_numpy_rejects():
    with pytest.raises(ValueError):
        np.random.SeedSequence((-1, 3, 0))
    with pytest.raises(ValueError):
        seed_words((-1, 3), [0])
    with pytest.raises(ValueError):
        seed_words((0, 3), [-1])
    with pytest.raises(ValueError):
        seed_words((0, 3), [2**32])     # ids must stay one entropy word
    split = generate_gaussian_mixture(sizes=(30, 10, 5), d=2, seed=3)
    with pytest.raises(ValueError):
        uncertainty_records(sign_model(), split, "epistemic", n=3, base_seed=(-1, 3))


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
    uncertainty_records(sign_model(), split, "epistemic", n=7, base_seed=(1, 3))
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
    uncertainty_records(m, split, "epistemic", n=7)
    chunk = VOTE_ROWS // 7
    assert rows == [chunk * 7] * (600 // chunk) + [600 % chunk * 7]
    rows.clear()
    xs = np.random.default_rng(6).uniform(-1, 1, (250, 2))
    epistemic_batch(m, xs, n=20, rng=np.random.default_rng(7))
    # the deterministic pass, then 19 latent passes two at a time
    assert rows == [250] + [500] * 9 + [250]
