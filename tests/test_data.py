import math

import numpy as np
import pytest

from calibtrain.data import (
    FeatureScaler,
    Subset,
    features,
    generate_gaussian_mixture,
    labels,
    posteriors,
)
from oracles import perturb


SEPARATION = 2.0


def small_split(**kw):
    args = dict(sizes=(200, 100, 100), d=4, separation=SEPARATION, noise_rate=0.0,
                positive_fraction=0.5, seed=11)
    args.update(kw)
    return generate_gaussian_mixture(**args)


def test_posterior_at_midpoint_is_half():
    # balanced classes: the stored posterior of the sample nearest the
    # decision boundary x0 = 0 lies within the logistic's slope bound,
    # |sigmoid(s * x0) - 1/2| <= s * |x0| / 4, and label noise
    # p(1 - rho) + (1 - p) rho only shrinks that gap, by 1 - 2 rho
    for rho in (0.0, 0.15, 0.4):
        split = small_split(noise_rate=rho)
        i = np.argmin(np.abs(split.train.x[:, 0]))
        gap = abs(split.train.posterior[i] - 0.5)
        bound = SEPARATION * abs(split.train.x[i, 0]) / 4
        assert gap <= bound
        assert gap <= (1 - 2 * rho) * bound + 1e-15


def test_posterior_formula_matches_samples():
    split = small_split(seed=3)
    sep = SEPARATION
    for x, posterior in zip(split.train.x[:50], split.train.posterior[:50]):
        expect = 1.0 / (1.0 + math.exp(-sep * x[0]))
        assert abs(posterior - expect) < 1e-12


def test_noise_rate_adjusts_posterior():
    rho = 0.2
    clean = small_split(seed=5)
    noisy = small_split(seed=5, noise_rate=rho)
    # same seed 'component' and x draws precede the label draws, so features match
    a, b = clean.train.take(slice(0, 20)), noisy.train.take(slice(0, 20))
    assert np.array_equal(a.x, b.x)
    expect = a.posterior * (1 - rho) + (1 - a.posterior) * rho
    assert np.all(np.abs(b.posterior - expect) < 1e-12)


def test_labels_match_posterior_binomial_ci():
    # group test samples into posterior bands; empirical positive frequency
    # must sit inside a 4-sigma binomial interval around the band mean
    split = generate_gaussian_mixture(sizes=(200, 100, 20000), d=4, seed=7)
    ps = posteriors(split.test)
    gs = labels(split.test)
    for lo in np.arange(0.0, 1.0, 0.1):
        mask = (ps >= lo) & (ps < lo + 0.1)
        k = int(mask.sum())
        if k < 200:
            continue
        p_mean = ps[mask].mean()
        freq = gs[mask].mean()
        sigma = math.sqrt(p_mean * (1 - p_mean) / k)
        assert abs(freq - p_mean) < 4 * sigma + 1e-9, (lo, freq, p_mean, k)


def test_determinism_same_seed():
    a = small_split(seed=21)
    b = small_split(seed=21)
    assert np.array_equal(features(a.train), features(b.train))
    assert np.array_equal(labels(a.test), labels(b.test))
    assert np.array_equal(posteriors(a.validation), posteriors(b.validation))


def test_different_seeds_differ():
    a = small_split(seed=21)
    b = small_split(seed=22)
    assert not np.array_equal(features(a.train), features(b.train))


def test_split_sizes_and_disjointness():
    split = small_split()
    assert len(split.train) == 200
    assert len(split.validation) == 100
    assert len(split.test) == 100
    # distinct draws: no feature row repeats across splits
    all_x = np.concatenate([features(split.train), features(split.validation),
                            features(split.test)])
    assert len(np.unique(all_x[:, 0])) == len(all_x)


@pytest.mark.parametrize("bad", [
    dict(noise_rate=0.5),
    dict(noise_rate=-0.1),
    dict(separation=0.0),
    dict(separation=-1.0),
    dict(positive_fraction=0.0),
    dict(positive_fraction=1.0),
    dict(d=0),
    dict(sizes=(10, 5, 5)),
    dict(sizes=(0, 50, 50)),
    dict(separation=math.nan),
    dict(separation=math.inf),
])
def test_invalid_params_rejected(bad):
    with pytest.raises(ValueError):
        small_split(**bad)


def test_missing_class_rejected():
    # extreme imbalance with a tiny validation split leaves it single-class
    with pytest.raises(ValueError, match="missing a class"):
        generate_gaussian_mixture(sizes=(36, 2, 2), d=2, positive_fraction=0.02,
                                  separation=6.0, seed=0)


def test_perturb_sigma_zero_is_identity():
    rng = np.random.default_rng(0)
    s = Subset(np.array([[1.0, -2.0]]), np.array([1]), np.array([0.9]))
    out = perturb(s, 0.0, rng)
    assert np.array_equal(out.x, s.x)
    assert out.x is not s.x
    assert out.g.tolist() == [1] and out.posterior.tolist() == [0.9]


def test_perturb_negative_sigma_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        perturb(Subset(np.zeros((1, 2)), np.array([0]), np.array([0.5])), -0.1, rng)


def test_perturb_clt_mean_bound():
    # mean of 1e4 perturbations of a fixed point stays within 3*sigma/sqrt(n)
    rng = np.random.default_rng(13)
    base = Subset(np.array([[0.5, -1.5, 2.0]]), np.array([1]), np.array([0.8]))
    sigma = 0.3
    n = 10_000
    acc = np.zeros_like(base.x)
    for _ in range(n):
        acc += perturb(base, sigma, rng).x
    mean = acc / n
    bound = 3 * sigma / math.sqrt(n)
    assert np.all(np.abs(mean - base.x) < bound)


def test_scaler_range_and_clipping():
    train = np.array([[0.0, 10.0], [2.0, 30.0], [1.0, 20.0]])
    scaler = FeatureScaler().fit(train)
    out = scaler.transform(train)
    assert out.min() == 0.0 and out.max() == 1.0
    outside = scaler.transform(np.array([[-5.0, 100.0]]))
    assert np.array_equal(outside, np.array([[0.0, 1.0]]))


def test_scaler_degenerate_column():
    train = np.array([[3.0, 1.0], [3.0, 2.0]])
    out = FeatureScaler().fit_transform(train)
    assert np.all(out[:, 0] == 0.5)


def test_scaler_requires_fit():
    with pytest.raises(RuntimeError):
        FeatureScaler().transform(np.zeros((2, 2)))


def test_class_counts_sum():
    split = small_split()
    counts = split.class_counts()
    assert counts["train"][0] + counts["train"][1] == 200
    assert all(c > 0 for pair in counts.values() for c in pair)


def test_split_arrays_are_read_only():
    split = small_split()
    for part in (split.train, split.validation, split.test):
        assert part.x.shape == (len(part), 4) and part.g.dtype == np.int64
        for values in (part.x, part.g, part.posterior):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0
