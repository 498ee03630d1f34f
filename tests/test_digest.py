"""Pinned report digests: a small fixed suite must reproduce every report
CSV byte for byte.

The pins were taken before the VAE layers moved from the autodiff graph to
hand-written numpy backward passes, so this test shows that refactor changed
no byte of the reports. Any later change that moves a number must re-pin
here and say why. The pins hold for float64 numpy on x86-64; another BLAS
may round matrix products differently.
"""

import hashlib

from calibtrain.harness.config import ExperimentConfig
from calibtrain.harness.suite import run_suite

# all seven default strategies, one seed, two epochs, batch 25
DIGEST_CONFIG = dict(sizes=(400, 200, 200), epochs=2, seeds=[0], data_seed=0)

PINS = {
    "history/avuc_seed0.csv":
        "0614282e9bb6331dea9f886dac0a444d6bf9943e0f1ee2e7b216d4ce422c69d4",
    "history/baseline_seed0.csv":
        "cf8b488422305c62809842b76d78ec8ac2910bf3b34f14cbc2ec87c84dba0880",
    "history/confidence_weight_seed0.csv":
        "3a7fa7141d637268a973e97606f86108358052ba4e83b94a76d68ae45825ea9d",
    "history/mmce_seed0.csv":
        "e0251709f0ccdc65ded7fbc3da8b49dc4c5b24505e6aa24f7b74df1ccb3554f7",
    "history/paired_confidence_seed0.csv":
        "c01bd6d933e2ef5f14d9132349599a1d784a47bf39972915f8ada688db715c23",
    "history/probability_seed0.csv":
        "c08a3fa4c9299ee4e86636be772628a91460e70d11989814adde203fd007f902",
    "history/soft_ece_seed0.csv":
        "cfc7ce428851f2379aef22d7f782e7ff767ebf58debc80de10b615d4b871dc7f",
    "mcnemar_vs_baseline.csv":
        "ddf1b58a1a2500d948fc39e21798dba1e571a83e11784541e488861bb0c70fa7",
    "metrics_aleatoric.csv":
        "a2bd69da84248350a648612242961b84062b5f04222e80ebea4c0ec64bccc2fa",
    "metrics_epistemic.csv":
        "1dc3720b9050ec636a656247949967707d7ed850c8390afdb2e44e63be1cd14c",
    "metrics_softmax.csv":
        "59255346fdd361537820b6d32f26b8971988cbde4a1a153a557a99427819cb75",
    "reliability/avuc_adaptive.csv":
        "2dde711c6f678be69a93d385638a6fa32be4bd5274a544581108dd9672cef02f",
    "reliability/avuc_equal_width.csv":
        "61ea508694217f4a79a090a10102a108d710a000181a46a5e45b0e742cf75b64",
    "reliability/baseline_adaptive.csv":
        "3e27ab18e49d9039a709de49ef4788210b08291bbda5c637e591675e6499eb71",
    "reliability/baseline_equal_width.csv":
        "f9b35a2df65024e2f16d0bb0a4f2cfd938498507693893f7dd180db7563679a9",
    "reliability/confidence_weight_adaptive.csv":
        "50caa108f3fc1966c7c8b0d889841d7b5f3953314bdbad37173dc1e2e4258254",
    "reliability/confidence_weight_equal_width.csv":
        "f018b15672d611e55c5c6107e784ed9ae50fca6518f872b4710bc30ae25f182a",
    "reliability/mmce_adaptive.csv":
        "e5d9dab6ea9a04cf62c6e28318ad2edcf15bfcc9e646dafa243dad934f85eca3",
    "reliability/mmce_equal_width.csv":
        "41c8522d0fe894480d04bb19cec41f63dc0f68f75308d9efe3350c34230ffddb",
    "reliability/paired_confidence_adaptive.csv":
        "5385fa95fa7b62fdd661ca056ca11dab40c724c3ed622f8716cee991c9c79a3c",
    "reliability/paired_confidence_equal_width.csv":
        "f06c3db5d47fce2f90a49a6154bcd3158b8405db45b0ed8b73aefdbbf087819f",
    "reliability/probability_adaptive.csv":
        "e25182172e3b16dbac5267b747e6b8ec5b963269faec99c807d10c2b086bf0f0",
    "reliability/probability_equal_width.csv":
        "97358864be59d98280aa1cd779f3b78cb75c01b43db8c56e7464d2e086b951ee",
    "reliability/soft_ece_adaptive.csv":
        "6db440e8d54bce7ff8f86844aeecb39f58a74544bc567f700f468a3130da91e6",
    "reliability/soft_ece_equal_width.csv":
        "a7fd45870cf6e6a55f8a973ebe69396d0d41d0ff5941eb11769137bb0d6b5dcd",
    "selection_comparison.csv":
        "9efc862ff8682dee72b637c6cf25449a0de049683b6d504c04bc03cddda2227f",
}


def test_report_csvs_match_pins(tmp_path):
    result = run_suite(ExperimentConfig(out_dir=str(tmp_path / "run"), **DIGEST_CONFIG))
    assert result.ok
    got = {str(p.relative_to(result.out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(result.out_dir.rglob("*.csv"))}
    assert got == PINS
