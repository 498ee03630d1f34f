"""Pinned report digests: four fixed suites must reproduce their reports
byte for byte.

The first pins were taken before the VAE layers moved from the autodiff
graph to hand-written numpy backward passes, so this test shows that
refactor changed no byte of the reports. The second set is the seed-0
reference suite of ``bench/README.md`` at the default sizes, copied from
there but for the two vote tables: its 2,000-row test split shows last-bit
changes that the small suite's 200 rows can miss, such as a Brier score
summed in another order.
The third trains AvUC alone past its warm-up, since the other two stop
before the threshold leaves 1.0. The fourth trains paired_confidence,
confidence_weight and mmce at batch 250, where a batch's training votes
span several chunks and the pair heads are 250 x 250; the other three
train at batch 25.
The first suite's manifest is pinned too: it names no path, so one digest
holds wherever the run is written.
Any later change that moves a number must re-pin here and say why. The pins
hold for float64 numpy on x86-64 with AVX-512: numpy's ``X86_V4`` loops and
OpenBLAS's ``SkylakeX`` kernels. Other kernels round some products and
transcendentals differently in the last bit, so a failing digest names the
dispatch that the process ran with.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np

from calibtrain.harness.config import DEFAULT_SUITE, ExperimentConfig
from calibtrain.harness.suite import run_suite
from calibtrain.harness.training import AVUC_WARMUP_EPOCHS

def dispatch() -> str:
    """The numpy and OpenBLAS kernels this process runs, for a failing pin.
    Both reads are guarded: the first is a private numpy name, and the second
    needs numpy's bundled OpenBLAS."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
        v4 = __cpu_features__["X86_V4"]
    except (ImportError, KeyError):
        v4 = "unknown"
    core = "unknown"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return (f"pinned under numpy X86_V4 loops and the OpenBLAS SkylakeX core; "
            f"this process has X86_V4 {v4} and the OpenBLAS {core} core")


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
        "05067683c24a0242a7029af37df48b4f40565ebf3f6cd720cc4c70cd28709043",
    "metrics_epistemic.csv":
        "367ccba7940cf1040cfac0186359638dfe604b9caf6a8b9ad013efd327475a7c",
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

# that run's manifest.json: its config (one learning rate, `lr`), cells and
# report list (the reliability SVGs included)
MANIFEST_PIN = "c4c330df7a51fe4228ab034c2ba209f8b2467c3fadda24628e46f43d1ececb93"


# the seed-0 suite of bench/README.md: default sizes, all seven default
# strategies, two seeds, two epochs
REFERENCE_CONFIG = dict(epochs=2, seeds=[0, 1], data_seed=0)

# every file of that run but manifest.json, whose digest in bench/README.md
# dates from when the manifest recorded the run's path.
# metrics_epistemic.csv and metrics_aleatoric.csv no longer equal the
# digests in bench/README.md: the test-time votes now read one stream per
# call, and that list is updated only together with the benchmark.
REFERENCE_PINS = {
    "history/avuc_seed0.csv":
        "2008d67152a5462025d0a2d62ad4ffc942fa569a07efb9b383bc8ba90d9e9a90",
    "history/avuc_seed1.csv":
        "abb6f01b84720c1a8ed3a3496dbcc06c91db1c22fb178c44c1531de60075958b",
    "history/baseline_seed0.csv":
        "d94db1b12139aab3ac631d736110ee3394eceeda5203f2688aa00a097dce9dd3",
    "history/baseline_seed1.csv":
        "df5fc23c6b54b0418f58a939ad010a3fff6803f199094d78a91f759abcf026ee",
    "history/confidence_weight_seed0.csv":
        "ec539a94f857e7778ad88922ebe718c650599c54000a575f5595370cb746d225",
    "history/confidence_weight_seed1.csv":
        "3ceb171cc165687c066ada3bf39dc1d249e7374437192a6cfe44dfb4cce12cfb",
    "history/mmce_seed0.csv":
        "b4fc5c1db0d7db4b4efd5dc28e0bc8b88b73bc465b03ce01c975d4e01202def6",
    "history/mmce_seed1.csv":
        "d60fe3b6b1cc6897aaa2514e6cb2fc08e1ff4fa988ea1fd35ca53709034cd9d6",
    "history/paired_confidence_seed0.csv":
        "db5376d6d87715136334f5ba0fa17f770a6b38d75f217b138d2d086c66c7a6fc",
    "history/paired_confidence_seed1.csv":
        "b0564a0cf5122c63a251d9c1ed0cd889ee58aca8bcfdb8559d4d493b26dfac94",
    "history/probability_seed0.csv":
        "6f0fa1ed4efd5c9d280e44ca9914eb0bea15aabda2943f57aceb1c27d96ded17",
    "history/probability_seed1.csv":
        "7291ec774a6f58b695cb6f2bc3cff6a9dc78cd668e241338ad7ae28a6859989d",
    "history/soft_ece_seed0.csv":
        "87795814a3bdeab3ba6415f1ff95e35d15011c5552b6664e072323fc027472fd",
    "history/soft_ece_seed1.csv":
        "493b104706ce47e6c17fc614e747c8f63da50f5e3c25077f705b7e5fe4628be4",
    "mcnemar_vs_baseline.csv":
        "0bd87123da20243410c38b25d291bc82be01536722e9419b46e28eef9bddce11",
    "metrics_aleatoric.csv":
        "7a052ca88a0068f6263060ec637ed5478bafb5226e4d690492fea019ad413c69",
    "metrics_epistemic.csv":
        "6ce784e69ef5a318bb090a2147089823f77de9c0267878208d27472e15c60af8",
    "metrics_softmax.csv":
        "cbe3a7ccad6fc478f8b1f7268b78752faba4afc6846520fe810ffea51edcfa92",
    "reliability/avuc_adaptive.csv":
        "88056ead474de80c6a5ca4835055b403e8727c8c7dbbd5e427680d97031887cf",
    "reliability/avuc_adaptive.svg":
        "1c08064918ec1ba329f746eaae11b46e8f0bea030182abf9f4f543f3dd5ded10",
    "reliability/avuc_equal_width.csv":
        "9650ae1f91716c67a28544955031452790515696e50719ec53b8b3a1ba587cc2",
    "reliability/avuc_equal_width.svg":
        "48d80622362061ccd17a876a3024b82594f614fae4bfd5e199cbb9daf13490fa",
    "reliability/baseline_adaptive.csv":
        "63b48ae36a84a3ce226330c2e71c2b4afdf39854a74887e6cc4429459b61e048",
    "reliability/baseline_adaptive.svg":
        "bf43d88662c53da0f583975c45abccd2a21e4ba592a5a807038ecbd5ec7a3255",
    "reliability/baseline_equal_width.csv":
        "e2d1871db34dcf1b032d721599657348b688db5c2e59d4490f5bec83384de7d8",
    "reliability/baseline_equal_width.svg":
        "bca2ef414d0b88759ef1c9fd20504653858cab3e8a4c3002927aed19ca83bb85",
    "reliability/confidence_weight_adaptive.csv":
        "5da3f94327307b24b894b4f4269bdfc120337504c78956f98c55db35c69defb9",
    "reliability/confidence_weight_adaptive.svg":
        "93a77186598e7b051d5c379fe955c049b8f9c091f4c740ecca8da85c4e583117",
    "reliability/confidence_weight_equal_width.csv":
        "9af9044db91a1f1c70fbc09785a8c5f79151126d30cbc38e1bfa224caa509ce7",
    "reliability/confidence_weight_equal_width.svg":
        "e5cd668fea0350e16ca34396742a56da3e75db301358c9eb1787f21dddf02bba",
    "reliability/mmce_adaptive.csv":
        "77a9e4de5907522d60fd84c4122049b999b8b2d9d94641b96bc94dfac790c00e",
    "reliability/mmce_adaptive.svg":
        "cb346d50ce3f37a509e6089d665270b562e33a47aa354e38434ec2e0466a1047",
    "reliability/mmce_equal_width.csv":
        "13d5da28d8f51de5318905aa8da7143149f4c041ffd10e458cfad67ae4681c4c",
    "reliability/mmce_equal_width.svg":
        "94409e2b0a0521a15ddeaa624252ba2c313d88677db4d7616c2fcbc1008639b0",
    "reliability/paired_confidence_adaptive.csv":
        "b82a6429bcdf6b4c6fbc803dfd90de766a463d7cc04d0472c008a16a852c43e2",
    "reliability/paired_confidence_adaptive.svg":
        "97a4455ba082160d4b75f03d95c300867190501232823e9a59afa7d07376808e",
    "reliability/paired_confidence_equal_width.csv":
        "c57d1980e8e32b6729b46a8f85bb386c00a72187393250d7252311c8c8e84776",
    "reliability/paired_confidence_equal_width.svg":
        "9fe14429e556fb2c9b778805d94d0ecac7bf2a2b7e7e0fc28ec3e78d8026908b",
    "reliability/probability_adaptive.csv":
        "774c9ce57df0b9cff1621c8db42ecbb44e001cd1063c17dd7a7047d8b471d23b",
    "reliability/probability_adaptive.svg":
        "dd5d45001dbc84caf9b90774e963fc9ee0f64327aa1b6d2bc9dca0d47957560c",
    "reliability/probability_equal_width.csv":
        "8ef1d638befbe4efe53bfd90414bb25a80ffbf8bde7c00c4acee932dace2ea16",
    "reliability/probability_equal_width.svg":
        "d13c7d6d534e5a4fa78933745d189b411a462a363b2de88541228f3d2734ed05",
    "reliability/soft_ece_adaptive.csv":
        "6c27817a0ab73d1cc933f6182205ae4293b3aa790feb0a29859e4f59924a9544",
    "reliability/soft_ece_adaptive.svg":
        "612b0491220ccf0e61b2b51a7dc5dbaefee152ab6db22ebea5e63a10b6a823ab",
    "reliability/soft_ece_equal_width.csv":
        "9e54930cac9c2a72ded5b686e3dea25cb0c9457910b7abc0375b4acb193300fc",
    "reliability/soft_ece_equal_width.svg":
        "920126103d64011d0ae1e18ee21a54c0cfd9fff82ffb8c58bfd6c8a4eb856167",
    "selection_comparison.csv":
        "42823fa52fbf22474afcb48856d6b74a3eca6f2412ba48fbd589a2d1d87af073",
}


# AvUC alone for two epochs past its warm-up (AVUC_WARMUP_EPOCHS = 3), the
# only pins that read the threshold training derives from accurate entropies;
# the train split is large enough that max-val-bacc selects a post-warm-up
# epoch, so the metric CSVs read the threshold too
AVUC_CONFIG = dict(sizes=(1200, 200, 200), epochs=5, seeds=[0], data_seed=0,
                   suite=[{"strategy": "avuc", "lambda_n": 0.2}])

# the run's history and metric CSVs
AVUC_PINS = {
    "history/avuc_seed0.csv":
        "fe72b03242ca66c7c04a592d7c6c3246ad1c41e5c276283e6e1e66c1d9afeb8e",
    "metrics_aleatoric.csv":
        "7f93046033839e38ec98722c43dba8156aab8165793255ce79ea7e018a8d3b59",
    "metrics_epistemic.csv":
        "14c7a6e944bfb7eb36b3cf03be4149ca73428428eb82d414f7451d250e265842",
    "metrics_softmax.csv":
        "f6f7f0c83dd3ded1e5a9e79da03fd71ee2d33d908f1f7b9eaf9d2521ea7cb2b4",
}


# confidence_weight, paired_confidence and mmce at batch 250: the training
# votes of a batch span ten VOTE_ROWS chunks (25 rows each at n = 20), and
# the pair heads are 250 x 250
LARGE_BATCH_CONFIG = dict(sizes=(1000, 200, 200), epochs=2, batch_size=250, seeds=[0],
                          data_seed=0,
                          suite=[dict(entry) for entry in DEFAULT_SUITE
                                 if entry["strategy"] in ("paired_confidence",
                                                          "confidence_weight", "mmce")])

LARGE_BATCH_PINS = {
    "history/confidence_weight_seed0.csv":
        "69e6b36f1f47d00dc784d7755d40bc7b23442320cc25074b2e97586abe8c304e",
    "history/mmce_seed0.csv":
        "1d96f47b59ea012725a7bf38d2b715a4a7ea09f780d05138789835cf8bc421ba",
    "history/paired_confidence_seed0.csv":
        "116eb7b29a977c53f07a2bc8876e6de13fd839e5e01bd6e2840bfa303a1f86d9",
    "metrics_aleatoric.csv":
        "8a5bbb4c21e2d286ef74601e7a35eaf915a03f27394da2905a82abcd68532ff6",
    "metrics_epistemic.csv":
        "57704a13245f223cece61203dffcaf0fc3aa38b4031593f776a4cedd4c1bc56e",
    "metrics_softmax.csv":
        "da4310231430c1ca8edc5975627887d6a15d50dc1b81ad8cb840fc4cc6212d69",
    "reliability/confidence_weight_adaptive.csv":
        "4ec4713d8aaf735688173d21a0a86dac9892a2ea60e82afaaab9947017f04fe3",
    "reliability/confidence_weight_equal_width.csv":
        "80cfe5c36bce9ca583ee24aeb370578a073e2b0f6f3e2f08001951382e512648",
    "reliability/mmce_adaptive.csv":
        "a1a3494782edaa1d4a4eee9702862134c2925f6d9912dd5f56a73708cb4205bc",
    "reliability/mmce_equal_width.csv":
        "d325b36e788946d2ecbff26b12e3efe6418df3b6fabf86bc84e6bc0cf845f9f3",
    "reliability/paired_confidence_adaptive.csv":
        "2b69ec4b51930455c897e217203441f9f85ec47d2d50fd10a12d9f430451efac",
    "reliability/paired_confidence_equal_width.csv":
        "358454bf3d34f39c0abd056875795b047ba7f22d197d5e75226dc1e02e4a27ea",
    "selection_comparison.csv":
        "3b0e32f881940b13077b6fefe3cb7215d7d194c52b88dda852625376be156f05",
}


def test_report_csvs_match_pins(tmp_path):
    out = tmp_path / "run"
    assert run_suite(ExperimentConfig(**DIGEST_CONFIG), out).ok
    got = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.rglob("*.csv"))}
    assert got == PINS, dispatch()
    # the manifest names no path, so one pin holds wherever the run is written
    assert hashlib.sha256((out / "manifest.json").read_bytes()).hexdigest() == MANIFEST_PIN, \
        dispatch()


def test_reference_suite_matches_bench_digests(tmp_path):
    out = tmp_path / "run"
    assert run_suite(ExperimentConfig(**REFERENCE_CONFIG), out).ok
    got = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.rglob("*"))
           if p.is_file() and p.name != "manifest.json"}
    assert got == REFERENCE_PINS, dispatch()


def test_avuc_past_warmup_matches_pins(tmp_path):
    out = tmp_path / "run"
    assert run_suite(ExperimentConfig(**AVUC_CONFIG), out).ok
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in AVUC_PINS}
    assert got == AVUC_PINS, dispatch()
    (cell,) = json.loads((out / "manifest.json").read_text())["cells"]
    assert cell["selected_epoch"]["max-val-bacc"] >= AVUC_WARMUP_EPOCHS


def test_large_batch_kernels_match_pins(tmp_path):
    out = tmp_path / "run"
    assert run_suite(ExperimentConfig(**LARGE_BATCH_CONFIG), out).ok
    got = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.rglob("*.csv"))}
    assert got == LARGE_BATCH_PINS, dispatch()
