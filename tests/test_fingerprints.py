"""Pinned per-seed trajectories.

Each case hashes what one seeded run leaves behind: the 100-point trace,
the best PE, the bytes of the best solution, the evaluation count, the final
population size and the final buffer. Any change to the random stream, to
the reaction logic or to the bookkeeping changes a hash, so a refactor that
keeps every hash keeps every result bit for bit.

The non-default configurations make the branches that rarely fire at
default settings run often: variable-population reactions in each ACRO
variant (so every synthesis operator and boundary rule runs), the canonical
decomposition trigger, and the CRO/D step decay. At default settings no
ACRO synthesis happens in 3000 evaluations, which is why ACRO/BB's default
hashes equal ACRO/BP's.
"""

import hashlib
import struct

import numpy as np
import pytest

from croopt.algorithms import (
    ACROConfig,
    CROConfig,
    VARIANT_ORDER,
    Variant,
    default_config,
    run_acro,
    run_cro,
)
from croopt.benchmarks import as_objective, make_instance

DIM = 10
MAX_FES = 3_000

CASES = {
    f"{variant.value}-{func}-s{seed}": (func, seed, default_config(variant, MAX_FES))
    for variant in VARIANT_ORDER
    for func in ("f1", "f16")
    for seed in (1, 2)
}
for variant in (Variant.ACRO_BP, Variant.ACRO_HP, Variant.ACRO_BB):
    CASES[f"{variant.value}-change_rate=0.05"] = (
        "f16", 1, ACROConfig(variant=variant, change_rate=0.05, max_fes=MAX_FES)
    )
CASES["CRO/BP-dec_thres=50"] = ("f16", 1, CROConfig(dec_thres=50, max_fes=MAX_FES))
CASES["CRO/D-adapt_interval=10"] = (
    "f16", 1, CROConfig(variant=Variant.CRO_D, adapt_interval=10, max_fes=MAX_FES)
)

EXPECTED = {
    "ACRO/BB-change_rate=0.05": "a80c38795de7e4c2c4acdc39f84ec6247e7af33c402279443b7bca7e7d5d0ff8",
    "ACRO/BB-f1-s1": "844e0157493d5be51b64e0d18ce7cd4111bf73ba4aed7351c9508c791c3952ea",
    "ACRO/BB-f1-s2": "95ead83d59d35e37ecb04110fa184346d17e0edd069df30ac6f56f19b8ac38fe",
    "ACRO/BB-f16-s1": "5560c909c60fddb1c4ab49270abba9464fb9164fa8deadcc8333e7a2a7057b0d",
    "ACRO/BB-f16-s2": "5911f9d60ef62696f3a17a0c98b5401842230124d0c6bfdfa3ea41594dab6107",
    "ACRO/BP-change_rate=0.05": "c4151a4e4cd55219dfc5b4300158b9a35747839ef2018863cd43c3aa9fd6ccf4",
    "ACRO/BP-f1-s1": "844e0157493d5be51b64e0d18ce7cd4111bf73ba4aed7351c9508c791c3952ea",
    "ACRO/BP-f1-s2": "95ead83d59d35e37ecb04110fa184346d17e0edd069df30ac6f56f19b8ac38fe",
    "ACRO/BP-f16-s1": "5560c909c60fddb1c4ab49270abba9464fb9164fa8deadcc8333e7a2a7057b0d",
    "ACRO/BP-f16-s2": "5911f9d60ef62696f3a17a0c98b5401842230124d0c6bfdfa3ea41594dab6107",
    "ACRO/HP-change_rate=0.05": "d0ff87e93d2483aabe1db6a0b16e04d30a78d14a8ea39cb0619e0118681453da",
    "ACRO/HP-f1-s1": "4482760f35e32ed5c36734f0fbc9241e7e35aeedcb78313473f543eacf80ee13",
    "ACRO/HP-f1-s2": "956955ad9cabea5a66f386d99b36e4bfceef7a733e75cd2bb505deb392d30c93",
    "ACRO/HP-f16-s1": "8acf7685b58bd75880cf459149201fed83eccd8e527fca9656d20c3c8f94d7db",
    "ACRO/HP-f16-s2": "5065598b054457cfdbaa0ad5871863964c323d76930a19ba4eb1dadb6d220ccc",
    "CRO/BB-f1-s1": "2571599afc83d4d7e922547f2259f579466da0b0fc0fc49d51575970578ac2d3",
    "CRO/BB-f1-s2": "e1481d6d38f17bcdcb05578eae4c8ac25095ecdbda72bcfb74496892ae6085be",
    "CRO/BB-f16-s1": "9e370365554cc52235364344ca1ac1f398803fe0fca43b86ab68ae6efc1b4f0b",
    "CRO/BB-f16-s2": "d62cc9f5ef7868654690d63390e91d8c5ea8404923daa1161da2d46f8b81bb92",
    "CRO/BP-dec_thres=50": "f2808c22dbede3c60b6f2d9a5b22a1fce44f6dccb8360a4e5f3946a401113b1d",
    "CRO/BP-f1-s1": "e3a8331dabe79cd9c3704b664a9eefe535f1ba8a9c15cb0e53e50eba66459b68",
    "CRO/BP-f1-s2": "9f8aa47aceb36d83a87af2748046d6ba57d04a76ee0f61dfecd13386ed281aab",
    "CRO/BP-f16-s1": "cf2779015cc4831764861e680ccb9f2c81671f4aec25fbdfe22289ba60d14301",
    "CRO/BP-f16-s2": "dd38d773b0bd9e40c9da23b11f8c16d04352e315019dbfc135d366097ae2e097",
    "CRO/D-adapt_interval=10": "e8afa34c107f2224744cbbaf9ef86b9e1a89d87fd76ad015bceac6e1cf20bd92",
    "CRO/D-f1-s1": "d3d3c5713525157ae5acb5d3fb8fa26d07cb1e23667e2c3dc4ca5afda9d86e2b",
    "CRO/D-f1-s2": "0440488ceaaef8b476585013387ccd9b043d2a263b35c1379d69b3b04dfd94e4",
    "CRO/D-f16-s1": "4e01dfb60f0011b373d995952568448f7de7aff5b343764f20308113b196bd53",
    "CRO/D-f16-s2": "0acd6b135418c0d39d862c8befa501df853bf8b757de972823d244ff0405d424",
    "CRO/HP-f1-s1": "168ba62a3e512c0a7b0e67ec95f8bd2eb608dcdbfd6f2e382cf856d4d7aa5923",
    "CRO/HP-f1-s2": "8fb609fc8c0b06433da9ab238215b94398185ea31f8741f2fd52d4a480690b8b",
    "CRO/HP-f16-s1": "131db4b52ee07dc66e5e8e1725fa5089d3c0d09f75084c4c37eb25f6695b6834",
    "CRO/HP-f16-s2": "3e9d870650c490fd93e5d81342d04d2de00a34428855cfe9d5d0667195ad3fec",
}


def fingerprint(result):
    digest = hashlib.sha256()
    for fe, best in result.trace:
        digest.update(struct.pack("<qd", fe, best))
    digest.update(struct.pack("<d", result.best_pe))
    digest.update(np.asarray(result.best_solution, dtype="<f8").tobytes())
    digest.update(struct.pack(
        "<qqd", result.fe_count, len(result.state.population), result.state.buffer
    ))
    return digest.hexdigest()


def run_case(func, seed, cfg):
    runner = run_acro if cfg.variant.adaptive else run_cro
    spec = as_objective(make_instance(func, DIM))
    return runner(spec, cfg, np.random.default_rng(seed))


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_fingerprint(case):
    result = run_case(*CASES[case])
    assert len(result.trace) == 100
    assert fingerprint(result) == EXPECTED[case]
