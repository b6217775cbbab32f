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
    Variant,
    default_config,
    run_acro,
    run_cro,
)
from croopt.benchmarks import FUNCTION_TABLE, as_objective, make_instance

DIM = 10
MAX_FES = 3_000

CASES = {
    f"{variant.value}-{func}-s{seed}": (func, seed, default_config(variant, MAX_FES))
    for variant in Variant
    for func in ("f1", "f16")
    for seed in (1, 2)
}
for variant in (Variant.ACRO_BP, Variant.ACRO_HP, Variant.ACRO_BB):
    CASES[f"{variant.value}-change_rate=0.05"] = (
        "f16", 1, ACROConfig(variant=variant, change_rate=0.05, max_fes=MAX_FES)
    )
# The other 22 functions, once each, so every base formula and transform is
# pinned for both families.
for variant in (Variant.ACRO_BP, Variant.CRO_BP):
    for fdef in FUNCTION_TABLE:
        if fdef.id not in (1, 16):
            CASES[f"{variant.value}-f{fdef.id}-s1"] = (
                f"f{fdef.id}", 1, default_config(variant, MAX_FES)
            )
# D=1: every element and every molecule index comes from a one-value range
# once the population is down to one molecule (CRO/BP ends with one here).
for variant in (Variant.ACRO_BP, Variant.CRO_BP):
    CASES[f"{variant.value}-f1-d1-s1"] = ("f1", 1, default_config(variant, MAX_FES), 1)
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
    "ACRO/BP-f1-d1-s1": "cc239c0b2908f4cbe694f913aee595353faa1b5da745da16908d2c969f8a3dc4",
    "ACRO/BP-f1-s1": "844e0157493d5be51b64e0d18ce7cd4111bf73ba4aed7351c9508c791c3952ea",
    "ACRO/BP-f1-s2": "95ead83d59d35e37ecb04110fa184346d17e0edd069df30ac6f56f19b8ac38fe",
    "ACRO/BP-f10-s1": "ffb354006f6ff449c238676a8bc986c88f350201ec9f1562c7af1d21cfd80de1",
    "ACRO/BP-f11-s1": "3ae0f1137fa18f7db69e4b1bb60bc0dca740d4866bf0214ce816470bd29f7659",
    "ACRO/BP-f12-s1": "084c9ff402734ba68b05e284593b0d7ff1b285e30acb87ad16bafa4b478fefbe",
    "ACRO/BP-f13-s1": "47c7398e82338e899b42373f8da097f3b7ea73bcbf3ce35719b750029a8da9e6",
    "ACRO/BP-f14-s1": "a71ce47d223425713faf500eec151565848ba1f1cc29b0f710491805f0396930",
    "ACRO/BP-f15-s1": "26c8788b8bf3145d3a1b7589053ad7f882b1d2d627ba05a23179b7bf5db9aa3a",
    "ACRO/BP-f16-s1": "5560c909c60fddb1c4ab49270abba9464fb9164fa8deadcc8333e7a2a7057b0d",
    "ACRO/BP-f16-s2": "5911f9d60ef62696f3a17a0c98b5401842230124d0c6bfdfa3ea41594dab6107",
    "ACRO/BP-f17-s1": "5b6aed42a6c241b17c12e316bac2adb64d3fdcaa936c1e30a16ff4e52d95008a",
    "ACRO/BP-f18-s1": "c4ff181217c6210bf91ac95607eac1931fd36398069a804ccafbe7e7282dbae2",
    "ACRO/BP-f19-s1": "e38add8995a34616d00db25ec5ac874926db28fab6df794c2ea9917ca5523d79",
    "ACRO/BP-f2-s1": "413ec20ceccaf06cf6d563ba8909fb792e7e9e9dbd2001370d7d116243c34750",
    "ACRO/BP-f20-s1": "846aba922d021731c68d0e6895b4973a8b4924ff7fae53da9e3fbdbb1f9e0250",
    "ACRO/BP-f21-s1": "32b5a1c3f915fc128047ebd8b6150b7470b4cca2360033ef2d523bab78e120e0",
    "ACRO/BP-f22-s1": "b3a3968fa5d956f63c55d613e009184adf2382710fe024aada5e03d24fd318df",
    "ACRO/BP-f23-s1": "cc74e55743bfb1ee7ad87ee0209d76b3e0fc17b693563a355d533aa2ab2cede8",
    "ACRO/BP-f24-s1": "d08cf6350fa30223b27fbfc3457b6ec962bb91d763c7c1315b4f7b625dad95c3",
    "ACRO/BP-f3-s1": "f382c189b8864feb141f8159f0870e3eb3dec72d8fbbba480a794ec4d0095a92",
    "ACRO/BP-f4-s1": "bd84aa01738df7b00b8524a491674bb34d06825608112edab5f6a028e2334ba7",
    "ACRO/BP-f5-s1": "6e61bec4e444f907acf241ad66a7409cdeb98c8bcfc6b742a9071f77cf167f5e",
    "ACRO/BP-f6-s1": "154d79900b960a0d076f543c1ea38be341835c45b95db907e766e0d6b839cebf",
    "ACRO/BP-f7-s1": "5ced7712250a8c6f9cd7fb28fb5332c122ca6d747cc401eb9f45a9cd90ef859c",
    "ACRO/BP-f8-s1": "4ce0e836c77b6f80b829ec96ca7a7aa0b75ad1eda23a432550a3f60008459d45",
    "ACRO/BP-f9-s1": "81141716e724fb6c956cb1f238f356b40d374cee89a639655021220f52c8467c",
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
    "CRO/BP-f1-d1-s1": "23b38cf15b1e6cde7f4a31d4852dd65f024653cd64f11e016246281b5b07affd",
    "CRO/BP-f1-s1": "e3a8331dabe79cd9c3704b664a9eefe535f1ba8a9c15cb0e53e50eba66459b68",
    "CRO/BP-f1-s2": "9f8aa47aceb36d83a87af2748046d6ba57d04a76ee0f61dfecd13386ed281aab",
    "CRO/BP-f10-s1": "dad3ba5904a7d14f5cb8610bca00be4037e22ee88c8a9c029ddc86950a6fe8c0",
    "CRO/BP-f11-s1": "a9fbeebafc03aaf1d82181457d9dacc7224476997492a7b45b4ea1549a540b1a",
    "CRO/BP-f12-s1": "e793e8d0d0f5624f3cacfced3ad5e4480341d72b0ca75803a4aeddb581367c36",
    "CRO/BP-f13-s1": "b632aace8f7b5dbf3f03872886e679886ad9b07c8c949b1843eae34eda257d51",
    "CRO/BP-f14-s1": "2695952f93a95c1fcdf178a47f761a34e3ece2184218df460b6db8a757c8c24a",
    "CRO/BP-f15-s1": "9ce10d6357e2455fc68d747d9e8c9c54b4c9733683b3f36f7326c39827c32219",
    "CRO/BP-f16-s1": "cf2779015cc4831764861e680ccb9f2c81671f4aec25fbdfe22289ba60d14301",
    "CRO/BP-f16-s2": "dd38d773b0bd9e40c9da23b11f8c16d04352e315019dbfc135d366097ae2e097",
    "CRO/BP-f17-s1": "6fc7bb4c4becac0902a7a61fb5e1c9a1a4b8d6f212b5696ea0d3a0a2d81c0ecd",
    "CRO/BP-f18-s1": "4797485d959539409862ca12546a2439068293a8190e086492dc926d4abd0b99",
    "CRO/BP-f19-s1": "e889dc5763cbc4cd500f775756217d736c1bcaedb4c316b6a464f8a1311e62e0",
    "CRO/BP-f2-s1": "35e7477dc08bec1b29c61889b951888c3ee1860dea0ad5df734675a7669497d2",
    "CRO/BP-f20-s1": "97b1fbbfbad21a902b596a230d42159ca5b7af14341b66332fe694d48fdbf316",
    "CRO/BP-f21-s1": "70f317b47224591cc5ff14b820943ba4e2d7784a0a610f8fc466c1cd8f5a27d4",
    "CRO/BP-f22-s1": "8b55d0b7461ae3463e535e1cd8857419ca155757dc39f25d5f2aa3ca2a24b7bb",
    "CRO/BP-f23-s1": "704f25ef1e92620811fee26ebe6e9bdafa6fad1bb7f4b7dfa5ed2fa646dbce2a",
    "CRO/BP-f24-s1": "31bb6fc29067fe329324de3f61fe931f7e3ee803b38e2faf763948d3f3429636",
    "CRO/BP-f3-s1": "3f1a4456f91b3561a7970dd6abbaa39d5bd0ece6e402b49352506a91cb889700",
    "CRO/BP-f4-s1": "c1f4ccc8fb97598fb0e512f87833f2d7dfdc1c16204872bb3763790c475b36bf",
    "CRO/BP-f5-s1": "0000ce4b9181f4bfe4838a89f0bd14ac7b50adfb8d82569143af650fb3034808",
    "CRO/BP-f6-s1": "21802a292a948254077a027c657bac5f07f6e80f41239cf3c9610b3b78f0faa8",
    "CRO/BP-f7-s1": "2554af2e48991abae65a5c76540c72bfcb614b1dd048ccb08109ecff91fadd5c",
    "CRO/BP-f8-s1": "dc04c93056ffd5b8151fa4d38377cb9a96e4ee2c8ef62581947e3e0efc9240a3",
    "CRO/BP-f9-s1": "fe1460dc94a07b60b2ed45706a2b74f6ad7f502a65ac8960659d27e18c86d4b0",
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


def run_case(func, seed, cfg, dim=DIM):
    runner = run_acro if cfg.variant.adaptive else run_cro
    spec = as_objective(make_instance(func, dim))
    return runner(spec, cfg, np.random.default_rng(seed))


@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_fingerprint(case):
    result = run_case(*CASES[case])
    assert len(result.trace) == 100
    assert fingerprint(result) == EXPECTED[case]
