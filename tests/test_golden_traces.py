"""Whole-trace golden digests for both machines.

Each entry pins the event count and the sha256 of the serialized trace that
``solve``, ``solve(strict_reduce=True)`` and ``palm_solve`` emit on a fixed
problem set.  A refactor of the rules, the state or the search drivers must
leave every emitted trace byte-identical.
"""

import hashlib
import random
from functools import cache
from pathlib import Path

import pytest

from gentra.formats import document_for_events, parse_problem, serialize_trace
from gentra.palm import palm_solve
from gentra.solver import Problem, SolveLimits, solve

from support import ladder, random_problem

FIXTURES = Path(__file__).parent / "fixtures"
LIMITS = SolveLimits(max_events=200_000, max_nodes=20_000)
RANDOM_SEED = 20261018


def problems() -> dict[str, Problem]:
    out = {"element": parse_problem((FIXTURES / "element.prob").read_text()),
           "ladder-4": ladder(4)}
    rng = random.Random(RANDOM_SEED)
    for i in range(20):
        out[f"random-{i:02d}"] = random_problem(rng)
    return out


# each run's dialect and solve result
RUNS = {
    "solve": lambda p: ("generic", solve(p, LIMITS)),
    "strict": lambda p: ("generic", solve(p, LIMITS, strict_reduce=True)),
    "palm": lambda p: ("palm", palm_solve(p, LIMITS)),
}


@cache
def emitted_text(name: str, run: str) -> tuple[int, str]:
    """The event count and serialized trace of one golden run, solved once."""
    dialect, result = RUNS[run](problems()[name])
    return len(result.events), serialize_trace(document_for_events(result.events, dialect=dialect))


def digest(name: str, run: str) -> tuple[int, str]:
    count, text = emitted_text(name, run)
    return count, hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    ("element", "solve"): (84, "fb900d073d67e792e169ce86f5a511f14b866d6cc1e84f182df20d127faa8ef1"),
    ("element", "strict"): (90, "6761012ff35efbb80a70ce32d8a351dfc62f8ed5936bb7e61f2718c2ea2417b8"),
    ("element", "palm"): (122, "f83ac3611fdaeae629f9c57403ac74cd83984505a264c6f640d0d5b929177470"),
    ("ladder-4", "solve"): (1086, "6e2983c0f026e687a094aa00f8d9893919c20d001aa21a35d372324501928ba5"),
    ("ladder-4", "strict"): (1152, "1d7ff5642097d86791adb2000e398adb430122d318816468718ed138deea3c1a"),
    ("ladder-4", "palm"): (1495, "9c7b698e2ecdcf1bffe6119305e26c4fab67ede809a895db86b7209e07b8007b"),
    ("random-00", "solve"): (43, "79ecf4c62fb8f528290172e46cdfb95ac9a64cf38263471f571c25ce707ccf92"),
    ("random-00", "strict"): (45, "5ba9e293842dba1f7ef119b5d99fcfb5b6f78b9c668c1b4a9ce4a43991a7cdfa"),
    ("random-00", "palm"): (39, "15aafc76f05442e2eb1ad81600ba7a08ddb98cf04febc79381875edf32db90cc"),
    ("random-01", "solve"): (5, "32d06079017069b6b5374833a9c1b9fb93d6ec68e0b8070e2dafde08bb10efd9"),
    ("random-01", "strict"): (5, "32d06079017069b6b5374833a9c1b9fb93d6ec68e0b8070e2dafde08bb10efd9"),
    ("random-01", "palm"): (6, "3238da49b41f4810a1f94b93a2914ab27b6dcdd5dd74b49480c554386039a44e"),
    ("random-02", "solve"): (5, "59ef2113a64db3c74a651c4562e7bbad881c03f1c4a3f0dd0d0eccfd1f46b185"),
    ("random-02", "strict"): (5, "59ef2113a64db3c74a651c4562e7bbad881c03f1c4a3f0dd0d0eccfd1f46b185"),
    ("random-02", "palm"): (6, "ca8ef9d2926f2fb830cd0f83c5f119545d189f082d03a406e1295b936d1e518c"),
    ("random-03", "solve"): (6654, "8ccc9ad46f89942d62942d1ebd2e1744110c41624cf260d12a9912c9f8f54209"),
    ("random-03", "strict"): (6942, "390d74561eda4c1b30b88986167f7f144d8f9d8248bd807c011166f68c537a3a"),
    ("random-03", "palm"): (3141, "c792e2192e9114ca7ce236ef875cd0279ad3a1cc6f9921a90c77080bf6babb4b"),
    ("random-04", "solve"): (6, "437876d2e1b6697f74310b24facfdec6f67c0d605de63dd9a71fe33ba5c5b493"),
    ("random-04", "strict"): (6, "437876d2e1b6697f74310b24facfdec6f67c0d605de63dd9a71fe33ba5c5b493"),
    ("random-04", "palm"): (33, "b0d956814c6a04bd49dda51bd986bd655ff43ba9a5c50934eb09894413259a61"),
    ("random-05", "solve"): (984, "22aba0dee9f34d5af423a12b341d3c10cdba6a41277201abf96765536d5af813"),
    ("random-05", "strict"): (1033, "34c646ea7863b98ea2338e6b66a1b277cccb510722b78747132295980b05248e"),
    ("random-05", "palm"): (399, "36a26744cd1de57d6d09ee50b1f785501d998848145e463911d96eca7dbe9977"),
    ("random-06", "solve"): (55, "7d3923907d6edadc833a46fe291203eb215602ac22e68f3ad0ac13916d02b46a"),
    ("random-06", "strict"): (58, "5c0c5fb388ef6bd39681c5d0dfdc84797422f077c472f3595c2caebe455df0ae"),
    ("random-06", "palm"): (23, "fa64f309c986e8824389d2c08fc598ab43e9560543ece71e6bc66443c644a55d"),
    ("random-07", "solve"): (25, "e4192f929c3c025fa0eea90a00e75faf55dd2da55b169b3db365f32a6eeee1b5"),
    ("random-07", "strict"): (26, "759d59b534fc9119e91f4c034655aa87ef4727cd15051a91fd1b0e17873bd253"),
    ("random-07", "palm"): (21, "1e0f42d99b622b42ea4653d478e0a65b48c1ca4e9db74e4515a33f71a0529719"),
    ("random-08", "solve"): (289, "c20077878df54d8947f6bb633b1ca2ca53d9be968b407d3d88c49bd106731e52"),
    ("random-08", "strict"): (305, "b7144083b714881236634c2c265c8ace0ccd9c7c759b219bde12b6763e34230c"),
    ("random-08", "palm"): (422, "432e2f5bf3923a340e83d8314a4298e634c77b77029ad38e710797109622b14a"),
    ("random-09", "solve"): (13, "fb5fe1ee610e2d54e7cef355003e415d897cb2a25200ca050ca95130b6f45ad6"),
    ("random-09", "strict"): (13, "fb5fe1ee610e2d54e7cef355003e415d897cb2a25200ca050ca95130b6f45ad6"),
    ("random-09", "palm"): (12, "88301086eeb06039ab617a8a40bf9286006381a2fbe049b1e4b6dce57ace8244"),
    ("random-10", "solve"): (133, "6a79a3e21f0f08d01e105ce67e7d765147e6325c5d1f19c35673b146751cbfde"),
    ("random-10", "strict"): (139, "71165009dae566dec24df13d781824d4c4cf19da478e9d44ddd40037f2f44053"),
    ("random-10", "palm"): (165, "80bf3e7a2b14816353a674779a5dbdeb1dc7c5b3a4da2c7762ae1e8cd927561e"),
    ("random-11", "solve"): (393, "8fea9dbdba0c2d815990e9dc0623191d1bd79f7a2a884072fa55a0b714c9348b"),
    ("random-11", "strict"): (413, "403c4043993ce25f6a42fe9a381852e0ebc29393afa80fa6f433723daf26c3a9"),
    ("random-11", "palm"): (513, "125b4ab559bd67e48cb3472ec3f62033f568df46e836676e3c77dd3bd80c20a0"),
    ("random-12", "solve"): (6, "1ef962678f34190f66100962c4c47800fbbb6599a47f3e13bbbf63fcc9b3864a"),
    ("random-12", "strict"): (6, "1ef962678f34190f66100962c4c47800fbbb6599a47f3e13bbbf63fcc9b3864a"),
    ("random-12", "palm"): (7, "02c7eeaab904cbeacf066c88646a73bc3d857881c6667f75829ec8ac860dfde3"),
    ("random-13", "solve"): (63, "fe1220b13928c3892fab1cecc4286354fb675c1a054d717a89d4b56d012c7644"),
    ("random-13", "strict"): (66, "b6843c698cefda8078e5273568ec0d1a99a7f10c015f8190502c79de73689df9"),
    ("random-13", "palm"): (57, "1665cf595e4f3dce3680ba2ab613601978fe73351b26f948b289ceaafda7d5cb"),
    ("random-14", "solve"): (5, "777c6114d8663dc0e255fdd55a0f462650fc03e755e8b71bf7b31bb5da83cec1"),
    ("random-14", "strict"): (5, "777c6114d8663dc0e255fdd55a0f462650fc03e755e8b71bf7b31bb5da83cec1"),
    ("random-14", "palm"): (6, "220081ed4d75b645c2c0ed6173d0865a0d23411dd6f0547293cd3efa7ce70aa7"),
    ("random-15", "solve"): (1400, "7fcdd1a06cba83d886961342e0d0131380324018d126a4842c228ef8268f9bff"),
    ("random-15", "strict"): (1474, "cd255eb1daac4c8e059812609a074c0a336866a0c72d04660590d9513dd86f95"),
    ("random-15", "palm"): (797, "3f04260e0a442a14e9ec5d20ce4e5c25c8bef9dd026f7354d7273f4fc7aeca9c"),
    ("random-16", "solve"): (66, "ca6a3c3f54e0653f11eb2d4313236e9a35159fa820f320f24e2a49f1c4a9f669"),
    ("random-16", "strict"): (69, "d18edb65499f18afd812fa42df4f39749c175eb583c7e92ca11e026f9ca38b96"),
    ("random-16", "palm"): (43, "4245d2ae7db278a3c316393e2c552a9c7c5a00f499de96828699493d089b10d0"),
    ("random-17", "solve"): (5, "3dadc07bf4752e621034cf4e618d1297c658978fe721b25f35811c91034b02a1"),
    ("random-17", "strict"): (5, "3dadc07bf4752e621034cf4e618d1297c658978fe721b25f35811c91034b02a1"),
    ("random-17", "palm"): (6, "df69ee7afe936774ee97f4547a30c089ecf2fc29a926c467ca54211844f2a2e0"),
    ("random-18", "solve"): (5080, "7bebf713c09d268aa3e97eaa9d1dc58de956dd769db79f9e13ef12971b20fde7"),
    ("random-18", "strict"): (5338, "fc259f3f576f946a69cd54f21263f78971014243fb9ea637597eee190077e4ff"),
    ("random-18", "palm"): (1991, "c6bf7de872d7c4269a5ac6c024e6c79933ba5b81656a5eb44d38f4c9660be1e6"),
    ("random-19", "solve"): (5, "9e66ed0b014a7151e9ccb493db98ddb0e03a7d434f1068ee9b5705df38ae10ce"),
    ("random-19", "strict"): (5, "9e66ed0b014a7151e9ccb493db98ddb0e03a7d434f1068ee9b5705df38ae10ce"),
    ("random-19", "palm"): (6, "c32e1566226a741cc8bc85148490ef89387fdf1fa06891015c735b8c51dcb029"),
}


def test_golden_table_covers_every_problem_and_run():
    assert set(GOLDEN) == {(name, run) for name in problems() for run in RUNS}


@pytest.mark.parametrize("name,run", sorted(GOLDEN))
def test_emitted_trace_matches_golden(name, run):
    assert digest(name, run) == GOLDEN[name, run]
