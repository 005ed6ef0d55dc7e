"""Frozen reports: every CLI command on a fixed corpus, byte for byte.

Each case runs `coxloops.cli.main` in-process on one input read from
standard input, and its digest is the sha256 of the exit code, standard
output and standard error.  The digests were taken before the commands were
composed from shared blocks, so they pin that every report, check order,
skip note and error message stayed the same.  The same cases run once more
under `python -O`, all in one interpreter, and must give the same digests:
no check may depend on `assert`.  The `aut` digests on D4 and B4 were taken
while `Aut` was still listed element by element; B4 runs only with
`-m slow`.  The `loop` digests on H3, A4 (loop order 240, the whole Moufang
suite) and on a non-Moufang table of order 96 were taken while the cubic
sweeps still composed one pair (x, y) at a time.  The `group` digests on
F4, D5 and (with `-m slow`) B5 were taken while `group` still read the
element statistics from W's dense product table, and those on H4 and E6
(`-m slow`, orders 14400 and 51840) while W's regular action was still a
row-major coset table with a stored word per element.  The `SKIPS`
digests were taken while the CLI still decided each skip in its own helper, except
`verify Q8 --budget 1`, taken when `verify` on a table began to report the
theorem block that the triples gate skips.  The `amalgams` digests on a
seeded diagram of 24 edges were taken while the classification still
walked its 2^32 edge assignments depth first.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest

from coxloops import cli
from coxloops.coxeter import diagram_b, enumerate_group
from coxloops.groups import dihedral, klein4, quaternion
from coxloops.loops import chein_loop


def _cox(rank, edges):
    return "\n".join(["coxeter v1", f"rank {rank}"] + [f"edge {i} {j} {m}" for i, j, m in edges]) + "\n"


def _table(rows):
    return "\n".join([f"table v1 {len(rows)}"] + [" ".join(map(str, row)) for row in rows]) + "\n"


def _swap_intercalate(rows, a, c):
    """`rows` with one 2x2 subsquare swapped: rows a, b and columns c, d with
    a*c = b*d and a*d = b*c, for the least such b.  With a, c and d not the
    identity the result is still a loop, and rarely a Moufang one."""
    rows = [list(r) for r in rows]
    for b in range(1, len(rows)):
        d = rows[a].index(rows[b][c])
        if b != a and 0 != d != c and rows[b][d] == rows[a][c]:
            for r in (a, b):
                rows[r][c], rows[r][d] = rows[r][d], rows[r][c]
            return rows
    raise ValueError(f"no intercalate on row {a} and column {c}")


INPUTS = {
    "A2": _cox(2, [(1, 2, 3)]),
    "A3": _cox(3, [(1, 2, 3), (2, 3, 3)]),
    "B3": _cox(3, [(1, 2, 3), (2, 3, 4)]),
    "I2_8": _cox(2, [(1, 2, 8)]),
    "A1xB2": _cox(3, [(2, 3, 4)]),
    "affine_A2": _cox(3, [(1, 2, 3), (2, 3, 3), (1, 3, 3)]),
    "K4": _cox(4, [(i, j, 3) for i in range(1, 5) for j in range(i + 1, 5)]),
    "C4_4343": _cox(4, [(1, 2, 4), (2, 3, 3), (3, 4, 4), (1, 4, 3)]),
    "D6": _table(dihedral(6).product),
    "Q8": _table(quaternion().product),
    "klein": _table(klein4().product),
    "loop5": "table v1 5\n0 1 2 3 4\n1 0 3 4 2\n2 3 4 0 1\n3 4 1 2 0\n4 2 0 1 3\n",
    "graph": "graph v1\nvertices 7\nedge 1 2\nedge 2 3\nedge 1 3\nedge 3 4\nedge 4 5\nedge 5 3\nedge 5 6\n",
}

# inputs of the budget, cap and skip paths only
LIMIT_INPUTS = {
    "H4": _cox(4, [(1, 2, 5), (2, 3, 3), (3, 4, 3)]),
    "two_triangles": _cox(4, [(1, 2, 3), (1, 3, 3), (2, 3, 3), (2, 4, 3), (3, 4, 3)]),
    "K5": _cox(5, [(i, j, 3) for i in range(1, 6) for j in range(i + 1, 6)]),
    "D18": _table(dihedral(18).product),
    "inf_label": _cox(3, [(1, 2, 3), (2, 3, "inf")]),
}

# the `Aut` frontier: loop orders 384 (D4, in the default run) and 768
# (B4, marked slow); the sweep frontier: loop order 240 (H3 and A4), and
# the B3 double with one intercalate swapped, which fails m1-m3
FRONTIER_INPUTS = {
    "D4": _cox(4, [(1, 2, 3), (2, 3, 3), (2, 4, 3)]),
    "B4": _cox(4, [(1, 2, 3), (2, 3, 3), (3, 4, 4)]),
    "H3": _cox(3, [(1, 2, 5), (2, 3, 3)]),
    "A4": _cox(4, [(1, 2, 3), (2, 3, 3), (3, 4, 3)]),
    "B3_swapped": _table(_swap_intercalate(chein_loop(enumerate_group(diagram_b(3))).product, 1, 1)),
    "F4": _cox(4, [(1, 2, 3), (2, 3, 4), (3, 4, 3)]),
    "D5": _cox(5, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (3, 5, 3)]),
    "B5": _cox(5, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 4)]),
    "E6": _cox(6, [(1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (3, 6, 3)]),
    # `random_connected_graph(Random(1), 20, 24)` of benchmarks/corpus.py,
    # all labels 3: cycle rank 5, and 2^32 edge assignments
    "seeded_24": _cox(20, [
        (2, 18, 3), (18, 20, 3), (11, 12, 3), (12, 16, 3), (15, 16, 3), (6, 18, 3), (3, 13, 3),
        (5, 9, 3), (11, 14, 3), (8, 20, 3), (6, 12, 3), (7, 12, 3), (16, 18, 3), (8, 17, 3),
        (10, 15, 3), (8, 15, 3), (12, 17, 3), (8, 12, 3), (6, 10, 3), (4, 11, 3), (12, 19, 3),
        (12, 13, 3), (9, 17, 3), (1, 10, 3),
    ]),
}

# the whole Moufang suite at loop order 240, and on a failing table; the
# element statistics of W past the printed tables (F4 order 1152, D5 1920)
SWEEPS = [
    ("loop", "H3", "--budget", "20000000"),
    ("loop", "A4", "--budget", "20000000"),
    ("loop", "B3_swapped"),
    ("group", "F4"),
    ("group", "D5"),
]

# the classification frontier, past the default budget's gate
AMALGAM_FRONTIER = [("amalgams", "seeded_24", "--budget", "10000000000")]

COMMANDS = ("group", "loop", "aut", "cohomology", "amalgams", "verify")

# budget and cap paths: K4 and affine_A2 past the `Aut` search budget
# (exit 3), two triangles on both sides of the gauge-sweep budget (space
# 32), H4 past the default coset cap (exit 3), and the B3 loop behind the
# table budget (a skip, exit 0)
LIMITS = [
    ("amalgams", "K4", "--budget", "5"),
    ("amalgams", "affine_A2", "--budget", "7"),
    ("amalgams", "affine_A2", "--budget", "8"),
    ("amalgams", "two_triangles", "--budget", "31"),
    ("amalgams", "two_triangles", "--budget", "32"),
    ("group", "H4"),
    ("aut", "B3", "--budget", "1"),
]

# every skip path of the CLI: each gate of its table (triples on H3 and on
# the D6 and Q8 tables, table entries on B3, --cap on A3, and verify's
# desk-scale limits on the classes of K5 and the double of the order-36
# dihedral table), the double's gate in amalgams and verify, an infinite
# label, and --no-cross-check; the A2 pair sits on both sides of the
# triples gate
SKIPS = [
    ("loop", "H3"),
    ("loop", "B3", "--budget", "1"),
    ("group", "B3", "--budget", "1"),
    ("aut", "D6", "--budget", "1000"),
    ("amalgams", "A3", "--cap", "10"),
    ("amalgams", "B3", "--budget", "1000"),
    ("verify", "K5"),
    ("verify", "D18"),
    ("verify", "Q8", "--budget", "1"),
    ("verify", "A3", "--cap", "10"),
    ("verify", "B3", "--budget", "1000"),
    ("verify", "inf_label"),
    ("verify", "A2", "--no-cross-check"),
    ("verify", "graph", "--no-cross-check"),
    ("cohomology", "graph", "--no-cross-check"),
    ("loop", "A2", "--budget", "1728"),
    ("loop", "A2", "--budget", "1727"),
]

CASES = [
    case + flag
    for case in [(c, name) for c in COMMANDS for name in INPUTS] + LIMITS + SKIPS + [("aut", "D4")] + SWEEPS + AMALGAM_FRONTIER
    for flag in ((), ("--json",))
]


def run(case):
    """(exit code, standard output, standard error) of one case."""
    command, name, *flags = case
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO({**INPUTS, **LIMIT_INPUTS, **FRONTIER_INPUTS}[name].encode()))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "-", *flags])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def digest(case) -> str:
    blob = json.dumps(list(run(case)))
    return hashlib.sha256(blob.encode()).hexdigest()


def digests():
    return {" ".join(case): digest(case) for case in CASES}


GOLDEN = {
    "group A2": "924e02c763b06e99d8fd0befb3ba2d32967710b335ce94b7358018f7421d15cf",
    "group A2 --json": "b795a4e7b8f25c03bb41d41b9d7e937c22aa078591fbbfaeba738a4541594da4",
    "group A3": "8f7b9ef839fdc1621db83c5d440d755dcdf6405193155263413b1e6e1146aec6",
    "group A3 --json": "37c6dac187b94cf506bcc30e337e984985d7392b79c0ab89757e0998b139718e",
    "group B3": "e9fe0f973dede932c15308a22f14f1cf7d68377e481b4364cd80778b67bdb8e5",
    "group B3 --json": "75f8f022fa3b2d4150c8e1e7e25586bb131096a2788a9cfc88c73f659f99a139",
    "group I2_8": "2aa145f9c6ffaaf3adb21accb72780e9510d2281b0f91ebdea2b3f44b140b0f3",
    "group I2_8 --json": "43ce018e1740e8439670c9756e7fd2093409ad344a6ad22705c19199da508805",
    "group A1xB2": "eb203386db3e2913025da7697a49f865740ecb4f16bdc5664daa105ab1200600",
    "group A1xB2 --json": "54ff376382d4fadb48369f4439cbb96eae12c30ef6a7954881368d346e0c88a4",
    "group affine_A2": "1d63dd3a06dafb943fd859a1bc4349eeffe28407e54dc454e336ae3005204dc6",
    "group affine_A2 --json": "a94d85662c2948297a6f8493d2f5569f92e9e90163b22100bd51b27a2279f052",
    "group K4": "de64b900ffc276fab3d71576cf2d6487671892405ceb4df6798f515c51d667f6",
    "group K4 --json": "7a9129c3bd9e6a01e1cab99f5739244df567faba626e38e0e95cf820805ca9b4",
    "group C4_4343": "b4667151332d65b77cddf33530621aeea231d122d662ba75955bec8996cb110a",
    "group C4_4343 --json": "4407315e317c4f8fb4505657828dc7184d7342c7feb1291c33783c429e22aa1d",
    "group D6": "f20b232d07d371b3d8d92cc21f42fe6331ce10eb3b34a1755d39236d31b69181",
    "group D6 --json": "f16b9a6818b1439de597825c28b93b4bb47f7f13bfa0e89ff84975de77338c75",
    "group Q8": "4cc3d25ea0034215372537119a9e2d30a3a4309f439c894bc553d1489107332a",
    "group Q8 --json": "662f903cf75f2c85d8cefe010ce8c7546c1a0869e5622c8b7b452197e8d07e2d",
    "group klein": "e8a813eaeecad0ff5c36a37915c40ad90342ef4715b8fc10080ee56261130f2b",
    "group klein --json": "495da1a3c7b45bf0bf5d9665f6c3364b8ee8c1b65bea0320b81d3b97d58bcadd",
    "group loop5": "55d4d52087fef238c03a10630a1c6cd716853e9aafc00ff3819fc41e7458fc45",
    "group loop5 --json": "b89f4ce8e77386ea74b83784f97c05e33e94206347a099f16b6211b01a065e5a",
    "group graph": "4d05755b94ed16d05a6460610504719b74e0e6af3a1c06196ced8ee368dfc59b",
    "group graph --json": "4d05755b94ed16d05a6460610504719b74e0e6af3a1c06196ced8ee368dfc59b",
    "loop A2": "80a59d6e1d6b6864d60c130a8116c802e6f7bf4e4847db0d08b3cba68faa886b",
    "loop A2 --json": "b0305bfe94b7f59fc2136bb910c2285fbb83927e859688dc36ed3acf26f0fae3",
    "loop A3": "bfc33323f4fadb4044ab0366b8a495ff612877fd4f6e0c52dd3ce36e59f2d830",
    "loop A3 --json": "4ccc25c83b3ea5976700029a9343380a154748e890158f96bb1681fe6b521a71",
    "loop B3": "1d09ade353bf0c361a3a1179f9a0bd8aebd122fbed5e8f0e0437b16929938f31",
    "loop B3 --json": "3c6f80157414a62f653d02d52c439c72945dfbd1203b5d6bc976f6f93f940408",
    "loop I2_8": "68ccce325157db6c38e635c2405f802703fd3a2b834b573054e9762ed03772cd",
    "loop I2_8 --json": "a7379fa78f5dc4fd152077da837d5ef4eade8792d0f0dac66db4978346ae3ebf",
    "loop A1xB2": "f72e3c3a1476e5b95d04fd546aa1196a0a7d662440c9182f1d7e32374120cbf9",
    "loop A1xB2 --json": "42d569dce0918dfaf96b2806e5a4539447b548c915cf0947a6ad47a126ed39de",
    "loop affine_A2": "95b629ccfc018c7df372d815224df668f0aeb0639a86b69fe49221ceb3b12e13",
    "loop affine_A2 --json": "6eca27dbab40f4cb547224eff02a54e505f4cd5d5184a19d7f8b340bcf30a98e",
    "loop K4": "fa3c0d24a45a87613f785c487241af6d194611a3414eac4d3d062e290194bbc9",
    "loop K4 --json": "9b41dfc5aff2d427f8f5604a95bd33957ec22b801731984870d93e57135fd3dc",
    "loop C4_4343": "4dddc48cb9dd303ab5227140c329b597f2ddb03bc4f70e1d9e5b0cb2443b3888",
    "loop C4_4343 --json": "f1ec98ef5fd4286887c310a24f9e3c82cac6467b6693bfb4237b463da6326808",
    "loop D6": "a1818f17ba0ea0fd980332d5ca0c6e457acaca8860410c0924dde20b92bdb3cf",
    "loop D6 --json": "9a472cd67f4508cc14ebd8aba30d166e08a5e8f24b501cade8bad9900757b64b",
    "loop Q8": "8f1eee48a1bf679029ebcc665519a867edde3306a3e20edce26c2b80212bc2ad",
    "loop Q8 --json": "901a797b380c987982cca587f683f624412ca96c6788fb1cd3def93c6858bd35",
    "loop klein": "45babe0f86578418122900ce7ddd90a1a0631e7562c36a33de378db3d3cfaf12",
    "loop klein --json": "8302d7d2ad6e6164b924bbd87a13cc9084661db8ad19f15195e3c1cd86bc9539",
    "loop loop5": "c55474a52880eee851ebf79dc27480302a9cbe1731a28f893abddbaaae31d1cc",
    "loop loop5 --json": "4146062fbd9128ce8643d34f942126ffe7f2c698cd27069aed3b48e1cb66ff3a",
    "loop graph": "cd0a015bfbe36099cae50a1cf3fbb348b8ce4eace6e38de7391ccae4c62a8918",
    "loop graph --json": "cd0a015bfbe36099cae50a1cf3fbb348b8ce4eace6e38de7391ccae4c62a8918",
    "aut A2": "4c233363c115eee90bf4272b02a2e84b49930279d2bc5c703949658b4d7fb85c",
    "aut A2 --json": "c866d01995cb74a878c3d7f7a736b723cfe38bdc19e80f9a55eabf82f80cb2c6",
    "aut A3": "cb98dbdbb6071d8c1ae1337b2ea1a9c9610d155e2fcaaf0f795dde9197fecfca",
    "aut A3 --json": "77aa59e080595ec276716fe65d9099805940de6895b0ce3b320e82bce98d8590",
    "aut B3": "4104a647b9e8669f34993797bc3cc18051ee04a183bbbccc3310af896ca6992b",
    "aut B3 --json": "bd54b25f3621b401779da55d96e7398e44ce00a7e8e4b95f78f956441b411c40",
    "aut I2_8": "53f547203f72c51d2d99bf478b59606f43d856f1cbc61edceb901d1c144ef440",
    "aut I2_8 --json": "472878ca5476f67e1cdbbd26e85cd1c3709362e00a6a2cd4a28ebede922e1b38",
    "aut A1xB2": "63e85856deb973444dcf082458ee1ba8502b5aec36609de1a8c8a6a05a3b4dda",
    "aut A1xB2 --json": "b6bcd824b91afed9f713cf7a0573eae89de9ff4636ffb1ef6a2b469ab5d04e1b",
    "aut affine_A2": "dc6220d7867edc7174ab1b8f580c6bcb5dcf189a27d16c6f978054195674c0c2",
    "aut affine_A2 --json": "28404251f5a3b6cabfa814da9c58248d8728a8f4ae5ee8bc4f48e22e600be7cc",
    "aut K4": "76efffebac9a1d5167cfeb2f0635a58e53277828a975c99f2e26a6e06aed5844",
    "aut K4 --json": "4931188fd9e01adf321a13a6aa8c019f8122f244058303cc091c31b17a758a7c",
    "aut C4_4343": "3af0b837096d65994234078ae39991f449e7d951ea4acc0be46c3f83147d169a",
    "aut C4_4343 --json": "bef0e7845184f6bf09968cec08677b8d4db51f5f16120d4a527b029eeb2979c8",
    "aut D6": "160fc0e36417df01b8971b3285e16fe639f62e329627b352656b28a9a256c48d",
    "aut D6 --json": "59fb8415cec051b6a323f9a61f11156ab9b00776b50de9529aeb30e9b2f5a18b",
    "aut Q8": "0a5d78a8b0b5a2b1f1a3255124e2bfdba52a53fb2823de73a5f0db94b5f594fa",
    "aut Q8 --json": "1275a80a24e36d003d1346ab3591b2a99fc719c2a43814f34191eeee4c7e0fca",
    "aut klein": "3795061ffa72cae879dc0cb251bfc1d64b9be0bdf375d5f73d3f616026353051",
    "aut klein --json": "050ffc27a3466a525b660fa49ede167a78b7bd719017b96542dce826170ddaf8",
    "aut loop5": "c2ef2ea48581dce1ee4dc96dd3cc2ae36e0019e1bf9878e2f432ee7a6133f86e",
    "aut loop5 --json": "dd05d717e7f8df4daba7fbca71873b26e4ba1b17b557a770eeb7c8f8e3cb579f",
    "aut graph": "19b43b346135d55527d1c8651b3422ee7ad7a80266bcde08e2558a2a68f5e0e8",
    "aut graph --json": "19b43b346135d55527d1c8651b3422ee7ad7a80266bcde08e2558a2a68f5e0e8",
    "cohomology A2": "10274c86c11b9a1dc6a12ae36482f97c0afc523171e3a977c3626ac997d026aa",
    "cohomology A2 --json": "583509c01137aa7ae6ff874837b22a235a1a87bd37ab5eb0b8813214ca784542",
    "cohomology A3": "2ad387d98cefe6ad0523ea738e24370385a60636f6fd4a2ca3f2a14c4df5651f",
    "cohomology A3 --json": "f878725209c4b56fa16f28bec476f10b1abfbb5ec6c9ad9bd4cf1bd3a8514c5e",
    "cohomology B3": "2ad387d98cefe6ad0523ea738e24370385a60636f6fd4a2ca3f2a14c4df5651f",
    "cohomology B3 --json": "85ca7378cda8a44829519f194cf75a85718d6a2b456c9b27548c30eb593e6663",
    "cohomology I2_8": "10274c86c11b9a1dc6a12ae36482f97c0afc523171e3a977c3626ac997d026aa",
    "cohomology I2_8 --json": "f14952822c21a0170735726918311042500e35ba3ec6a28d56f902ddc2d92343",
    "cohomology A1xB2": "cdb8080b5b7836fb2538c59fb517343d01c59b5faf2b2f3c4171f31e6bf4d411",
    "cohomology A1xB2 --json": "b207271da6da19963413e1621b721e9119c893c500b3e6b48ad4fc6721857685",
    "cohomology affine_A2": "01547cbca6e8929239fe1061c8e950750d0ce6ebd9580b04c25258abe748a77c",
    "cohomology affine_A2 --json": "f15ed2b42442268e283654ad1877b566673d3436301d3a6b8027e81a80ddbe99",
    "cohomology K4": "bdc7b1e5d12c97f502fa01a4dfaef09ed8c5d982661ecaaa90106a8bc21f399d",
    "cohomology K4 --json": "4fcf6852928f1e3ead76bdcc2cb10741b3c17e7aef6e470a7abb797dc2e1748d",
    "cohomology C4_4343": "0fcef6c3d5cddf52e03ba21d49dd5a3a1f8eaa2540d798dc5af47575b164a03c",
    "cohomology C4_4343 --json": "051b51e69012bae980738a0f8447fd92f0c8a159b1fe3f2c132bbdb8ac425c3d",
    "cohomology D6": "655cb0bc1fdf3026642d067774ec44984c27ead3d686c2669ea757ddc79eedf3",
    "cohomology D6 --json": "655cb0bc1fdf3026642d067774ec44984c27ead3d686c2669ea757ddc79eedf3",
    "cohomology Q8": "655cb0bc1fdf3026642d067774ec44984c27ead3d686c2669ea757ddc79eedf3",
    "cohomology Q8 --json": "655cb0bc1fdf3026642d067774ec44984c27ead3d686c2669ea757ddc79eedf3",
    "cohomology klein": "655cb0bc1fdf3026642d067774ec44984c27ead3d686c2669ea757ddc79eedf3",
    "cohomology klein --json": "655cb0bc1fdf3026642d067774ec44984c27ead3d686c2669ea757ddc79eedf3",
    "cohomology loop5": "655cb0bc1fdf3026642d067774ec44984c27ead3d686c2669ea757ddc79eedf3",
    "cohomology loop5 --json": "655cb0bc1fdf3026642d067774ec44984c27ead3d686c2669ea757ddc79eedf3",
    "cohomology graph": "70e3f7239061dc57dde772f6090f47d2d626759f60cf66587090e35abcfe4c03",
    "cohomology graph --json": "f2057eedb25bbf631b010173042c4998f6a56ed5045fbe65e41b0026a9ab4af9",
    "amalgams A2": "be8115a503897845115fd960de14d4447d84e7157be2493d9badd6f97a08dbdd",
    "amalgams A2 --json": "0999d1a737ed5a5618c46e66dca8cf14e72bab9ceba7a3ee1b5b055b00ef8312",
    "amalgams A3": "e6ae4bc3135d98a912fa6dd604c55a10091f11aead5b72bc31beb785347d2113",
    "amalgams A3 --json": "bf043c6134b17de1ee4f106831f5fcab8e88403f60ddb86a0630e55ba0bae8fa",
    "amalgams B3": "a30f3d621ceaadd5110d4a62862e62fa63dabe4fbbfbdee80164f52145d51b1b",
    "amalgams B3 --json": "36884ef67eb42e6b3a14a14e4298ca163004628879ac978f5acdcd949c36fd58",
    "amalgams I2_8": "a7b37d44c20eb1d413412db50250a265a558926b89b8de9e82cb9c11d77356bb",
    "amalgams I2_8 --json": "585f946bdcae46044601be701ab0990ac02448f37996a339aa26d147bfb75d90",
    "amalgams A1xB2": "6a6b34a79af9549f2cf15dbc075122820982a9af7d3ce8640b347230de62aa06",
    "amalgams A1xB2 --json": "6a6b34a79af9549f2cf15dbc075122820982a9af7d3ce8640b347230de62aa06",
    "amalgams affine_A2": "1a872036d6392fc6275e255a43a0de67e770e4225bcbfb993db009877bf7b9e0",
    "amalgams affine_A2 --json": "0d40986e3df3b0129acd9454504da6474cba0d3c2f0deee87e1e17e7251b0731",
    "amalgams K4": "d9654dc8289fdfdfef6198053e7fd410a62cfae394455fb77cf1805d24acaa1a",
    "amalgams K4 --json": "743c495b3d639507c8619fcbffbff52169e05c8e0b89c9cc3c0d2dd13bf9f7d0",
    "amalgams C4_4343": "a904a12217ba5e61f059b94094220184a1e0953763923b53f5f5f541a7a30f65",
    "amalgams C4_4343 --json": "e1c7c175c4d519890bc70b26094e0b77b83f9dd880783269e45c716ce057e69d",
    "amalgams D6": "8e9929e50f9b48bf777c638429e3e771b891632500ef8988a0f4b15b5c70a806",
    "amalgams D6 --json": "8e9929e50f9b48bf777c638429e3e771b891632500ef8988a0f4b15b5c70a806",
    "amalgams Q8": "8e9929e50f9b48bf777c638429e3e771b891632500ef8988a0f4b15b5c70a806",
    "amalgams Q8 --json": "8e9929e50f9b48bf777c638429e3e771b891632500ef8988a0f4b15b5c70a806",
    "amalgams klein": "8e9929e50f9b48bf777c638429e3e771b891632500ef8988a0f4b15b5c70a806",
    "amalgams klein --json": "8e9929e50f9b48bf777c638429e3e771b891632500ef8988a0f4b15b5c70a806",
    "amalgams loop5": "8e9929e50f9b48bf777c638429e3e771b891632500ef8988a0f4b15b5c70a806",
    "amalgams loop5 --json": "8e9929e50f9b48bf777c638429e3e771b891632500ef8988a0f4b15b5c70a806",
    "amalgams graph": "8e9929e50f9b48bf777c638429e3e771b891632500ef8988a0f4b15b5c70a806",
    "amalgams graph --json": "8e9929e50f9b48bf777c638429e3e771b891632500ef8988a0f4b15b5c70a806",
    "verify A2": "e201cce4581a101e85b8653c9fe3e6e4006ae4284a1426803aa96dae672799c1",
    "verify A2 --json": "74e8ee9d999f58360dfcc985a5b609c46da1845c8f9572ed635cd75ecf7422fb",
    "verify A3": "716fad9b1d10e38f6be73348d059c81018f8a6bdee94f029ac19fb905eae2b9b",
    "verify A3 --json": "d72c0867c47cc0c7e8a4d7e0742a7b295a4777d97a7b63b029ae877cab680929",
    "verify B3": "8eb8efbee27881e30ea14b0cf3641069fee77dca9ca72b5fe14a1dabfbb67c08",
    "verify B3 --json": "18c146bcfc5d49de93901463183d6b495c8fa72c15fe76396f5cdbb535a69755",
    "verify I2_8": "ffad1cd8abdc9770d1a42ddcab5c7779a78a9d9aa7b3241956313c27bf2a9ac9",
    "verify I2_8 --json": "c699556558e53b16c1d6abcd710184acb4c99afe9a891644c6ad1af4b64dd5c2",
    "verify A1xB2": "798ab082e7ad7609324983f7c6fcccf6b5b12be693080ccc55cf7d82505a19ed",
    "verify A1xB2 --json": "44c96112bc9853edfdc9a3c2e9ed04029232f28647708365140b898b8db7a7c8",
    "verify affine_A2": "c6ba625ce653f24c6242dc3632e29a13842204016b8e7b559d3b94aa348081ad",
    "verify affine_A2 --json": "b410c03fc2cb3397d8aab1b7816b420238e60aa38840c06ab5d4aac5e323a217",
    "verify K4": "aa3efe710000fe5117d3d4aa4bfb8feabf4329b09ea2ee6ab433027559724c90",
    "verify K4 --json": "426c0ad7f2923c4700fd679d63495dd9ec11a9fb5ab394ede55c368d0f6d1cf7",
    "verify C4_4343": "77f8f2ace39e52bb055c7f31bf21b544537b87576d778e84c92b2d0a79f043f5",
    "verify C4_4343 --json": "0a5346dd8685271c9e29418676fa1254ed6a55d78555411f886a82396a301614",
    "verify D6": "01428a5ed808eb1fbbc863fa1223e4bd62fcd913d5f669f1ca4d3ff38bab6f4b",
    "verify D6 --json": "f10a813e36848fee997641b0b74fe7406c20a449bdec01e168b8cbaa36b7eff5",
    "verify Q8": "c776990d82dd1769c95eff36d518d1603e806e763581e13b3b2357f482a8f7a1",
    "verify Q8 --json": "4cb8838f5d7f61f71fb93f6d43ce2135d5a064b0b4beb2d0143ff43e77b4198b",
    "verify klein": "e2262d50dbe55cec73196ffb47806329c691914fd98250e945f5e6ad0c8e90d7",
    "verify klein --json": "18f054822a7eaa2e06b55fe769eb88e00c77733b2e944d6be2f4dbd1456cb7f7",
    "verify loop5": "e0fe791e52de3c8ba4600db2cc4b371f871610d415cb7a17bf63eba5e618f43a",
    "verify loop5 --json": "a69bdfd6e638f7bf6b8c411ab12029d5b874fad91687a661c1aae50fcd0a0c4f",
    "verify graph": "4ebf68bf1b3c302f7a2f9fdcfd56fef232e58e5cccdff1ccf154a9c16b9ccfed",
    "verify graph --json": "789de40faf225a87f91f8b7c4179dbaa3eb64e4dbe4b762b149055fd1b354ac8",
    "amalgams K4 --budget 5": "318ebb6dddf8b639907a66bef82934095b5ecee0c31f0fd0b93e5a3c0f3c8b75",
    "amalgams K4 --budget 5 --json": "318ebb6dddf8b639907a66bef82934095b5ecee0c31f0fd0b93e5a3c0f3c8b75",
    "amalgams affine_A2 --budget 7": "359e3dcec0689de06428765f6788dcb365e9232219b6a702a2dc82aa9fa4f9d9",
    "amalgams affine_A2 --budget 7 --json": "359e3dcec0689de06428765f6788dcb365e9232219b6a702a2dc82aa9fa4f9d9",
    "amalgams affine_A2 --budget 8": "16d8acb261ee1779f7c4f5f0654acfe7d75065afb8bf9c311e58b210b3a3e464",
    "amalgams affine_A2 --budget 8 --json": "16d8acb261ee1779f7c4f5f0654acfe7d75065afb8bf9c311e58b210b3a3e464",
    "amalgams two_triangles --budget 31": "5a0de81d13ae96b2cf55e3cdf8a0b8455e436ad91603cbb78fed9eb4ece8e6fe",
    "amalgams two_triangles --budget 31 --json": "5a0de81d13ae96b2cf55e3cdf8a0b8455e436ad91603cbb78fed9eb4ece8e6fe",
    "amalgams two_triangles --budget 32": "2f71f6b46fba9ed8c6edf2e3420e273c1cd054a6850fd919dab5cfff322d95db",
    "amalgams two_triangles --budget 32 --json": "448335b7831a73aa9f1aac679745b77a73d95207e343387bd70dfa265355ff12",
    "group H4": "b9638cfd0f6282f0c1a441344234e1607e639d6f821394680e01d03de72ed93b",
    "group H4 --json": "b9638cfd0f6282f0c1a441344234e1607e639d6f821394680e01d03de72ed93b",
    "aut B3 --budget 1": "7ccf5a9bf2dc91cd53ba23f81d23f43033f9b559680cd0660c09b27deeedc4ba",
    "aut B3 --budget 1 --json": "5633d854b758ca0752d1a64bb9017529a1a45e0e881ff1aba4d108fe55d0766c",
    "loop H3": "486c1fd81e85fdcaeb92a0fe42addbdb13b71ba003340d234f5244a5704ce514",
    "loop H3 --json": "2ec61d7cc1737d9af0e32b3aad9488895dbbdd83f4f6ad832ed8b6fcb15dedfa",
    "loop B3 --budget 1": "390882658fe58f6d99a458f9337513078968282c92507cd2535ad2d51353f4c3",
    "loop B3 --budget 1 --json": "ae8c7bbcd3a69a52f156dc3cce36afbce0172a37a837b9ff4976855dcc1e0e50",
    "group B3 --budget 1": "37ea22c245e372ead2c4b598983dec755c9ec5c2cdff563e8caf4ef848f53d98",
    "group B3 --budget 1 --json": "19fcba2b74f9be33d89c6d7c943ad36617d233d8630db4cb3fc664532c17272e",
    "aut D6 --budget 1000": "ef02795601c9b7e1eb81c1c5095e63c18d2d3c2aeaa480feb627deff5bc199ce",
    "aut D6 --budget 1000 --json": "673b26a16d03a1d0841ea698f851b29a9e0978a8158b4605b1685c49c802442d",
    "amalgams A3 --cap 10": "6ae0ef41ea5cab3988800d35e16ea866d5d346e0c57fc9d8cc1891c12b4fbb73",
    "amalgams A3 --cap 10 --json": "0d39ff193689d1d2f7761237da27d753ca57d0133c86d7b8d985214caf66f896",
    "amalgams B3 --budget 1000": "575016c17fa3a8999d044afb495693f80458ce274f6e4c197ab73a11a576c0f8",
    "amalgams B3 --budget 1000 --json": "d9bc009dfc2d545ab6624eed7d83d839a9eeee17e2a0ddfd045ce136228d0a95",
    "verify K5": "75405082a87c6d7f0aee1848e754589d7ed53cbef4f8bc64f341742dc5f5ddb6",
    "verify K5 --json": "5661b6480f83487aa39557be71d9062a71408a38d1836b86fd0aca7bea90e22a",
    "verify D18": "be5909d2fda36219da2c3497dd96469cf9bcedd41357f2a7556f2b4984c29fcd",
    "verify D18 --json": "02d4c0e57b6c31464f8a70a5b18b85d83c952ec31d9d8e4815c125f208142e17",
    "verify Q8 --budget 1": "04efa53465f811ca9139a3c529d00bed69bd415e47e577c9410f13c734fb1af3",
    "verify Q8 --budget 1 --json": "0fe9f8f9013399459b16e782f97493e98c57da70c3734f106a75d91b9861b635",
    "verify A3 --cap 10": "532fef8363a8f364c3218b7fb5e8ae853a3a5f6b9aaf9631552ac20a90636278",
    "verify A3 --cap 10 --json": "2463276a29af118d52405b10ecdc712881603ef30cbb2ef746a5bfd4196833d8",
    "verify B3 --budget 1000": "de0a2f6e84bbb972ba325decb5288b663d571e30a82fd846091e80ff15ebf78c",
    "verify B3 --budget 1000 --json": "f61f8149dc97e330c05e48783e3688fd94fd06da2ca9c3b38860691579590e82",
    "verify inf_label": "e03876a18a74a1f555e8fa7347bd654a2326dabe3a2ad48421ad432e87019841",
    "verify inf_label --json": "fe0b1966329230c116beba5d9e6ecad3d173714c469900b02967fb2a2f859fb0",
    "verify A2 --no-cross-check": "cbe601fd08d366864f02e6961cd5bb452f5435f1ef955502ea602e24050f147a",
    "verify A2 --no-cross-check --json": "ad5ef0642d2900e9ddacabb69749585c2d7a3c99d8758f7aca85ab370cd8d793",
    "verify graph --no-cross-check": "5562eb8953bbfd9eb0baae5b28a86b09ebf6093e2150fd267276c1610b51a18d",
    "verify graph --no-cross-check --json": "5c01ab3196fa8b856ec3bc25ed83fa7cb0db366018e9b9f8ecc87892001e1c6d",
    "cohomology graph --no-cross-check": "bce40eb179be49b54347e0528201fc043e039dfe49891944a7714f992889319b",
    "cohomology graph --no-cross-check --json": "7141361e826689e941d455be382acf29c183a0aaca11f33f3351dde265a4d43e",
    "loop A2 --budget 1728": "80a59d6e1d6b6864d60c130a8116c802e6f7bf4e4847db0d08b3cba68faa886b",
    "loop A2 --budget 1728 --json": "1be1b0ce1c952d6c91e88a7f24adb5ae703b1229f225729caeb8ef14437a06ea",
    "loop A2 --budget 1727": "00e82c7c8ccb13e31ba229b98fc7a2c9d689825e64e0d9f37c3c86bf3fe9f6c2",
    "loop A2 --budget 1727 --json": "d6a2a7236e630d84877e8fa35abb68c0c078ea2e35cbcef36edb683ee402036e",
    "aut D4": "ace826d636692a5c6bd2db942867a8b93cae65e37a83e9d33864fed5097c54b7",
    "aut D4 --json": "582933669c9f767939b8979939f70f41f0c78796d040e34546d51d5827ee640f",
    "loop H3 --budget 20000000": "4b1121ad2b27a94f28d9e21938f4c67b1ecaad29d869e3f8cadbdbaf582a3f44",
    "loop H3 --budget 20000000 --json": "a2b280420c718e52ab15b726411068c20a5ef33d7766aff92c3479cc1941daf7",
    "loop A4 --budget 20000000": "79513d31cf5a519588eceaf3ec85b91d34db057b427bcb0c64d554f4bf66f965",
    "loop A4 --budget 20000000 --json": "efc68d94a1602c9f2aa67d86a596ae8c4c8d3339ee24bd436f220dedad9d1b0a",
    "loop B3_swapped": "7dfeeb29829d6c6825b4d6749120eceb9ce8e6cce4e6602b2536963da43e7e0e",
    "loop B3_swapped --json": "ab21c5e343cf73a5539cf1663f7fee8237bb06e77573b14e661d1e9ffc5839d2",
    "group F4": "5186fc903eeabaa5f15b1af0e2196c18c2f84154b1d5302d261272e5255b4748",
    "group F4 --json": "ce6614bbd9ac941fe903d345865ffa32447bde13639e3a32adb110b60cabf815",
    "group D5": "f5774368d84f28ada4e071e28b5416f3d5b5d0495e8f73405007a2ebfb878c69",
    "group D5 --json": "480ce6ee21a334fcc388e49030fb61c998d39b711bd8032d4f86ec39e4f75ed0",
    "amalgams seeded_24 --budget 10000000000": "85dcb6bc6f63019fad5b1021fb8e3ebe1687ca3ef7352faeaf86d66d9514afb7",
    "amalgams seeded_24 --budget 10000000000 --json": "09dc97038c20ee3a0d7fa2f1120e5a14a02968355755b5f3f1a8221dc480f909",
}

SLOW_GOLDEN = {
    "aut B4": "61cb284e09f87f128baf19e6cc31c3a526b6900f8ef6b67b1c0f5909419b8204",
    "aut B4 --json": "02ff74d62615e02c2a7cc8ae5ea2d37c0161eacb90ffbda2bdefd5d3aa4c23cd",
    "group B5 --budget 20000000": "34334c0f3285b0f54646be271315f9a29d37dfff4747472e197b5c7b1ed2052c",
    "group B5 --budget 20000000 --json": "d13bd3c2ffbc10a692e0b77091ceda3e0200d859dc07ea1ec003693ab32290f6",
    "group H4 --cap 20000 --budget 300000000": "60f801ccd8e596ed30f14ce398cdea52a34b18f96a2dea057976dae53efa6d7f",
    "group H4 --cap 20000 --budget 300000000 --json": "0a6301ddf6f22ce01dbc849e39d7b1559aa50b643170aa6566dc561596adb3cb",
    "group E6 --cap 60000 --budget 3000000000": "fb8d4e51ce423847be8b84edc674dbda9d5c41cd141cca91c81c1b9f88aa2da8",
    "group E6 --cap 60000 --budget 3000000000 --json": "4c3d7a0dea582af36a83d193e3ee9fde946d64023eb194156455134077c18c24",
}


def test_reports_match_frozen_digests():
    got = digests()
    assert sorted(got) == sorted(GOLDEN)
    assert [case for case in GOLDEN if got[case] != GOLDEN[case]] == []


def test_reports_are_identical_under_optimize():
    code = "\n".join([
        "import importlib.util, json",
        f"spec = importlib.util.spec_from_file_location('golden', {__file__!r})",
        "golden = importlib.util.module_from_spec(spec)",
        "spec.loader.exec_module(golden)",
        "print(json.dumps([__debug__, golden.digests()]))",
    ])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    debug, got = json.loads(proc.stdout)
    assert debug is False
    assert [case for case in GOLDEN if got[case] != GOLDEN[case]] == []


@pytest.mark.slow
def test_frontier_reports_match_frozen_digests():
    got = {case: digest(tuple(case.split())) for case in SLOW_GOLDEN}
    assert [case for case in SLOW_GOLDEN if got[case] != SLOW_GOLDEN[case]] == []


def test_every_gate_is_reached_and_every_limit_note_comes_from_the_gate_table(monkeypatch):
    # a gate added to the table without a golden case, or a skip note on a
    # limit decided outside the table, fails here
    gated = {}
    gate = cli._gate

    def recording(ctx, unit, n):
        note = gate(ctx, unit, n)
        if note is not None:
            gated[note] = unit
        return note

    monkeypatch.setattr(cli, "_gate", recording)
    skips = set()
    for case in (case for case in CASES if case[-1] == "--json"):
        _, out, _ = run(case)
        if out:
            skips.update(c["note"] for c in json.loads(out)["checks"] if c["status"] == "skip")
    assert set(gated.values()) == set(cli._GATES)
    limits = {note for note in skips if any(word in note for word in ("--budget", "--cap", "desk"))}
    assert limits and limits <= set(gated)
