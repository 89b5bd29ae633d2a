"""The exact bytes `construct` and `verify` write, pinned by SHA-256.

Every other CLI test reads the JSON back and compares values, so a
change in key order, number formatting or indentation would pass them.
Here each variant is built on a fixed corpus and verified, in process,
and the digest of each command's stdout must match the one recorded
here.  A deliberate format change updates the table.
"""

import hashlib

from intervalcubes.cli import main
from intervalcubes.generate import DISTRIBUTIONS

VARIANTS = {
    "best": ("--variant", "best", "--normalize"),
    "claw": ("--variant", "claw", "--trace"),
    "alpha": ("--variant", "alpha"),
}


def _edge_list(n, edges):
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


TEXTS = {
    "path12": _edge_list(12, [(i, i + 1) for i in range(11)]),
    "star5": _edge_list(6, [(0, i) for i in range(1, 6)]),
    "triangles": _edge_list(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
    "k4": _edge_list(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
    "points5": '{"intervals": ['
    + ", ".join(f'{{"id": {i}, "lo": "0", "hi": "1"}}' for i in range(5))
    + "]}",
}

# (input, variant) -> (construct stdout, verify stdout), both exit 0
DIGESTS = {
    ("uniform", "best"): (
        "42d7c43ed8ae7e757de3efe847a46f868949631943df0810258be1315cf68af4",
        "29ee56a0d50d59d9a6f11888570203787a863b053db32a09a210c5e5c738c80c",
    ),
    ("uniform", "claw"): (
        "553bedd33606b140ddd4255fd124188171bf7334739ccfbdc822c27660ebf364",
        "a89f1344875de5b8d1ad92a0e6bd3ae321e7c3ecc183dc42ea38f4f33312e449",
    ),
    ("uniform", "alpha"): (
        "7536072f729cf5668ccf1b0e46936fa4aa31d9d982136d673184480689afad6a",
        "29ee56a0d50d59d9a6f11888570203787a863b053db32a09a210c5e5c738c80c",
    ),
    ("unit-jitter", "best"): (
        "bc729a19aa6b8e3566110eea08f5b9afc6300086eaa6f5456628484ab8ad1e82",
        "14816acf2db5c63ade6bdec96779836f13bc164a32c0f0b9eae4b9fb365c2d99",
    ),
    ("unit-jitter", "claw"): (
        "3b5c07c68580d92f3aa84b5f2902da36706eaccc37fdad2fdfb9fae2adf538b5",
        "14816acf2db5c63ade6bdec96779836f13bc164a32c0f0b9eae4b9fb365c2d99",
    ),
    ("unit-jitter", "alpha"): (
        "ad40d311e066eb3fa0c3b66e89f750a63efdc70b1b37d79b5cb5405a3f9991f1",
        "80eec60457b903c5fc4703c6fc0b68505d9948f21ee4bd1e82119355edf7f401",
    ),
    ("nested-heavy", "best"): (
        "10d025adce6c40be04ed5a859aa5f690aef4857db371e661c4f253599af5153e",
        "086353899da657ea03c0b3f85a5414d1f39bc52dbaedcd614ad72c3198b66284",
    ),
    ("nested-heavy", "claw"): (
        "b9f8649dfc002e28389df63d97c021409de51454cb8b5660f04aa418dadd97db",
        "37214c2dc81a05fcc4ddac25b5f4bbc5069a3bf8d7d9c4111482044ac24f9167",
    ),
    ("nested-heavy", "alpha"): (
        "732180a3ae631076794ce8c65af6796a07877f19bd6647ad3c0c29b6e08270e9",
        "086353899da657ea03c0b3f85a5414d1f39bc52dbaedcd614ad72c3198b66284",
    ),
    ("path12", "best"): (
        "90ab0c6c9a3db4b482c5d458e55857054b92326ff1591cbc6a17dba30ae76965",
        "d9e78e627dbb7e4253c9f1e8d9372c2af250596c91351f556b659eeda592d827",
    ),
    ("path12", "claw"): (
        "08269c8e2a209ad259fac524c9f338e3fd794ba3325f1adf42ed28b526882b92",
        "2a1a9eacafbc5cf95523f9ecd48fbf37888badd38dd8bfbe3c7c2b435f796a4e",
    ),
    ("path12", "alpha"): (
        "47a51cb8aab01ffa17981ce9972752f9e106122c8ef5c5f734f56d2ab0b0e2bd",
        "d9e78e627dbb7e4253c9f1e8d9372c2af250596c91351f556b659eeda592d827",
    ),
    ("star5", "best"): (
        "d6cce18893ab820677380ec17307ff26987d7f7805e4ae060331ff2ae0b88689",
        "7004aadb67455a5baee7c3291e28bfe606569f9a03f424b5e22af38ae568eef5",
    ),
    ("star5", "claw"): (
        "7b738143c88ce68fbde15309a1da1db09e85ec45a6e6a7bcac6a41024a4ae5a3",
        "7700e6dbd448606a16e2127f83688398bf1372e61465900921a60322169f8237",
    ),
    ("star5", "alpha"): (
        "c0aa2b28fbd06b227fc310fc126bf00b329a1642eac27d8cfe3b8ed41a4aa9ff",
        "7004aadb67455a5baee7c3291e28bfe606569f9a03f424b5e22af38ae568eef5",
    ),
    ("triangles", "best"): (
        "de9fb52df42dc60947017ce87f45d898f3cfead7f9dc6fc67b7bfdaf97e600b2",
        "1a05cf0c83ed635caa95e4545eb8eb27e4ae1e8d48863921e234eafbb6e6975b",
    ),
    ("triangles", "claw"): (
        "30bf87bf7faff96334e4a16a1c79a30b2812d14ae1750ce0b7efb33da61c1398",
        "1a05cf0c83ed635caa95e4545eb8eb27e4ae1e8d48863921e234eafbb6e6975b",
    ),
    ("triangles", "alpha"): (
        "946ec1acaa483752b958320ef11ac7484389ad72470c72b87cf294ace5e9af60",
        "1a05cf0c83ed635caa95e4545eb8eb27e4ae1e8d48863921e234eafbb6e6975b",
    ),
    ("k4", "best"): (
        "96d76a7e9581f8a00beb4bf31956bb122649c4dbafe7e7ee9c765e0bab5cd537",
        "ccffb12f6e64878a24a592b1267171069727c8a1126c960bc543709be8734e57",
    ),
    ("k4", "claw"): (
        "c84195133487aec68a7ce2d335fada4492cc103b6aa1a0a0f087f5a125229be2",
        "ccffb12f6e64878a24a592b1267171069727c8a1126c960bc543709be8734e57",
    ),
    ("k4", "alpha"): (
        "96d76a7e9581f8a00beb4bf31956bb122649c4dbafe7e7ee9c765e0bab5cd537",
        "ccffb12f6e64878a24a592b1267171069727c8a1126c960bc543709be8734e57",
    ),
    ("points5", "best"): (
        "31a6d328e3c30242e3d93d3848cfa093f0fade3cb4d4574196c1bded57a0fb52",
        "ccffb12f6e64878a24a592b1267171069727c8a1126c960bc543709be8734e57",
    ),
    ("points5", "claw"): (
        "9d616b0e7622ef917acd3536c77c608baa8a7f11207a6d9737cdbbcc6f17de35",
        "ccffb12f6e64878a24a592b1267171069727c8a1126c960bc543709be8734e57",
    ),
    ("points5", "alpha"): (
        "31a6d328e3c30242e3d93d3848cfa093f0fade3cb4d4574196c1bded57a0fb52",
        "ccffb12f6e64878a24a592b1267171069727c8a1126c960bc543709be8734e57",
    ),
}


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def _digests(tmp_path, capsys):
    inputs = {}
    for dist in DISTRIBUTIONS:
        inputs[dist] = tmp_path / f"{dist}.json"
        _run(capsys, "gen", "--n", "60", "--dist", dist, "--seed", "1", "--out", str(inputs[dist]))
    for name, text in TEXTS.items():
        inputs[name] = tmp_path / name
        inputs[name].write_text(text)
    digests = {}
    for name, path in inputs.items():
        for variant, flags in VARIANTS.items():
            rep = _run(capsys, "construct", str(path), *flags)
            rep_path = tmp_path / f"{name}.{variant}.rep.json"
            rep_path.write_text(rep)
            report = _run(capsys, "verify", str(path), str(rep_path))
            digests[name, variant] = tuple(
                hashlib.sha256(out.encode()).hexdigest() for out in (rep, report)
            )
    return digests


def test_construct_and_verify_stdout_is_pinned(tmp_path, capsys):
    assert _digests(tmp_path, capsys) == DIGESTS
