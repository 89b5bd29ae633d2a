"""The exact bytes `construct`, `verify` and `order` write, pinned by
SHA-256.

Every other CLI test reads the JSON back and compares values, so a
change in key order, number formatting or indentation would pass them.
Here each variant is built on a fixed corpus and verified, in process,
each input's clique ordering is written, and the digest of each
command's stdout must match the one recorded here.  A deliberate format
change updates the table.
"""

import hashlib

from intervalcubes.cli import main
from intervalcubes.graphs import DISTRIBUTIONS

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

# (input, variant) -> (construct stdout, verify stdout), both exit 0; the
# claw variant's output carries the trace, each of its lists on one line.
# Representations hold the record's own ints and `unit`; every verify
# digest is the one the rational-text documents before them gave
DIGESTS = {
    ("uniform", "best"): (
        "5e09b5ec3408d050297882e09e20e5a671db13140396a2a398a65dcfc29326b2",
        "29ee56a0d50d59d9a6f11888570203787a863b053db32a09a210c5e5c738c80c",
    ),
    ("uniform", "claw"): (
        "500899b707c63c9eacdd2561da029f7cb4a4e75e8a6cee643dd86d2d64439561",
        "a89f1344875de5b8d1ad92a0e6bd3ae321e7c3ecc183dc42ea38f4f33312e449",
    ),
    ("uniform", "alpha"): (
        "9465a1dd10c0151ad2e2e6b301e3ad4754a681d76cd7d5ef64bfbaad83715d4b",
        "29ee56a0d50d59d9a6f11888570203787a863b053db32a09a210c5e5c738c80c",
    ),
    ("unit-jitter", "best"): (
        "17027c49f61afb22e36f092b0ccf889fcb3172d11213604c8e639a8695e1a787",
        "14816acf2db5c63ade6bdec96779836f13bc164a32c0f0b9eae4b9fb365c2d99",
    ),
    ("unit-jitter", "claw"): (
        "818a9592f8105e8fe0a2450dc03cf39d0bb42ff0093d86aa24c9695b898d0633",
        "14816acf2db5c63ade6bdec96779836f13bc164a32c0f0b9eae4b9fb365c2d99",
    ),
    ("unit-jitter", "alpha"): (
        "fb238c786be5cfa7938bff8144a2961c3a82a789555e7901764ebf3b8e19266b",
        "80eec60457b903c5fc4703c6fc0b68505d9948f21ee4bd1e82119355edf7f401",
    ),
    ("nested-heavy", "best"): (
        "1d75670420cda5b8cfc48240ad4020e654cf4c17f54e734c2557be6116999d41",
        "086353899da657ea03c0b3f85a5414d1f39bc52dbaedcd614ad72c3198b66284",
    ),
    ("nested-heavy", "claw"): (
        "85afc36d181db0ba4b2a7012a41d3b36eef959d7ab3e5b6a7bc97ade6f36d679",
        "37214c2dc81a05fcc4ddac25b5f4bbc5069a3bf8d7d9c4111482044ac24f9167",
    ),
    ("nested-heavy", "alpha"): (
        "a6b8cc71ded95505d5298c0c133ea87434dec442f82fca7a1098851ce47db8e7",
        "086353899da657ea03c0b3f85a5414d1f39bc52dbaedcd614ad72c3198b66284",
    ),
    ("path12", "best"): (
        "84f051f275dd021c92731b5f2a1255e03f2bf7896a58aa5962941dc4d569c05b",
        "d9e78e627dbb7e4253c9f1e8d9372c2af250596c91351f556b659eeda592d827",
    ),
    ("path12", "claw"): (
        "4cf23c64cc91f22aa39e3638d8c458d02f1057a516581ee164cf30a0d3d3d643",
        "2a1a9eacafbc5cf95523f9ecd48fbf37888badd38dd8bfbe3c7c2b435f796a4e",
    ),
    ("path12", "alpha"): (
        "a707e8854fc00ed5eae02d00ea22fc3fe0c809eda1294fda06d7554e9904cd39",
        "d9e78e627dbb7e4253c9f1e8d9372c2af250596c91351f556b659eeda592d827",
    ),
    ("star5", "best"): (
        "0b449a13a777bf9a554b59a97196c941cbda65ddf3597c40c986ec7f7be40f2a",
        "7004aadb67455a5baee7c3291e28bfe606569f9a03f424b5e22af38ae568eef5",
    ),
    ("star5", "claw"): (
        "628085db7346b6a95a458e942da9e7fc095a0dcf4ba63d98e9711ddb0978b562",
        "7700e6dbd448606a16e2127f83688398bf1372e61465900921a60322169f8237",
    ),
    ("star5", "alpha"): (
        "7e06e3027bd3c5ac638fff88c7eadf40fd7d741f211887067399ed578a45b73e",
        "7004aadb67455a5baee7c3291e28bfe606569f9a03f424b5e22af38ae568eef5",
    ),
    ("triangles", "best"): (
        "030c4e5d102f00fc0e636e17f7b20f7195f96216eb03a98b6c368640895f6f08",
        "1a05cf0c83ed635caa95e4545eb8eb27e4ae1e8d48863921e234eafbb6e6975b",
    ),
    ("triangles", "claw"): (
        "84c4717eb44b84030c06ae768fe6d77f94064be4cde5a1c8a7b674a984ef01e3",
        "1a05cf0c83ed635caa95e4545eb8eb27e4ae1e8d48863921e234eafbb6e6975b",
    ),
    ("triangles", "alpha"): (
        "819b998ccd4306980a04549654e6af685b87037e7f69320ce2d7fa4a5e85ad61",
        "1a05cf0c83ed635caa95e4545eb8eb27e4ae1e8d48863921e234eafbb6e6975b",
    ),
    ("k4", "best"): (
        "546474e8b9344f040749480b5261b2f5a9a06479636974eb564f9ca636c0e6d0",
        "ccffb12f6e64878a24a592b1267171069727c8a1126c960bc543709be8734e57",
    ),
    ("k4", "claw"): (
        "05d2144c332d911528cfd1cf931676fad43e74e4184d00ccd8107104866e9be8",
        "ccffb12f6e64878a24a592b1267171069727c8a1126c960bc543709be8734e57",
    ),
    ("k4", "alpha"): (
        "546474e8b9344f040749480b5261b2f5a9a06479636974eb564f9ca636c0e6d0",
        "ccffb12f6e64878a24a592b1267171069727c8a1126c960bc543709be8734e57",
    ),
    ("points5", "best"): (
        "b9d9a5cb8721b88bf4f8ef4b5bba984210e6979c26af028a092d4d0bdec16330",
        "ccffb12f6e64878a24a592b1267171069727c8a1126c960bc543709be8734e57",
    ),
    ("points5", "claw"): (
        "3044593d43aa5792aa3fc5a1fac3f203d8ecb52cf4ef459542c18a90ea514840",
        "ccffb12f6e64878a24a592b1267171069727c8a1126c960bc543709be8734e57",
    ),
    ("points5", "alpha"): (
        "b9d9a5cb8721b88bf4f8ef4b5bba984210e6979c26af028a092d4d0bdec16330",
        "ccffb12f6e64878a24a592b1267171069727c8a1126c960bc543709be8734e57",
    ),
}


# input -> `order` stdout
ORDER_DIGESTS = {
    "uniform": "6608084c4f51a00d79a22d460ec507e6b12152b50f8056ff236b4a7209079679",
    "unit-jitter": "6ba21b848ce1c6d9e798ea758ac4fa79896db4b77cf0fc0918e3298b87d82199",
    "nested-heavy": "27c6e956c23956ae9a1915d47ba932ec78b79ae89bfae4eba49849ccb580311c",
    "path12": "f153866116455fa3fe6cb2ea277eddf1fe6c26ef0e1c31cac43969970a7d1c2b",
    "star5": "547de44cd9bf1bfc040119a285fc46cb8fac9c0b0fc98a3e0fc62b412af9585c",
    "triangles": "a7b7173dea719851a16b68b01f824928f8ca2eb8a90f79f0aef9c264bb72e85b",
    "k4": "cdef310640442bf9e850da1d54c88d094a1289ce86f5801d65401092e45eb063",
    "points5": "49cde77c28e1ba52467f701c2b8cab85a60cbba173882de0a8c2660b7fa830e3",
}

P3_ORDER = """\
{
  "k": 2,
  "left": [
    0,
    0,
    1
  ],
  "right": [
    0,
    1,
    1
  ]
}
"""


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def _inputs(tmp_path, capsys):
    inputs = {}
    for dist in DISTRIBUTIONS:
        inputs[dist] = tmp_path / f"{dist}.json"
        _run(capsys, "gen", "--n", "60", "--dist", dist, "--seed", "1", "--out", str(inputs[dist]))
    for name, text in TEXTS.items():
        inputs[name] = tmp_path / name
        inputs[name].write_text(text)
    return inputs


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(tmp_path, capsys):
    digests = {}
    for name, path in _inputs(tmp_path, capsys).items():
        for variant, flags in VARIANTS.items():
            rep = _run(capsys, "construct", str(path), *flags)
            rep_path = tmp_path / f"{name}.{variant}.rep.json"
            rep_path.write_text(rep)
            report = _run(capsys, "verify", str(path), str(rep_path))
            digests[name, variant] = (_sha256(rep), _sha256(report))
    return digests


def test_construct_and_verify_stdout_is_pinned(tmp_path, capsys):
    assert _digests(tmp_path, capsys) == DIGESTS


def test_order_stdout_is_pinned(tmp_path, capsys):
    inputs = _inputs(tmp_path, capsys)
    digests = {name: _sha256(_run(capsys, "order", str(path))) for name, path in inputs.items()}
    assert digests == ORDER_DIGESTS


def test_order_writes_k_and_the_ranges_alone(tmp_path, capsys):
    # P_3 as 0-1-2: cliques {0, 1} and {1, 2}
    path = tmp_path / "p3.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    assert _run(capsys, "order", str(path)) == P3_ORDER
