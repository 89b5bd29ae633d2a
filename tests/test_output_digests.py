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
        "a530cb6641349ccce5b5bd3e9bea463a3378a58bd13d46d172ab0b7ea7ec5775",
        "29ee56a0d50d59d9a6f11888570203787a863b053db32a09a210c5e5c738c80c",
    ),
    ("uniform", "claw"): (
        "9522410f03b0ecc9bc6fbe55edae5e55905a140fb10e2b4f3aa37e4b82fb00a7",
        "a89f1344875de5b8d1ad92a0e6bd3ae321e7c3ecc183dc42ea38f4f33312e449",
    ),
    ("uniform", "alpha"): (
        "f7427644bbead6bb416f5501f039299ad0d5b85b769788e64e55ce0517b1f164",
        "29ee56a0d50d59d9a6f11888570203787a863b053db32a09a210c5e5c738c80c",
    ),
    ("unit-jitter", "best"): (
        "6ad4f8e0406b767482c0c19e02e322cd87bdc0bd8bc70fa7463079b77bffe25d",
        "14816acf2db5c63ade6bdec96779836f13bc164a32c0f0b9eae4b9fb365c2d99",
    ),
    ("unit-jitter", "claw"): (
        "4e51ad2efdf70ef96f86d66f9f36466eacab689a48e26c92c4b390d3a91bd5ca",
        "14816acf2db5c63ade6bdec96779836f13bc164a32c0f0b9eae4b9fb365c2d99",
    ),
    ("unit-jitter", "alpha"): (
        "342cba8ecdd8c2989e2a8eaa980aa8a9bcaa73aa1328cde681853a165ecfe95a",
        "80eec60457b903c5fc4703c6fc0b68505d9948f21ee4bd1e82119355edf7f401",
    ),
    ("nested-heavy", "best"): (
        "235d56c3acc74483373d54749465b1f2a94779aeb7ca63efd826854f2ef859bd",
        "086353899da657ea03c0b3f85a5414d1f39bc52dbaedcd614ad72c3198b66284",
    ),
    ("nested-heavy", "claw"): (
        "a6610f9163ab68f2b7138641edc7a15ec020940f808b0fbce1b11c13e5c5d824",
        "37214c2dc81a05fcc4ddac25b5f4bbc5069a3bf8d7d9c4111482044ac24f9167",
    ),
    ("nested-heavy", "alpha"): (
        "6b3019fffc353d47209b1a52583a3ee79477fc5b4138ce2d1182fa799acbe8cd",
        "086353899da657ea03c0b3f85a5414d1f39bc52dbaedcd614ad72c3198b66284",
    ),
    ("path12", "best"): (
        "c10cd26ccf864ecef92ee622e651db3cfc581630ea0e2ad619a0f44760486ed9",
        "d9e78e627dbb7e4253c9f1e8d9372c2af250596c91351f556b659eeda592d827",
    ),
    ("path12", "claw"): (
        "ba372b0fe91e1b1fab1e62402e5517240b5079115a43635ad4796ab5aa742e21",
        "2a1a9eacafbc5cf95523f9ecd48fbf37888badd38dd8bfbe3c7c2b435f796a4e",
    ),
    ("path12", "alpha"): (
        "c18a6299ecdd040018f7c8d1f4c468db5ddb8f230ca3afaba2dd73a5bd72fc49",
        "d9e78e627dbb7e4253c9f1e8d9372c2af250596c91351f556b659eeda592d827",
    ),
    ("star5", "best"): (
        "c68e8d0e7022af3d3e8ed9ba0ab78d713acd015ffa6781655a2f8a1ab54169be",
        "7004aadb67455a5baee7c3291e28bfe606569f9a03f424b5e22af38ae568eef5",
    ),
    ("star5", "claw"): (
        "0d35f5ee003a32d3e35e2c00d0a7322053132fd9b25a3624121c271c3d55c81e",
        "7700e6dbd448606a16e2127f83688398bf1372e61465900921a60322169f8237",
    ),
    ("star5", "alpha"): (
        "f96005056be6124fe3dca97120e4440622a6a03dca7c5eb29647e191022af26d",
        "7004aadb67455a5baee7c3291e28bfe606569f9a03f424b5e22af38ae568eef5",
    ),
    ("triangles", "best"): (
        "fda386fe16e8bc309431ea2fdc726fcc5e64280384070018fdb9d24900e581bf",
        "1a05cf0c83ed635caa95e4545eb8eb27e4ae1e8d48863921e234eafbb6e6975b",
    ),
    ("triangles", "claw"): (
        "c4765bfbfece722347bf814dfc4ab503a4a58f2bd91c0d6820ad7cc2189503be",
        "1a05cf0c83ed635caa95e4545eb8eb27e4ae1e8d48863921e234eafbb6e6975b",
    ),
    ("triangles", "alpha"): (
        "599fc1a96d61c3cd005df848b199ac1196706bdad14a3e891575c7af9f1ee346",
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
