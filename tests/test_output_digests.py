"""The exact bytes every command writes, pinned by SHA-256.

Every other CLI test reads the JSON back and compares values, so a
change in key order, number formatting or indentation would pass them.
Here each variant is built on a fixed corpus and verified, in process,
each input's clique ordering, labelling and parameters are written, and
the digest of each command's stdout, with its exit code, must match the
one recorded here.  A deliberate format
change updates the table.
"""

import hashlib
import json

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


C4_TEXT = "4 4\n0 1\n1 2\n2 3\n0 3\n"

# input -> `label` stdout, and `params` stdout
LABEL_DIGESTS = {
    "uniform": "ac4bf5117eeedad8b8177cc2edab81eaa99f26c1543082d9e39fc07fd7cf9ab0",
    "unit-jitter": "06017a21cdb7ad340b77b10c02c3567b1e7484eaabf9aa81853c8868f95d8d1d",
    "nested-heavy": "919c68995d90a1c6fb9e57317a539e676c75d48007ea198ac486473ee907c807",
    "path12": "e15ca54417d46b61c2c93099a6cf663ae65cfede25513717c71349078bb03ee4",
    "star5": "092decc2a9680a9b3b0a00452e7d8179b869455a8a25795a9a3d8fe86044eb54",
    "triangles": "552374eb4c136bfcc570fd7c94027159010571ef801a081b26a36d47870065c8",
    "k4": "5b3cffebc412ec9b56af26295d72d4a51f6f312e24f25fe495aee51b4df83e3a",
    "points5": "4e24fbe647fd19329d8cddf95fbcf29c22938f5467c3dd9b78559e6548497362",
}
PARAMS_DIGESTS = {
    "uniform": "b437979f7122badd5860e19f1f5d13f6cc5d16289be6b259ef476389ca43da3d",
    "unit-jitter": "b592f63a233a909a4c45bd0c60d6318222aba1aecd129e897685d21d7b7859c3",
    "nested-heavy": "3aa15fc5e169639cd87c33ff712fca4b27c30a00479ed0e2c93ecd125724434e",
    "path12": "6dab90d480ca2e73b764ce4e86536e34e9c4f3e26b8cf240dd064abe2b79c5b9",
    "star5": "0598097ded20963e9eb7ecb36efbeddb350516e72a836c62f39ce0eeb6964150",
    "triangles": "d173ddce8a4c94bedd3bd5f6ef18e2b2089708460d0a3b13cc22e9a781159ed8",
    "k4": "0696475f61ea6ecd014c13ee6c0780ee66ac735d694a5b61136da594e28a0452",
    "points5": "0696475f61ea6ecd014c13ee6c0780ee66ac735d694a5b61136da594e28a0452",
}

# command line, with GRAPH:name standing for that input's file and CSV for
# the --csv destination -> (exit code, digest of stdout, or of the CSV)
OTHER_DIGESTS = {
    "recognize GRAPH:path12": (
        0, "74aa204db689181309cc0ef7c895690b30e5f3da50b4a22daf3d8b405c56307a"),
    "recognize GRAPH:c4": (
        1, "ca7cd25476ee4a47c08ecdcbca0680f1123e6feefb5b6d473f3f5e2de8f402ed"),
    "exact GRAPH:star5": (
        0, "6fc700394a90cf7b0c3e1d45e53e96c4a9fc0c2311540599229459cfe4d8a364"),
    "exact GRAPH:star5 --max-b 1": (
        0, "ea9601b98b6006c0c3db4b38070d9fa7ec2608ba072de45bacaac3bb8c180a61"),
    "gen --n 12 --dist uniform": (
        0, "1df567147ed90fe94bf4c4c8d385a172af4fac67726d1af93e1f9fc4aa433173"),
    "gen --n 12 --dist unit-jitter": (
        0, "b915e62ba7d1a3f7c218262da90b7418e4366d73489ac4922b8072cac6aed4af"),
    "gen --n 12 --dist nested-heavy": (
        0, "7e60c5a8c3e36ee0c696197fa49e29bba2b20e3dd5bba3b5a12a297dcf960220"),
    "search --count 40 --n-max 6 --seed 1": (
        0, "24af1f49c771b221acf0ddd4b2d02e3f3f430eb47569dbc52a28c6239b31cdd9"),
    "search --count 40 --n-max 6 --seed 1 --csv CSV": (
        0, "81bdc0dcd26cd46119a461fb8236f7886eec5528259cbf522c1148e41e29b7f8"),
}

# (input, the two vertices whose rows are swapped) -> `verify` stdout, exit 2
MOVED_DIGESTS = {
    ("path12", 0, 6): (2, "8aba4b88a66de7738f1faac038f46bda86fd12f2966b26f3b5f198d8951db1b3"),
    ("uniform", 0, 59): (2, "e63bc027b3b2fbb5b693a09a55f5d413ca3501153e00a5c190768ad7a1c25b9d"),
}


def _run_any(capsys, *argv):
    code = main(list(argv))
    return code, _sha256(capsys.readouterr().out)


def test_label_and_params_stdout_is_pinned(tmp_path, capsys):
    inputs = _inputs(tmp_path, capsys)
    label = {name: _sha256(_run(capsys, "label", str(path))) for name, path in inputs.items()}
    params = {name: _sha256(_run(capsys, "params", str(path))) for name, path in inputs.items()}
    assert (label, params) == (LABEL_DIGESTS, PARAMS_DIGESTS)


def _other_digests(tmp_path, capsys):
    files = {name: tmp_path / name for name in ("path12", "c4", "star5")}
    for name, path in files.items():
        path.write_text(TEXTS.get(name, C4_TEXT))
    csv = tmp_path / "search.csv"
    digests = {}
    for line in OTHER_DIGESTS:
        words = line.split()
        argv = [str(files[w[6:]]) if w.startswith("GRAPH:") else w for w in words]
        if "--csv" in words:
            argv[argv.index("--csv") + 1] = str(csv)
            code, _ = _run_any(capsys, *argv)
            digests[line] = code, _sha256(csv.read_text())
        else:
            digests[line] = _run_any(capsys, *argv)
    return digests


def test_other_commands_stdout_is_pinned(tmp_path, capsys):
    assert _other_digests(tmp_path, capsys) == OTHER_DIGESTS


def test_verify_of_moved_rows_is_pinned(tmp_path, capsys):
    inputs = _inputs(tmp_path, capsys)
    digests = {}
    for name, u, v in MOVED_DIGESTS:
        rep = json.loads(_run(capsys, "construct", str(inputs[name]), "--variant", "best"))
        rows = rep["coords"]
        rows[u], rows[v] = rows[v], rows[u]
        bad = tmp_path / f"{name}.moved.json"
        bad.write_text(json.dumps(rep))
        code = main(["verify", str(inputs[name]), str(bad)])
        out = capsys.readouterr().out
        assert json.loads(out)["missing_adjacency"]
        digests[name, u, v] = code, _sha256(out)
    assert digests == MOVED_DIGESTS
