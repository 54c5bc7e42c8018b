"""CLI surface: text output, JSON payloads against the schema, exit codes."""

import hashlib
import importlib
import itertools
import json
import pathlib
import random
import string

import pytest

jsonschema = pytest.importorskip("jsonschema")

from param_atlas import cli
from param_atlas.cli import main

SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "docs" / "schema.json").read_text()
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--output", "json")
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


# -- text output ----------------------------------------------------------------


def test_census_text_table(capsys):
    code, out, _ = run(capsys, "census", "--group", "gsp4", "--q", "3", "--ell", "5")
    assert code == 0
    assert "C2A" in out and "C2B" in out
    assert "Z/2" in out


def test_census_text_sl12_twisted_classes_in_label_string_order(capsys):
    # mu_12 has ten or more elements, so string order differs from numeric order
    code, out, _ = run(capsys, "census", "--group", "sl12")
    assert code == 0
    rows = [line.split() for line in out.splitlines() if line.startswith("C11")]
    assert [r[0] for r in rows] == [f"C11{c}" for c in "ABCDEFGHIJKL"]
    assert [r[4] for r in rows] == ["0", "1", "10", "11"] + [str(i) for i in range(2, 10)]


def test_bg_ring_text_contains_dickson_relation(capsys):
    code, out, _ = run(capsys, "bg-ring", "--group", "sl2", "--q", "3")
    assert code == 0
    assert "c^3 - 4*c" in out


def test_coverage_text_marks(capsys):
    code, out, _ = run(capsys, "coverage", "--group", "gsp4", "--q", "3", "--ell", "5")
    assert code == 0
    assert "twisted-class-not-reached" in out
    # one uncovered row, four covered
    assert out.count("✗") == 1
    assert out.count("✓") == 4


def test_oracle_twisted_text(capsys):
    code, out, _ = run(capsys, "oracle", "twisted", "--order", "4", "--twist", "inv")
    assert code == 0
    assert "twisted orbit count: 2" in out


def test_oracle_avoidant_fail_verdict_is_schema_valid(capsys):
    # a scalar torus draw is legitimately non-avoidant: verdict fail, exit 0
    payload = run_json(capsys, "oracle", "avoidant", "--group", "gl2", "--q", "3",
                       "--ell", "7", "--seed", "0")
    assert payload["verdict"] == "fail"
    assert payload["counterexample"]["failures"]


def test_oracle_avoidant_gl1_torus_is_the_whole_group(capsys):
    # GL_1 has no roots, so its torus Levi has U = 0 and nothing to separate
    payload = run_json(capsys, "oracle", "avoidant", "--group", "gl1", "--q", "3",
                       "--ell", "5")
    assert payload["verdict"] == "pass"
    assert payload["result"]["exponent"] == 1
    assert payload["result"]["failures"] == []


# -- json output and schema -------------------------------------------------------


def test_census_json_schema(capsys):
    payload = run_json(capsys, "census", "--group", "sl2", "--q", "3", "--ell", "7")
    assert payload["kind"] == "census"
    assert payload["schema_version"] == 1
    assert [e["label"] for e in payload["entries"]] == ["C0", "C1A", "C1B"]


def test_census_json_curated_note(capsys):
    payload = run_json(capsys, "census", "--group", "gsp6", "--q", "3", "--ell", "5")
    noted = [e for e in payload["entries"] if e["curated_note"]]
    assert len(noted) == 1
    assert noted[0]["partition"] == [4, 2]
    assert "curated-uncertain" in noted[0]["curated_note"]


def test_coverage_json_schema(capsys):
    payload = run_json(capsys, "coverage", "--group", "u3", "--q", "3", "--ell", "7")
    assert payload["kind"] == "coverage"
    missing = [e for e in payload["entries"] if not e["covered"]]
    assert len(missing) == 1
    assert missing[0]["reason"] == "no-stable-levi-witness"
    covered = [e for e in payload["entries"] if e["covered"]]
    assert all(e["witness"] is not None for e in covered)


def test_bg_ring_json_schema(capsys):
    payload = run_json(capsys, "bg-ring", "--group", "u2", "--q", "3")
    assert payload["kind"] == "bg_ring"
    assert payload["relations"] == ["-e2 + e2^-3", "-e1 + e1^3*e2^-3 - 3*e1*e2^-2"]
    assert {g["name"]: g["invertible"] for g in payload["generators"]} == {
        "e1": False,
        "e2": True,
    }


def test_oracle_json_schema_all_operations(capsys):
    for argv in (
        ("oracle", "twisted", "--order", "5", "--twist", "inv"),
        ("oracle", "commutant", "--group", "sl2", "--q", "4", "--ell", "5"),
        ("oracle", "classify", "--group", "gsp4", "--q", "3", "--ell", "7"),
        ("oracle", "avoidant", "--group", "gl2", "--q", "3", "--ell", "7",
         "--seed", "5"),
        ("oracle", "jacobian", "--group", "sl2", "--q", "4", "--ell", "5",
         "--trials", "10"),
        ("oracle", "identities", "--group", "gsp4", "--q", "3", "--ell", "7",
         "--trials", "5"),
    ):
        payload = run_json(capsys, *argv)
        assert payload["kind"] == "oracle"
        assert payload["verdict"] == "pass", argv
        assert payload["counterexample"] is None


def suffixes():
    """A..Z, AA..ZZ, AAA..: the label suffixes in order, spelled out directly."""
    for size in itertools.count(1):
        for letters in itertools.product(string.ascii_uppercase, repeat=size):
            yield "".join(letters)


@pytest.mark.parametrize("argv, partition_count", [
    (("--group", "gl20"), 627),
    (("--group", "u20"), 627),
    (("--group", "sl20", "--ell", "5"), None),
    (("--group", "gl30"), 5604),
    (("--group", "u30"), 5604),
    (("--group", "sl30", "--ell", "5"), None),
])
def test_census_json_past_z_labels(capsys, argv, partition_count):
    entries = run_json(capsys, "census", *argv)["entries"]
    if partition_count is not None:
        assert len(entries) == partition_count
    labels = [e["label"] for e in entries]
    assert len(set(labels)) == len(labels)
    by_rank = {}
    for e in entries:
        by_rank.setdefault(e["rank_drop"], []).append(e["label"])
    for r, group in by_rank.items():
        if len(group) == 1:
            assert group == [f"C{r}"]
        else:
            assert group == [f"C{r}{x}" for x in itertools.islice(suffixes(), len(group))]
    assert any(len(g) > 26 for g in by_rank.values())


def test_json_output_deterministic(capsys):
    argv = ("census", "--group", "gsp4", "--q", "3", "--ell", "5", "--output", "json")
    code1 = main(list(argv))
    first = capsys.readouterr().out
    code2 = main(list(argv))
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second


# sha256 of the JSON stdout; they pin the int encodings of extension-field elements
EXTENSION_FIELD_DIGESTS = {
    "oracle commutant --group sl2 --q 3 --ell 2 --field-degree 8 --seed 1":
        "b75d40ec589dafc0b6b146d88dacb1c1ffaa1234d26c9faaad5399041a593b7b",
    "oracle identities --group gl3 --q 4 --ell 17 --field-degree 2 --trials 50 --seed 1":
        "465ff1ceffa329614d472513c2baa30cd3c0cefc894a2d5ff393d8303c7b1e73",
    "oracle classify --group gsp4 --q 3 --ell 5 --field-degree 2 --seed 1":
        "6aa62377516fce571e9d56ccbde134a099ddbb71b7839a4c8212dddbe00a53d7",
    "oracle jacobian --group gl2 --q 4 --ell 3 --field-degree 3 --trials 3 --seed 2":
        "2340b00a9090c6f990aedfbf8681ca7dcead25cb0e2f1c536d9cadc94d286c1e",
    # avoidant pass verdicts over F_49, through the GSp root matrices
    "oracle avoidant --group gsp6 --q 5 --ell 7 --field-degree 2 --seed 0":
        "164ef0c550b45d7b1120a24f6b31f3b67e0eb744927bf3d40010815fa103a1ce",
    "oracle avoidant --group gsp4 --q 3 --ell 7 --field-degree 2 --seed 0":
        "07427ef472049b96d8b4902745c150b1c990f53a9a319849bd4818fa7196376a",
}


@pytest.mark.parametrize("command", sorted(EXTENSION_FIELD_DIGESTS))
def test_extension_field_json_bytes_pinned(capsys, command):
    code, out, err = run(capsys, *command.split(), "--output", "json")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == EXTENSION_FIELD_DIGESTS[command]


# sha256 of the JSON stdout of one prime-field command for each subcommand
# that no other pin covers
SUBCOMMAND_DIGESTS = {
    "census --group u4 --q 4 --ell 3":
        "7cac98ce4c0eb10272ea820f45af7b31b2fd0f4b0e18dd4d09406b78a8ac3d38",
    "oracle classify --group sl2 --q 4 --ell 5 --seed 1":
        "8798cd5f88635870118a31670edd385c97ff54b22f6a349c6844c0a6d7bb655e",
    "oracle commutant --group sl2 --q 4 --ell 5 --seed 1":
        "fcf47abff7146822011e4d55b95213083b0525338476d38ccfeb90da609ef44c",
    "oracle identities --group gsp4 --q 3 --ell 7 --trials 5 --seed 1":
        "96ebe1c5d69cb464683f77b4a4ae9a9d774fff9c1f57811b5d46612a9b043b35",
    "oracle avoidant --group gsp4 --q 3 --ell 53 --seed 2":
        "d77b610d5ad6cbea7253692e238af8b1e7a07b077fcaccdada89faf35b1de1e8",
    "oracle jacobian --group sl2 --q 4 --ell 5 --trials 4 --seed 1":
        "4d1d153e2e7b3e8eb0fabefd4d6dd9e0cda84df757fd7d0882a808512da02396",
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_DIGESTS))
def test_subcommand_json_bytes_pinned(capsys, command):
    code, out, err = run(capsys, *command.split(), "--output", "json")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == SUBCOMMAND_DIGESTS[command]


def test_jacobian_with_no_samples_is_inconclusive(capsys):
    # no trial finds a commutant solution, so nothing is probed
    payload = run_json(capsys, "oracle", "jacobian", "--group", "gl2", "--q", "4",
                       "--ell", "3", "--field-degree", "3", "--trials", "3", "--seed", "2")
    assert payload["result"]["samples"] == 0
    assert payload["verdict"] == "inconclusive"
    assert payload["counterexample"] is None


def test_classify_with_no_labels_is_inconclusive(capsys):
    # 3d^2 = 1 has no root in F_5, so the detector sees no commutant solution
    code, out, err = run(capsys, "oracle", "classify", "--group", "sl2", "--q", "3",
                         "--ell", "5")
    assert code == 0, err
    assert out == "labels: (none)\n"
    payload = run_json(capsys, "oracle", "classify", "--group", "sl2", "--q", "3",
                       "--ell", "5")
    assert payload["result"]["labels"] == []
    assert payload["verdict"] == "inconclusive"
    assert payload["counterexample"] is None


# sha256 of the JSON stdout of the heaviest fixed-ring presentations
BG_RING_DIGESTS = {
    "bg-ring --group gsp6 --q 7":
        "9b1c26c7f399994f5e1ef33e4f463799578e0e0c5a589a3ec96c20f49cd1ddc2",
    "bg-ring --group sl3 --q 25":
        "80a3458d20c464a54886671cca2b6f1908c67765a219d6739186f7dd91e1aa2f",
    "bg-ring --group gl4 --q 9":
        "d4b30841df5ae832a062e5e4133724eebb8b95b6f8b057474181b3136c19c095",
    "bg-ring --group u5 --q 4":
        "75852a2a2f6325bb8d8d6a60e2b01d016649c9ecef965a66aa7331fd1b1906af",
    "bg-ring --group sl5 --q 4":
        "05c5f3a19e74313a0a9225a921c7d345d000e3d297e8e440fe8a60a2206112d6",
    "bg-ring --group gsp4 --q 9":
        "861d612ba93b1ee8b8edb916ffc71020b1ef51f65971eb7686285396096266d2",
}


@pytest.mark.parametrize("command", sorted(BG_RING_DIGESTS))
def test_bg_ring_json_bytes_pinned(capsys, command):
    code, out, err = run(capsys, *command.split(), "--output", "json")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == BG_RING_DIGESTS[command]


def test_coverage_gl12_bytes_unchanged_at_default_budget(capsys):
    code, out, err = run(capsys, "coverage", "--group", "gl12", "--output", "json")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f19be61e1baaf3f52f0cee375f200fed7651f650e332fe6557b22c4fbf603fff")


# sha256 of the stdout of the largest census and coverage outputs, in both
# formats; the benchmark's golden digests do not cover these
LARGE_OUTPUT_DIGESTS = {
    ("census --group gl30", "json"):
        "1a7c902b18966e849eb50e3c3f1e66d9ace45cd2e80920a2921c609e10bdd287",
    ("census --group gl30", "text"):
        "89eca612eb3237ae1b29663c8c8ff0d1c0bdd0cf0f6e366436ab2d5e0b701732",
    ("census --group sl30 --ell 5", "json"):
        "36db397e4168c719dc39b3681f71bce1942902f44ee05cd3f59453e905d765e3",
    ("census --group sl30 --ell 5", "text"):
        "ffbb9283cf1c1ce7b06901798b36c25ef69ea88b701067776e80bea16e28cf14",
    ("census --group u30", "json"):
        "868eceda64a49f06ef27be6cee29decf66e3813135a58b66676eb2ca5f14b126",
    ("census --group u30", "text"):
        "9ce61cd7823f7ea24098808f747a1ef1b920da17f1799e33cb14c00b96b61eeb",
    ("census --group sl24 --ell 2", "json"):
        "d6e7a1336ff75fb4712d6c543807841cc19d9caad421520b3cf2dbe24e535502",
    ("census --group sl24 --ell 2", "text"):
        "3cf3e9494b355f4726bd28fdca8d2eec8feebc11967b42419c270da064b9353d",
    ("coverage --group gl16", "json"):
        "f5042f94717170ed91468f1b534b29f1b4a13966379559fb388bec21322b223b",
    ("coverage --group gl16", "text"):
        "6bbc631508ca8c88db99dee430d0126b94722e6105910cffaeda46e87f15c182",
    ("coverage --group u16", "json"):
        "db5f8799b82436be93fd333698aed1514c26e904d6420841f3676fed9140ffa0",
    ("coverage --group u16", "text"):
        "6f3879742cbdcf5f37b61ce99c1624eb8bf467ccef51d1457d7ad9978f1505dd",
}


@pytest.mark.parametrize("command,output", sorted(LARGE_OUTPUT_DIGESTS))
def test_large_output_bytes_pinned(capsys, command, output):
    code, out, err = run(capsys, *command.split(), "--output", output)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_OUTPUT_DIGESTS[command, output]


# sha256 of the stdout of the GSp, U and SL Levi shapes (cores, palindromes,
# and the avoidance root split past the torus), in both formats
LEVI_SHAPE_DIGESTS = {
    ("coverage --group gsp4 --ell 5", "json"):
        "e5253984f8d9790b7b90cd11cc8d4aec8bf3db27daa1c6f3afe0587944d05ce4",
    ("coverage --group gsp4 --ell 5", "text"):
        "0ec6d9c1a3505071737c7addc7993897e557d1762d5d2b589750b1fb5260e262",
    ("coverage --group gsp6 --ell 5", "json"):
        "24805f3e1aaab22c959af6b4f4da6e0360949e4001540b4bd8c2522767b9f0c1",
    ("coverage --group gsp6 --ell 5", "text"):
        "c5e0aa8ab6fbcba4e2505e591fe887c332087b010bef88a3fac5efd3b9ca7e80",
    ("coverage --group u7", "json"):
        "97227ae14bffcc43fb4cc49293ce22112064acc243d0bd39b33162f3470a85dc",
    ("coverage --group u7", "text"):
        "55eb6a9795db0c792620139d1233fc04c03e2236df8b2da672295f41d9c4ac13",
    ("coverage --group sl9 --ell 5", "json"):
        "9dab2b1ffaba24f27976d83e9dac5032c9d7070641ac4437c5f7e3ca2deb591e",
    ("coverage --group sl9 --ell 5", "text"):
        "4eb6c88c8753b082765bd2f8973ddf1a10670d61c40c4c2771e34264b63f70d9",
    ("oracle avoidant --group gsp6 --q 3 --ell 7 --field-degree 2 --seed 1", "json"):
        "7cfcf0d93084ab5101a3cc1205536868aa7e71eec4621d10f60425b0273fef97",
    ("oracle avoidant --group gsp6 --q 3 --ell 7 --field-degree 2 --seed 1", "text"):
        "5b59017c7f4640f784333a7a1397f40bae08979c76aed2a18dec194276996353",
}


@pytest.mark.parametrize("command,output", sorted(LEVI_SHAPE_DIGESTS))
def test_levi_shape_bytes_pinned(capsys, command, output):
    code, out, err = run(capsys, *command.split(), "--output", output)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == LEVI_SHAPE_DIGESTS[command, output]


def test_json_output_never_renders_text(capsys, monkeypatch):
    def no_table(headers, rows):
        raise AssertionError("text table built under --output json")

    monkeypatch.setattr(cli, "_table", no_table)
    for command in ("census", "coverage"):
        code, out, err = run(capsys, command, "--group", "gsp4", "--ell", "5", "--output", "json")
        assert code == 0, err
        assert json.loads(out)["kind"] == command


# one command per subcommand, whose payload the JSON writer must reproduce
PAYLOAD_COMMANDS = [
    "census --group gsp6 --ell 5",
    "census --group sl12",
    "coverage --group gsp4 --ell 5",
    "bg-ring --group gsp4 --q 9",
    "oracle twisted --order 12 --twist inv",
    "oracle commutant --group sl2 --q 3 --ell 2 --field-degree 8 --seed 1",
    "oracle classify --group gsp4 --q 3 --ell 5 --field-degree 2 --seed 1",
    "oracle avoidant --group gsp4 --q 3 --ell 53 --seed 2",
    "oracle avoidant --group gl2 --q 3 --ell 7 --seed 0",
    "oracle jacobian --group sl2 --q 4 --ell 5 --trials 4 --seed 1",
    "oracle identities --group gsp4 --q 3 --ell 7 --trials 5 --seed 1",
]


@pytest.mark.parametrize("command", PAYLOAD_COMMANDS)
def test_json_writer_matches_json_dumps_on_every_subcommand(command):
    args = cli.build_parser().parse_args(command.split())
    payload, _ = args.handler(args)
    assert cli._indented(payload) == json.dumps(payload, indent=2, sort_keys=True)


def _random_string(rng):
    # quotes, backslashes, control characters, non-ASCII, astral and a lone surrogate
    return "".join(rng.choice('ab "\\/\b\f\n\r\t\x00\x1f\x7fé€𝔛\ud800')
                   for _ in range(rng.randrange(6)))


def _random_json_value(rng, depth):
    kind = rng.randrange(9 if depth < 4 else 4)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.choice([0, 1, -1, 2 ** 64, -(3 ** 70), rng.randrange(-10 ** 9, 10 ** 9)])
    if kind == 2:
        return rng.choice([0.0, -0.0, 1.5, -2.25e-300, 1e300, float("nan"), float("inf"),
                           float("-inf"), rng.random()])
    if kind == 3:
        return _random_string(rng)
    children = [_random_json_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 4:
        return children
    if kind == 5:
        return tuple(children)
    if kind in (6, 7):
        return {_random_string(rng): v for v in children}
    # keys of one non-string type, which json.dumps sorts and then converts
    key = rng.choice([lambda: rng.randrange(-50, 50), lambda: rng.random() - 0.5,
                      lambda: rng.choice([True, False])])
    return {key(): v for v in children}


def test_json_writer_matches_json_dumps_on_random_values():
    rng = random.Random(16)
    for _ in range(3000):
        value = _random_json_value(rng, 0)
        assert cli._indented(value) == json.dumps(value, indent=2, sort_keys=True), value


@pytest.mark.parametrize("argv", [
    ("--group", "gl30"),
    ("--group", "sl30", "--ell", "5"),
])
def test_coverage_rank_30_covers_every_entry_by_its_partition(capsys, argv):
    code, out, err = run(capsys, "coverage", *argv, "--output", "json")
    assert code == 0, err
    entries = json.loads(out)["entries"]
    assert len(entries) >= 5604  # p(30)
    for e in entries:
        assert e["covered"], e["label"]
        assert e["witness"]["blocks"] == e["partition"]


def test_coverage_u30_keeps_the_parity_rule(capsys):
    # the one rank-30 payload validated against the schema
    entries = run_json(capsys, "coverage", "--group", "u30")["entries"]
    assert len(entries) == 5604
    for e in entries:
        part = e["partition"]
        odd_mult = sum(1 for d in set(part) if part.count(d) % 2 == 1)
        assert e["covered"] == (odd_mult <= 1), part


def test_coverage_has_no_budget_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coverage", "--group", "gl3", "--budget", "5"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


def test_coverage_ignores_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("PARAM_ATLAS_BUDGET", "-1")
    code, out, err = run(capsys, "coverage", "--group", "gl12")
    assert code == 0, err
    assert "GL12" in out


def test_oracle_digest_tracks_inputs(capsys):
    p1 = run_json(capsys, "oracle", "twisted", "--order", "4", "--twist", "id")
    p2 = run_json(capsys, "oracle", "twisted", "--order", "4", "--twist", "inv")
    assert p1["inputs_digest"] != p2["inputs_digest"]
    assert p1["result"]["orbit_count"] == 4
    assert p2["result"]["orbit_count"] == 2


# -- exit codes --------------------------------------------------------------------


def test_exit_code_bad_preset(capsys):
    code, _, err = run(capsys, "census", "--group", "e8", "--q", "3", "--ell", "5")
    assert code == 2
    assert "error" in err


def test_exit_code_sl1_unsupported(capsys):
    code, _, _ = run(capsys, "census", "--group", "sl1", "--q", "3", "--ell", "5")
    assert code == 2


def test_exit_code_ell_two_for_gsp(capsys):
    code, _, err = run(capsys, "census", "--group", "gsp4", "--q", "3", "--ell", "2")
    assert code == 2
    assert "ell" in err


def test_exit_code_non_prime_power_q_for_bg_ring(capsys):
    code, _, err = run(capsys, "bg-ring", "--group", "sl2", "--q", "6")
    assert code == 2
    assert "prime power" in err


def test_exit_code_composite_ell(capsys):
    code, _, err = run(capsys, "oracle", "commutant", "--group", "sl2", "--q", "3",
                       "--ell", "6")
    assert code == 2
    assert "prime" in err


def test_exit_code_q_not_coprime_to_ell(capsys):
    code, _, _ = run(capsys, "oracle", "commutant", "--group", "sl2", "--q", "5",
                     "--ell", "5")
    assert code == 2


def test_exit_code_budget(capsys):
    code, _, err = run(capsys, "oracle", "twisted", "--order", "40", "--budget", "100")
    assert code == 3
    assert "budget" in err.lower()
    assert "--budget" in err  # message says how to raise it


def test_twisted_budget_precedes_the_group_table(capsys, monkeypatch):
    census_module = importlib.import_module("param_atlas.census")

    def built(order):
        raise AssertionError("the group was built before the budget check")

    monkeypatch.setattr(census_module, "cyclic_group", built)
    code, out, err = run(capsys, "oracle", "twisted", "--order", "4000")
    assert code == 3
    assert out == ""
    assert "twisted orbit enumeration needs 16000000 candidates" in err


def test_exit_code_negative_budget_flag(capsys):
    code, _, err = run(capsys, "oracle", "twisted", "--order", "4", "--budget", "-1")
    assert code == 2
    assert "--budget" in err and "-1" in err


# twisted is covered by test_exit_code_negative_budget_flag
ORACLE_ARGV = {
    "commutant": ("--group", "sl2", "--q", "3", "--ell", "7"),
    "classify": ("--group", "gsp4", "--q", "3", "--ell", "7"),
    "avoidant": ("--group", "gl2", "--q", "3", "--ell", "7"),
    "jacobian": ("--group", "sl2", "--q", "3", "--ell", "7"),
    "identities": ("--group", "gl2", "--q", "3", "--ell", "7"),
}


@pytest.mark.parametrize("oracle", sorted(ORACLE_ARGV))
def test_exit_code_negative_budget_every_oracle(capsys, oracle):
    code, out, err = run(capsys, "oracle", oracle, *ORACLE_ARGV[oracle], "--budget", "-1")
    assert code == 2
    assert out == ""
    assert "--budget" in err and "-1" in err


@pytest.mark.parametrize("oracle", ["jacobian", "identities"])
@pytest.mark.parametrize("trials", ["0", "-4"])
def test_exit_code_trials_below_one(capsys, oracle, trials):
    code, out, err = run(capsys, "oracle", oracle, *ORACLE_ARGV[oracle], "--trials", trials)
    assert code == 2
    assert out == ""
    assert "--trials" in err and trials in err


@pytest.mark.parametrize("value", ["-3", "abc"])
def test_exit_code_bad_budget_env(capsys, monkeypatch, value):
    monkeypatch.setenv("PARAM_ATLAS_BUDGET", value)
    code, _, err = run(capsys, "oracle", "twisted", "--order", "4")
    assert code == 2
    assert "PARAM_ATLAS_BUDGET" in err and value in err
    assert "invalid literal" not in err


def test_budget_env_is_used(capsys, monkeypatch):
    monkeypatch.setenv("PARAM_ATLAS_BUDGET", "100")
    code, _, err = run(capsys, "oracle", "twisted", "--order", "40")
    assert code == 3
    assert "budget is 100" in err


@pytest.mark.parametrize("oracle", sorted(ORACLE_ARGV))
@pytest.mark.parametrize("q", ["-1", "0", "1", "6"])
def test_exit_code_q_not_a_prime_power_every_oracle(capsys, oracle, q):
    argv = list(ORACLE_ARGV[oracle])
    argv[argv.index("--q") + 1] = q
    code, out, err = run(capsys, "oracle", oracle, *argv)
    assert code == 2
    assert out == ""
    assert "prime power" in err and q in err


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_exit_code_field_degree_below_one(capsys, degree):
    code, out, err = run(capsys, "oracle", "commutant", *ORACLE_ARGV["commutant"],
                         "--field-degree", degree)
    assert code == 2
    assert out == ""
    assert "--field-degree" in err


def test_classify_gsp4_at_ell_two_exits_like_census(capsys):
    code, out, err = run(capsys, "oracle", "classify", "--group", "gsp4", "--q", "3",
                         "--ell", "2")
    assert code == 2
    assert out == ""
    assert "ell = 2" in err


def test_classify_fails_when_census_disagrees(capsys, monkeypatch):
    census_module = importlib.import_module("param_atlas.census")
    real_census = census_module.census
    # drop C2B, the second of the two (2,2) entries
    monkeypatch.setattr(census_module, "census", lambda datum, ctx: [
        e for e in real_census(datum, ctx) if e.label != "C2B"])
    payload = run_json(capsys, "oracle", "classify", "--group", "gsp4", "--q", "3",
                       "--ell", "7")
    assert payload["verdict"] == "fail"
    assert payload["counterexample"] == {"labels": 2, "census_entries": 1}
    code, out, _ = run(capsys, "oracle", "classify", "--group", "gsp4", "--q", "3",
                       "--ell", "7")
    assert code == 0
    assert "MISMATCH" in out


def test_twisted_fails_when_census_disagrees(capsys, monkeypatch):
    oracle = importlib.import_module("param_atlas.oracle")
    monkeypatch.setattr(oracle, "twisted_orbits_bruteforce", lambda group, twist, budget: 3)
    payload = run_json(capsys, "oracle", "twisted", "--order", "4", "--twist", "inv")
    assert payload["verdict"] == "fail"
    assert payload["result"] == {"orbit_count": 3}
    assert payload["counterexample"] == {"orbit_count": 3, "census_count": 2}
    code, out, _ = run(capsys, "oracle", "twisted", "--order", "4", "--twist", "inv")
    assert code == 0
    assert out == "twisted orbit count: 3  census: 2  MISMATCH\n"


def test_exit_code_missing_required_flag():
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "commutant", "--group", "sl2", "--q", "3"])
    assert exc.value.code == 2


def test_exit_code_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_oracle_scope_restrictions(capsys):
    code, _, _ = run(capsys, "oracle", "commutant", "--group", "gsp4", "--q", "3",
                     "--ell", "7")
    assert code == 2
    code, _, _ = run(capsys, "oracle", "classify", "--group", "gl3", "--q", "3",
                     "--ell", "7")
    assert code == 2
    code, _, _ = run(capsys, "oracle", "jacobian", "--group", "u3", "--q", "3",
                     "--ell", "7")
    assert code == 2
