import json

import pytest

from typea_irreps.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def payload(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_dim_example(capsys):
    doc = payload(capsys, "dim", "--rank", "19", "--char", "3",
                  "--weight", "1:1,2:1")
    assert doc["result"]["value"] == "1520"
    assert doc["config"]["strategy"] == "oracle-first"


def test_dim_dense_weight_form(capsys):
    doc = payload(capsys, "dim", "--rank", "6", "--char", "7",
                  "--weight", "[1,0,0,0,0,1]")
    assert doc["result"]["value"] == "47"


def test_dim_zero_weight_rejected(capsys):
    code, out, err = run(capsys, "dim", "--rank", "4", "--char", "5",
                         "--weight", "[0,0,0,0]")
    assert code == 1
    assert "error" in json.loads(err)


def test_dim_unrestricted_rejected(capsys):
    code, _, err = run(capsys, "dim", "--rank", "3", "--char", "2",
                       "--weight", "1:2")
    assert code == 1
    assert "restricted" in json.loads(err)["error"]


def test_composite_char_rejected(capsys):
    code, _, err = run(capsys, "dim", "--rank", "4", "--char", "6",
                       "--weight", "1:1")
    assert code == 1
    assert json.loads(err)["error"] == "characteristic 6 is not prime"
    # a composite with large factors, a strong pseudoprime to the bases
    # 2 to 37, and a value past the primality bound
    for char in (str((2 ** 61 - 1) * (2 ** 31 - 1)), "318665857834031151167461",
                 str(10 ** 25 + 13)):
        code, _, err = run(capsys, "mult", "--rank", "2", "--char", char,
                           "--weight", "1:1,2:1", "--sub", "0")
        assert code == 1
        assert "prime" in json.loads(err)["error"]


def test_large_prime_char_accepted(capsys):
    doc = payload(capsys, "mult", "--rank", "2", "--char", str(2 ** 61 - 1),
                  "--weight", "1:1,2:1", "--sub", "0", "--strategy", "gram-only")
    assert doc["result"]["multiplicity"] == "2"


def test_usage_error_exit_one(capsys):
    assert run(capsys, "dim", "--rank", "4")[0] == 1
    assert run(capsys, "frobnicate")[0] == 1


def test_help_exit_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_mult_examples(capsys):
    doc = payload(capsys, "mult", "--rank", "7", "--char", "3",
                  "--weight", "1:2,7:2", "--sub", "0")
    assert doc["result"]["multiplicity"] == "27"
    doc = payload(capsys, "mult", "--rank", "5", "--char", "2",
                  "--weight", "2:1,3:1", "--sub", "5:1")
    assert doc["result"]["multiplicity"] == "4"
    assert doc["result"]["provenance"] == "adjacent-pair"


def test_mult_at_highest_weight(capsys):
    doc = payload(capsys, "mult", "--rank", "4", "--char", "5",
                  "--weight", "1:1,2:1", "--sub", "1:1,2:1")
    assert doc["result"]["multiplicity"] == "1"


def test_mult_gram_only_provenance(capsys):
    doc = payload(capsys, "mult", "--rank", "5", "--char", "2",
                  "--weight", "2:1,3:1", "--sub", "5:1",
                  "--strategy", "gram-only")
    assert doc["result"]["multiplicity"] == "4"
    assert doc["result"]["provenance"] == "gram"


def test_mult_cap_exhaustion_exit_two(capsys):
    code, _, err = run(capsys, "mult", "--rank", "5", "--char", "2",
                       "--weight", "2:1,3:1", "--sub", "5:1",
                       "--strategy", "gram-only", "--cap-monomials", "2")
    assert code == 2
    assert json.loads(err)["blocking"] == "5:1"


def test_orbit(capsys):
    doc = payload(capsys, "orbit", "--rank", "4", "--weight", "1:1,4:1")
    assert doc["result"]["orbit_size"] == "20"
    assert doc["result"]["self_dual"] is True


def test_enumerate_example(capsys):
    doc = payload(capsys, "enumerate", "--rank", "4", "--char", "5",
                  "--exp", "2")
    dims = {e["weight"]: e["dim"] for e in doc["result"]["entries"]}
    assert dims == {"1:1": "5", "2:1": "10", "1:2": "15", "1:1,4:1": "23"}


def test_enumerate_large_prime_char(capsys):
    # the search loop stops at the first pruned coefficient, so its cost
    # does not grow with p; at a large p no dimension drops
    entries = {}
    for char in ("1000003", "31"):
        doc = payload(capsys, "enumerate", "--rank", "2", "--char", char,
                      "--exp", "3")
        entries[char] = [(e["weight"], e["dim"]) for e in doc["result"]["entries"]]
    assert len(entries["31"]) == 9
    assert entries["1000003"] == entries["31"]


def test_verify_clean(capsys):
    doc = payload(capsys, "verify", "--rank", "19", "--char", "2", "--exp", "3")
    assert doc["result"]["missing"] == []
    assert doc["result"]["extra"] == []
    assert len(doc["result"]["matched"]) == 7


def test_construct_contraction(capsys):
    doc = payload(capsys, "construct", "l1l2", "--rank", "4", "--char", "3")
    assert doc["result"]["kernel"] == "40"
    assert doc["result"]["quotient"] == "30"
    doc = payload(capsys, "construct", "l1l2", "--rank", "4", "--char", "5")
    assert doc["result"]["quotient"] is None
    assert doc["result"]["irreducible"] == "40"


def test_construct_young(capsys):
    # irreducible dimensions below weyl; at every other (l, p) they are equal
    drops = {(2, 2): 12, (3, 5): 32, (4, 2): 65, (4, 3): 65}
    for l, weyl in ((2, 15), (3, 36), (4, 70)):
        for p in (2, 3, 5, 7):
            doc = payload(capsys, "construct", "2l1ll", "--rank", str(l),
                          "--char", str(p))
            assert doc["result"] == {
                "weyl": str(weyl),
                "irreducible": str(drops.get((l, p), weyl))}, (l, p)


def test_construct_cap_exit_two(capsys):
    code, _, _ = run(capsys, "construct", "l1l2", "--rank", "12",
                     "--char", "3")
    assert code == 2
    code, _, _ = run(capsys, "construct", "2l1ll", "--rank", "5",
                     "--char", "3")
    assert code == 2


def test_byte_identical_reruns(capsys):
    a = run(capsys, "dim", "--rank", "9", "--char", "3", "--weight", "1:1,2:1")
    b = run(capsys, "dim", "--rank", "9", "--char", "3", "--weight", "1:1,2:1")
    assert a == b


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"strategy": "gram-only", "threads": 2}))
    doc = payload(capsys, "dim", "--rank", "5", "--char", "2",
                  "--weight", "2:1,3:1", "--config", str(cfg))
    assert doc["config"]["strategy"] == "gram-only"
    assert doc["config"]["threads"] == "2"
    doc = payload(capsys, "dim", "--rank", "5", "--char", "2",
                  "--weight", "2:1,3:1", "--config", str(cfg),
                  "--strategy", "oracle-first")
    assert doc["config"]["strategy"] == "oracle-first"


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"speed": "max"}))
    code, _, err = run(capsys, "dim", "--rank", "4", "--char", "3",
                       "--weight", "1:1", "--config", str(cfg))
    assert code == 1
    assert "speed" in json.loads(err)["error"]


def test_all_result_numbers_are_strings(capsys):
    doc = payload(capsys, "dim", "--rank", "4", "--char", "3",
                  "--weight", "1:1,2:1")

    def walk(x):
        if isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)
        else:
            assert not isinstance(x, (int, float)) or isinstance(x, bool)

    walk(doc)


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["failures"] == "0"
