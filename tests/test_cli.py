import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from densitylab import cli
from densitylab.intset import IntegerSetSpec, IntervalSet
from densitylab.numerics import geometric_grid

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = cli.main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else None


def test_parse_int_scientific():
    assert cli.parse_int("1e7") == 10**7
    assert cli.parse_int("123") == 123
    with pytest.raises(cli.ValidationError):
        cli.parse_int("1.5")
    with pytest.raises(cli.ValidationError):
        cli.parse_int("ten")


def test_parse_int_reads_scientific_literals_exactly(capsys):
    # through a float, 1e25 read as 10000000000000000905969664
    assert cli.parse_int("1e25") == 10**25
    assert cli.parse_int("9007199254740993e0") == 2**53 + 1
    assert cli.parse_int("2.50e1") == cli.parse_int("2500e-2") == cli.parse_int("+.25e2") == 25
    assert cli.parse_int("-0.0") == cli.parse_int("0e" + "9" * 30) == 0
    assert cli.parse_int("1" * 400) == int("1" * 400)  # digits alone, as int() reads them
    for text in ("nan", "inf", "-inf", "1/2", "4/2", "2.5", "1e-3", "1e400", "1" * 400 + ".0",
                 "1e100000000", "1e" + "9" * 30, "1e-" + "9" * 30, "1.0000000000000001"):
        with pytest.raises(cli.ValidationError, match="must be an integer"):
            cli.parse_int(text)
    assert cli.parse_set_spec("explicit:9007199254740993e0").elements == (2**53 + 1,)
    spec = '{"kind": "explicit", "params": {"elements": [3, 9007199254740993e0, 1e25]}}'
    assert cli.parse_set_spec(spec).elements == (3, 2**53 + 1, 10**25)
    assert cli._intervals("[[2, 9007199254740993e0]]", "intervals").components == ((2, 2**53 + 1),)
    with pytest.raises(cli.ValidationError, match="must be integers"):  # an exponent past decimal's range
        cli.parse_set_spec('{"kind": "explicit", "params": {"elements": [1e%s]}}' % ("9" * 30))
    assert cli.main(["monad", "--k", "1", "--N", "1e25", "--intervals", "[[2,5]]"]) == 0
    assert '"N": 10000000000000000000000000,' in capsys.readouterr().out


def test_shorthand_names_win_over_files(tmp_path, monkeypatch):
    # a JSON file named primes once replaced the primes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "primes").write_text('{"kind": "full"}')
    assert cli.parse_set_spec("primes") == IntegerSetSpec.primes()
    assert cli.parse_set_spec("./primes") == IntegerSetSpec.full()


def test_parse_set_spec_forms(tmp_path):
    assert cli.parse_set_spec("squarefree") == IntegerSetSpec.squarefree()
    assert cli.parse_set_spec("example2:j=2,depth=4") == IntegerSetSpec.example2(2, 4)
    assert cli.parse_set_spec("explicit:3,5,11") == IntegerSetSpec.explicit([3, 5, 11])
    inline = '{"kind": "interval_union", "params": {"intervals": [[10, 20]]}}'
    assert cli.parse_set_spec(inline) == IntegerSetSpec.interval_union(IntervalSet(((10, 20),)))
    path = tmp_path / "spec.json"
    path.write_text(inline)
    assert cli.parse_set_spec(str(path)) == cli.parse_set_spec(inline)
    with pytest.raises(cli.ValidationError):
        cli.parse_set_spec("fibonacci")
    path.write_text("not json")  # once a JSONDecodeError traceback
    with pytest.raises(cli.ValidationError, match="bad set spec JSON"):
        cli.parse_set_spec(str(path))


def test_density_csv_deterministic(tmp_path):
    args = ["density", "--set", "even", "--horizon", "1e4", "--nmax", "32"]
    code1, text1 = run_cli(args, tmp_path, "a.csv")
    code2, text2 = run_cli(args, tmp_path, "b.csv")
    assert code1 == code2 == 0
    assert text1 == text2  # byte-identical reruns
    lines = text1.splitlines()
    assert lines[0].startswith("# ")
    json.loads(lines[0][2:])  # header comment is valid JSON
    assert lines[1] == "functional,m,n,k_star,value"


def test_density_json_round_trip(tmp_path):
    code, text = run_cli(
        ["density", "--set", "full", "--horizon", "1e4", "--nmax", "16", "--format", "json"],
        tmp_path, "d.json",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["config"]["command"] == "density"
    assert {r["functional"] for r in doc["report"]} >= {"upper_count", "lower_log", "banach", "banach_log"}


def test_density_bdm_rows(tmp_path):
    code, text = run_cli(
        ["density", "--set", "full", "--horizon", "1e4", "--nmax", "8", "--m", "2", "--format", "json"],
        tmp_path, "m.json",
    )
    assert code == 0
    rows = [r for r in json.loads(text)["report"] if r["functional"] == "bd_m"]
    assert rows and all(r["m"] == 2 for r in rows)


def test_density_example2_m1_exit_ok(tmp_path):
    code, text = run_cli(
        ["density", "--set", "example2:j=2,depth=4", "--horizon", "1e4", "--nmax", "100", "--m", "1"],
        tmp_path, "e2.csv",
    )
    assert code == 0
    assert sum(line.startswith("bd_m,1,") for line in text.splitlines()) == len(geometric_grid(2, 100))


def test_monad_json(tmp_path):
    code, text = run_cli(
        ["monad", "--k", "1", "--N", "1e12", "--intervals", "[[1000, 10000]]",
         "--invert", "--scale", "7", "--format", "json"],
        tmp_path, "monad.json",
    )
    assert code == 0
    doc = json.loads(text)
    rep = doc["report"]
    assert rep["nu"]["window"] == {"k": 1, "N": 10**12}
    assert 0 <= rep["nu"]["value"] <= 1
    assert rep["inversion_check"]["discrepancy"] <= rep["inversion_check"]["bound"]
    assert rep["scale_check"]["discrepancy"] <= rep["scale_check"]["bound"]


def test_monad_csv_flatten(tmp_path):
    code, text = run_cli(
        ["monad", "--k", "1", "--N", "1e6", "--intervals", "[[10, 1000]]"],
        tmp_path, "monad.csv",
    )
    assert code == 0
    assert any(line.startswith("nu.value,") for line in text.splitlines())


def test_monad_endpoints_above_int64(tmp_path):
    # interval endpoints past 2**63 are summed like any others
    lo = 2**64
    code, text = run_cli(
        ["monad", "--k", "1", "--N", "1e20", "--intervals", f"[[{lo}, {lo + 10**4}]]", "--format", "json"],
        tmp_path, "big.json",
    )
    assert code == 0
    value = json.loads(text)["report"]["nu"]["value"]
    assert value == pytest.approx(10001 / (lo + 5000) / math.log(10**20), rel=1e-9)


def test_search_gp_found_and_witness_schema(tmp_path):
    code, text = run_cli(
        ["search-gp", "--set", "full", "--l", "3", "--n", "2",
         "--min-a", "10", "--min-r", "10", "--horizon", "1e6"],
        tmp_path, "gp.json",
    )
    assert code == 0
    doc = json.loads(text)
    w = doc["report"]["witness"]
    assert w["a"] == 11 and w["r"] == 11 and w["l"] == 3 and w["n"] == 2
    assert w["matches"] == [[11, 11], [121, 121], [1331, 1331]]


def test_search_gp_exhausted_exit_code(tmp_path):
    code, text = run_cli(
        ["search-gp", "--set", "example2:j=2,depth=4", "--l", "3", "--n", "2",
         "--min", "16", "--horizon", "1e6"],
        tmp_path, "gp3.json",
    )
    assert code == 3
    assert json.loads(text)["report"] == {"found": False}


def test_search_pap(tmp_path):
    code, text = run_cli(
        ["search-pap", "--set", "full", "--m", "2", "--l", "4", "--n", "2",
         "--min-a", "10", "--min-d", "5", "--horizon", "1e6"],
        tmp_path, "pap.json",
    )
    assert code == 0
    w = json.loads(text)["report"]["witness"]
    assert w["a"] == 11 and w["d"] == 6 and w["m"] == 2


def test_productset_csv(tmp_path):
    code, text = run_cli(
        ["productset", "--set-a", "squarefree", "--set-b", "squarefree",
         "--n", "4,16", "--horizon", "1e6"],
        tmp_path, "prod.csv",
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[1] == "n,x,m,products,lo,hi"
    assert len(lines) == 4


def test_productset_explicit_window_above_every_product(tmp_path):
    # the 1e9 window cap applies to the products, and every product here is
    # at most 55, so a horizon past the cap gives the same rows
    rows = {}
    for horizon in ("1e9", "2e9"):
        code, text = run_cli(
            ["productset", "--set-a", "explicit:3,5", "--set-b", "explicit:7,11", "--n", "2,3",
             "--horizon", horizon],
            tmp_path, f"prod-{horizon}.csv",
        )
        assert code == 0
        rows[horizon] = text.splitlines()[1:]
    assert rows["1e9"] == rows["2e9"] == ["n,x,m,products,lo,hi", "2,55,1,1,55,110", "3,55,1,1,55,165"]


def test_productset_sparse_sieve_pair_past_sieve_horizon(tmp_path):
    # singleton windows are probed by point queries, so primes are never
    # sieved to the horizon and 1e10 answers like 1e9
    args = ["productset", "--set-a", "primes", "--set-b", "explicit:3,1000003,7000000019", "--n", "2"]
    code, text = run_cli([*args, "--horizon", "1e10"], tmp_path, "prod.csv")
    assert code == 0
    assert text.splitlines()[1:] == ["n,x,m,products,lo,hi", "2,3,2,1,3,6"]


def test_certify_exit_codes(tmp_path):
    code, text = run_cli(["certify", "gp-free", "--set", "squarefree", "--horizon", "1e4"],
                         tmp_path, "c1.json")
    assert code == 0 and json.loads(text)["report"]["certified"] is True
    code, text = run_cli(["certify", "gp-free", "--set", "full", "--horizon", "100"],
                         tmp_path, "c2.json")
    assert code == 3
    assert json.loads(text)["report"]["counterexample"] == [1, 2, 4]


def test_validation_exit_code(capsys):
    assert cli.main(["density", "--set", "fibonacci", "--horizon", "1e4"]) == 2
    assert cli.main(["density", "--set", "full", "--horizon", "1"]) == 2
    assert cli.main(["nonsense"]) == 2
    capsys.readouterr()


def test_non_finite_numbers_exit_2(capsys):
    # nan, inf and a literal past the largest float are not integers; they
    # once escaped int() as ValueError or OverflowError
    for args in (["density", "--set", "full", "--horizon", "nan"],
                 ["density", "--set", "full", "--horizon", "inf"],
                 ["density", "--set", "full", "--horizon=-inf"],
                 ["search-gp", "--set", "full", "--l", "3", "--n", "2", "--horizon", "1e400"],
                 ["monad", "--k", "1", "--N", "1000", "--intervals", "[[2,9]]", "--margin", "1e999"]):
        assert cli.main(args) == 2, args
        assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "", "1.0", "1", "0.5", "nan", "inf", "1e400"])
def test_grid_ratio_checked_at_parse_time(value, capsys):
    args = ["productset", "--set-a", "primes", "--set-b", "primes", "--n", "4", "--horizon", "1e4",
            "--grid-ratio", value]
    with pytest.raises(cli.ValidationError, match="grid-ratio"):
        cli.parse_args(args)
    assert cli.main(args) == 2
    capsys.readouterr()


@pytest.mark.parametrize("value", ["abc", "", "2", "2.0", "1", "nan", "inf", "1e999"])
def test_ratio_floor_checked_at_parse_time(value, capsys):
    # nan once passed classify's ratio_floor <= 2 guard and classified no
    # component as big
    args = ["monad", "--k", "1", "--N", "1000", "--intervals", "[[2,9]]", "--ratio-floor", value]
    with pytest.raises(cli.ValidationError, match="ratio-floor"):
        cli.parse_args(args)
    assert cli.main(args) == 2
    capsys.readouterr()


def test_valid_ratios_keep_their_header_values():
    monad = ["monad", "--k", "1", "--N", "1000", "--intervals", "[[2,9]]"]
    product = ["productset", "--set-a", "primes", "--set-b", "primes", "--n", "4", "--horizon", "1e4"]
    assert cli.parse_args(monad).header()["ratio_floor"] == 2.5
    assert json.dumps(cli.parse_args(monad + ["--ratio-floor", "3"]).header()["ratio_floor"]) == "3.0"
    assert json.dumps(cli.parse_args(monad + ["--ratio-floor", "2.0000001"]).header()["ratio_floor"]) == "2.0000001"
    assert cli.parse_args(product).header()["grid_ratio"] == 1.1
    assert json.dumps(cli.parse_args(product + ["--grid-ratio", "1e1"]).header()["grid_ratio"]) == "10.0"
    assert json.dumps(cli.parse_args(product + ["--grid-ratio", "1.0001"]).header()["grid_ratio"]) == "1.0001"


@pytest.mark.parametrize("args", [
    ["density", "--set", '{"kind":"explicit","params":{"elements":[1,NaN]}}'],
    ["density", "--set", '{"kind":"interval_union","params":{"intervals":[[1,Infinity]]}}'],
    ["density", "--set", '{"kind":"explicit","params":{"elements":[1,{"a":1}]}}'],
    ["density", "--set", '{"kind":"explicit","params":{"elements":[1,2.5,7]}}'],
    ["density", "--set", '{"kind":"explicit","params":{"elements":"123"}}'],
    ["density", "--set", '{"kind":"example2","params":{"j":2.7,"depth":2}}'],
    ["monad", "--k", "1", "--N", "1000", "--intervals", "[[2,9.5]]"],
], ids=["nan", "infinity", "object", "fraction", "string", "example2-j", "monad-interval"])
def test_json_numbers_must_be_integers(args, capsys):
    # these once ended in a traceback or were truncated silently ([1, 2, 7], j = 2, [2, 9])
    if args[0] == "density":
        args = args + ["--horizon", "2000", "--nmax", "4"]
    assert cli.main(args) == 2
    assert "must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("intervals, message", [
    ("[[5,2]]", "bad interval [5, 2]"),
    ("[[1,2],[3]]", "bad interval [3]: not an [a, b] pair"),
    ("[[1,2],7]", "bad interval 7: not an [a, b] pair"),
    ('{"a": 1}', "intervals must be an array of [a, b] pairs"),
    (json.dumps([[a, a + 1] for a in range(2, 20000, 4)] + [[9, 3]]), "bad interval [9, 3]"),
], ids=["reversed", "short-pair", "number", "object", "long-list"])
def test_interval_errors_name_the_entry(intervals, message, capsys):
    # the reason and the faulty entry; the whole list was once echoed instead
    assert cli.main(["monad", "--k", "1", "--N", "1000", "--intervals", intervals]) == 2
    assert capsys.readouterr().err == f"densitylab: {message}\n"


@pytest.mark.parametrize("spec, message", [
    ('{"kind":"explicit","params":[1]}', "set spec params must be an object"),
    ('{"kind":"explicit","params":{"elemnts":[3,5,7]}}', "explicit params take no key 'elemnts'"),
    ('{"kind":"squarefree","params":{"elements":[3]}}', "squarefree params take no key 'elements'"),
    ('{"kind":"example2","params":{"j":2,"depth":1,"k":3}}', "example2 params take no key 'k'"),
], ids=["list", "typo", "no-keys", "extra"])
def test_set_spec_params_hold_only_the_kinds_keys(spec, message, capsys):
    # the typo once reported an empty set with exit 0, the list a traceback
    assert cli.main(["density", "--set", spec, "--horizon", "100", "--nmax", "4"]) == 2
    assert capsys.readouterr().err == f"densitylab: {message}\n"


@pytest.mark.parametrize("args, message", [
    (["density", "--set", "squarefree:3", "--horizon", "100"], "squarefree takes no parameters"),
    (["density", "--set", "example2:j=2", "--horizon", "100"], "example2 needs j=<int>,depth=<int>"),
    (["density", "--set", "example2:j=2,depth=1,dpth=9", "--horizon", "100"], "example2 takes no key 'dpth'"),
    (["density", "--set", "explicit:", "--horizon", "100"], "explicit needs a comma-separated element list"),
    (["density", "--set", "full", "--horizon", "100", "--nmax", "1000"], "need 2 <= nmax <= horizon"),
    (["monad", "--k", "1", "--N", "1000", "--intervals", "[[2,9]"], "bad --intervals JSON: "),
    (["monad", "--k", "1", "--N", "1000", "--intervals", "[[2,9]]", "--rho", "abc"], "bad ratio 'abc'"),
    (["monad", "--k", "1", "--N", "1000", "--intervals", "[[2,9]]", "--rho", "1/2"], "ratio cut requires rho >= 1"),
    (["search-gp", "--set", "full", "--l", "3", "--n", "2", "--min", "x", "--horizon", "100"],
     "min must be an integer, got 'x'"),
    (["certify", "nope", "--set", "full", "--horizon", "100"], "invalid choice"),
], ids=["squarefree-args", "example2-depth", "example2-key", "explicit-empty", "nmax", "intervals-json", "rho-text",
        "rho-below-1", "min", "certify-property"])
def test_validation_messages(args, message, capsys):
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("densitylab: ") and message in err


def test_productset_json_rows(tmp_path):
    args = ["productset", "--set-a", "explicit:3,5", "--set-b", "explicit:7,11", "--n", "2,3", "--horizon", "1e3"]
    code, text = run_cli(args + ["--format", "json"], tmp_path, "prod.json")
    assert code == 0
    assert json.loads(text)["report"] == [
        {"n": 2, "x": 55, "m": 1, "products": 1, "lo": 55, "hi": 110},
        {"n": 3, "x": 55, "m": 1, "products": 1, "lo": 55, "hi": 165},
    ]


def test_readme_synopsis_lists_every_option():
    # each command's synopsis line names the parser's options, bar -h, --out
    # and --format, which the README gives as common flags; a positional
    # counts by its choices (certify gp-free)
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    commands = next(a for a in cli._build_parser()._actions if a.choices and a.dest == "command").choices
    for command, parser in commands.items():
        want = set()
        for action in parser._actions:
            want |= set(action.option_strings) if action.option_strings else set(action.choices)
        want -= {"-h", "--help", "--out", "--format"}
        line = next(line for line in lines if line.split()[:2] == ["densitylab", command])
        words = line.split()[2:]
        got = {w.strip("[]|") for w in words if w.startswith(("--", "[--"))}
        got |= set(itertools.takewhile(lambda w: not w.startswith(("-", "[")), words))
        assert got == want, command


def test_integral_json_floats_pass():
    # as in parse_int, 1e6 is an integer
    spec = IntegerSetSpec.from_json('{"kind":"explicit","params":{"elements":[1,7.0,2e3]}}')
    assert spec.elements == (1, 7, 2000) and all(type(x) is int for x in spec.elements)
    assert IntegerSetSpec.from_json('{"kind":"example2","params":{"j":2.0,"depth":1e0}}') == IntegerSetSpec.example2(2, 1)
    assert IntervalSet.from_json([[2.0, 9e0]]).components == ((2, 9),)


def test_explicit_elements_past_int64_lie_past_every_horizon(tmp_path):
    # the view holds the elements below 2^63 only; the others once ended in an OverflowError
    args = ["density", "--horizon", "1000", "--nmax", "4"]
    assert cli.main(args + ["--set", "explicit:3,5,99999999999999999999", "--out", str(tmp_path / "big")]) == 0
    assert cli.main(args + ["--set", "explicit:3,5", "--out", str(tmp_path / "small")]) == 0
    rows = [(tmp_path / name).read_text().split("\n", 1)[1] for name in ("big", "small")]
    assert rows[0] == rows[1]


def test_checkpoint_beyond_horizon_exit_code(capsys):
    # a malformed request, not a capacity limit
    assert cli.main(["density", "--set", "full", "--horizon", "100", "--nmax", "4", "--checkpoints", "10,200"]) == 2
    assert "checkpoint beyond horizon" in capsys.readouterr().err


def test_capacity_exit_code(capsys):
    assert cli.main(["density", "--set", "squarefree", "--horizon", "1e10"]) == 4
    capsys.readouterr()


def test_out_of_memory_exit_code(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    # the density command imports its module when it runs
    monkeypatch.setattr("densitylab.density.log_profile", exhausted)
    assert cli.main(["density", "--set", "squarefree", "--horizon", "1e4"]) == 4
    assert capsys.readouterr().err == "densitylab: capacity: out of memory\n"


def test_search_capacity_exit_code(capsys):
    # full and interval sets are searched as blocks by point queries, so the
    # requests that once hit the 2^27 scan-range cap now answer; a horizon
    # past int64 exits 4
    interval = '{"kind": "interval_union", "params": {"intervals": [[1, 1000000000000]]}}'
    for spec in ("full", interval):
        assert cli.main(["search-gp", "--set", spec, "--l", "3", "--n", "2", "--min-a", "1",
                         "--min-r", "1", "--horizon", "1e12", "--format", "json"]) == 0
        w = json.loads(capsys.readouterr().out)["report"]["witness"]
        assert (w["a"], w["r"], w["matches"]) == (2, 2, [[2, 2], [4, 4], [8, 8]])
        assert cli.main(["search-pap", "--set", spec, "--m", "1", "--l", "3", "--n", "2",
                         "--horizon", "1e12", "--format", "json"]) == 0
        w = json.loads(capsys.readouterr().out)["report"]["witness"]
        assert (w["a"], w["d"], w["matches"]) == (1, 1, [[1, 1], [2, 2], [3, 3]])
    for spec in ("full", "explicit:3,5,11", "example2:j=2,depth=4"):
        assert cli.main(["search-gp", "--set", spec, "--l", "3", "--n", "2", "--horizon", "1e19"]) == 4
    assert cli.main(["certify", "gp-free", "--set", "squarefree", "--horizon", "0"]) == 2
    capsys.readouterr()


def test_search_sieve_kinds_up_to_membership_horizon(capsys):
    # sieve kinds answer searches by trial-division point queries up to
    # MEMBERSHIP_HORIZON (1e12) without sieving, and exit 4 above it
    args = ["search-gp", "--set", "primes", "--l", "2", "--n", "2", "--min-a", "1", "--min-r", "30000", "--horizon"]
    assert cli.main(args + ["1e12", "--format", "json"]) == 0
    w = json.loads(capsys.readouterr().out)["report"]["witness"]
    assert (w["a"], w["r"], w["matches"]) == (2, 30001, [[2, 2], [60002, 59999]])
    assert cli.main(args + ["1e13"]) == 4
    assert "sieve membership" in capsys.readouterr().err


def test_sparse_search_at_large_horizon_answers():
    # {1, 1e12} at 1e13 with min ratio (step) 10: a = 1 has one far ratio,
    # which a walk over the ratios would reach only after 5e11 of them; run
    # as a subprocess so that a hang fails on the time limit
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    for op, k, want in (("search-gp", "--min-r", (1, 5 * 10**11 + 1)), ("search-pap", "--min-d", (1, 5 * 10**11))):
        args = [op, "--set", "explicit:1,1000000000000", "--l", "2", "--n", "2", k, "10", "--horizon", "1e13",
                "--format", "json"] + (["--m", "1"] if op == "search-pap" else [])
        done = subprocess.run([sys.executable, "-m", "densitylab.cli", *args], env=env, capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr.decode()
        w = json.loads(done.stdout)["report"]["witness"]
        assert (w["a"], w["r" if op == "search-gp" else "d"]) == want


def test_horizon_beyond_int64_exit_code(capsys):
    # IntegerSetSpec.view is where every density functional turns the
    # horizon into int64; past 2^63 - 1 it raises CapacityError
    for spec in ("full", "explicit:3,5,11", "example2:j=2,depth=4"):
        assert cli.main(["density", "--set", spec, "--horizon", "1e19"]) == 4
        assert "2^63 - 1" in capsys.readouterr().err
    assert cli.main(["density", "--set", "full", "--horizon", str(2**63 - 1)]) == 0
    capsys.readouterr()
