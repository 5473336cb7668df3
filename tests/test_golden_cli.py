"""Golden CLI reports: sha256 of the exact report bytes.

The `density` digests were captured before the window scans were reworked
to skip duplicate candidates and redundant searches.  The `search-gp`,
`search-pap`, `certify` and `productset` digests were captured before the
searches read block endpoints, `find_gp3` stopped scanning the sieve
kinds, and productsets bounded their factors.  Any change to a
value, a witness, a maximizing k, the row order or the header shows up
here.  Regenerate them only when report bytes change on purpose, and say so
in CHANGES.md.
"""

import hashlib
import json

import pytest

from densitylab import cli

EXPLICIT = (
    "explicit:2,3,5,7,11,13,17,19,23,29,31,37,41,43,47,53,59,61,67,71,73,79,83,89,97,"
    "101,103,500,501,502,503,2048,4096,9999"
)
INTERVALS = '{"kind": "interval_union", "params": {"intervals": [[7, 30], [100, 2500], [9000, 40000]]}}'

GOLDEN = {
    "squarefree": (
        ["--set", "squarefree", "--horizon", "1e5"],
        "136c9581860a3db4812754f3c6849ac08d10f739daf71cd15e296bf892bf5fb1",
    ),
    "primes": (
        ["--set", "primes", "--horizon", "1e5", "--nmax", "300"],
        "7f229e64c134c934cb415e9e372adf7043c86843b325d2b3646617f15a273c95",
    ),
    "explicit": (
        ["--set", EXPLICIT, "--horizon", "1e4", "--nmax", "100", "--format", "json"],
        "4ed50f59c8e09e4c108c3e0d6c1c59849c088d85f9420d89b98f5e6f1a6676e3",
    ),
    "full-m2": (
        ["--set", "full", "--horizon", "1e5", "--nmax", "100", "--m", "2"],
        "715806cdf4813748c4dcd0cd0cf795573485d156bca689c5d776bdcf2ddadb73",
    ),
    "even-m3": (
        ["--set", "even", "--horizon", "1e5", "--nmax", "30", "--m", "3"],
        "218401db06ac25763ae38d509f871d9e39ba2d0283e5288d31d55f3919f7cb00",
    ),
    "example2-m2": (
        ["--set", "example2:j=2,depth=4", "--horizon", "1e5", "--nmax", "100", "--m", "2"],
        "c0d586b1bff564390f86aff8417de790c93104c7bb2dc267a6cff298e2c934ce",
    ),
    "explicit-sparse-1e12": (
        ["--set", "explicit:2,3,5,7,1000,1001,123456789,100000000000", "--horizon", "1e12"],
        "61cefee2e207e658f1e4760d4e38b24f224d04e0da23d29d5e068e44007cd523",
    ),
    # more than 2^16 members each, so bd_m's pass over the members crosses
    # chunks; captured while bd_m read a full table of prefix sums
    "squarefree-m2": (
        ["--set", "squarefree", "--horizon", "2e5", "--m", "2"],
        "66ffe5eb50bb9f7c72f6cef5e97f6132c3491fd1155e658e2e31d5f29c711265",
    ),
    "primes-m3": (
        ["--set", "primes", "--horizon", "2e6", "--m", "3"],
        "b16efb29924f4fbaa372e3fb4de5146b385c671ecbcfbdf199e47f0d1449ac92",
    ),
    "intervals-m2": (
        ["--set", INTERVALS, "--horizon", "1e5", "--nmax", "100", "--m", "2"],
        "3b8971d3e08c397e8e051bb87926cd1b3accb839882349b4925363c61a0637e6",
    ),
    # captured while bd_m at m = 1 ran its own count pass, apart from bd's;
    # the last has n = H on the grid, where bd has no row and bd_m is 0
    "example2-m1": (
        ["--set", "example2:j=2,depth=4", "--horizon", "1e5", "--nmax", "100", "--m", "1"],
        "29f43d766e2246e6025fe08caa44de3be302719e7018279997b45d8da424ffb1",
    ),
    "squarefree-m1": (
        ["--set", "squarefree", "--horizon", "1e5", "--m", "1"],
        "3f3eee3116867a803cbbcea6d37af200c381d932af21d97bc728fce81fc88156",
    ),
    "explicit-m1-nmax-at-horizon": (
        ["--set", "explicit:3,4,16,40,41", "--horizon", "47", "--nmax", "47", "--m", "1"],
        "8f220e812296334684dd1c67dcecca3f6149bad47167c670e15b82e4d1ad03f3",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_density_report_digest(name, tmp_path):
    args, digest = GOLDEN[name]
    out = tmp_path / "report"
    assert cli.main(["density", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


EX2 = "example2:j=2,depth=4"

# command arguments, expected exit code, report digest
GOLDEN_SEARCH = {
    "gp-example2-blocked": (
        ["search-gp", "--set", EX2, "--l", "3", "--n", "2", "--min", "16", "--horizon", "1e6"],
        3, "5863aa91a633ceb7bfe02db9ebd2c1bf556791603a8bc7406531dc8013c38945",
    ),
    "gp-example2-found": (
        ["search-gp", "--set", EX2, "--l", "3", "--n", "2", "--min-a", "2", "--min-r", "1", "--horizon", "1e6"],
        0, "8b3d7646552485b3337723474df0b94e07b869aa04f0c169b4a22afe60c3e405",
    ),
    "gp-example2-depth5": (
        ["search-gp", "--set", "example2:j=2,depth=5", "--l", "3", "--n", "3", "--min-a", "2", "--min-r", "2",
         "--horizon", "1e6"],
        0, "f3bb1d61d2605a818b43f17fecdc4fcc4ffa727931afce0fab36ec0a212783e9",
    ),
    "gp-intervals": (
        ["search-gp", "--set", INTERVALS, "--l", "3", "--n", "2", "--min", "10", "--horizon", "1e6"],
        0, "ed726d4025ac556ea4aef30fc07a1099b094474c8bb484958711e3336a13eb0e",
    ),
    "gp-full": (
        ["search-gp", "--set", "full", "--l", "4", "--n", "3", "--min", "10", "--horizon", "1e6"],
        0, "09f804baea59fbf3bc0a5722d0671d46fb85ebf24a035f9e7bc0d5457de946ae",
    ),
    "pap-example2-m2": (
        ["search-pap", "--set", EX2, "--m", "2", "--l", "3", "--n", "2", "--min", "16", "--horizon", "1e6"],
        3, "ff00ec51f2e9377f5ac8d3f87911d81eaa448b79a503d7fa5fd30658b1316c3e",
    ),
    "pap-example2-m3": (
        ["search-pap", "--set", EX2, "--m", "3", "--l", "3", "--n", "2", "--min", "2", "--horizon", "1e6"],
        3, "7f2fa5e1283c954d3d2c6815c07b46ad985b0d256ba4d11c2d9284e72e234b6b",
    ),
    "pap-example2-depth5-m2": (
        ["search-pap", "--set", "example2:j=3,depth=5", "--m", "2", "--l", "3", "--n", "3", "--min", "3",
         "--horizon", "1e6"],
        0, "8f9f1cfaf7a958cfa845420afca15f6c14544cb80ff5bb9fb88d4a40efcef7e8",
    ),
    "pap-intervals-m2": (
        ["search-pap", "--set", INTERVALS, "--m", "2", "--l", "3", "--n", "2", "--min", "10", "--horizon", "1e6"],
        0, "342ed54306bed16d5e74f937261c8f684ad95ab37efa3bc8d77ef34f2863ee63",
    ),
    "pap-intervals-m3": (
        ["search-pap", "--set", INTERVALS, "--m", "3", "--l", "3", "--n", "2", "--min", "2", "--horizon", "1e6"],
        0, "93d218b808ebc952bf1e0f9c67ce8d802bed492832207673e049a23758d36560",
    ),
    "pap-full-m2": (
        ["search-pap", "--set", "full", "--m", "2", "--l", "4", "--n", "2", "--min", "10", "--horizon", "1e6"],
        0, "64c8acaaad6e23fc2f850eb1c5f224b792bcffa5d421cbaca180babdecc0a15e",
    ),
    "certify-squarefree": (
        ["certify", "gp-free", "--set", "squarefree", "--horizon", "1e4"],
        0, "de49b36746db7b07199a00e5e9037c964a9f0aff27a82dd0f692cb323a489812",
    ),
    # the documented cap is 1e6; before c > horizon was decided without
    # trial division this request took several seconds and 1e6 did not finish
    "certify-squarefree-1e5": (
        ["certify", "gp-free", "--set", "squarefree", "--horizon", "1e5"],
        0, "9605f2f0f342d851894e71a1f95143f3295a61693f6a8a41a01914cb1acfd9cb",
    ),
    "certify-primes": (
        ["certify", "gp-free", "--set", "primes", "--horizon", "1e5"],
        0, "2a40ac3cea630229b2773c8e5898a7bb20279a72cfce0cbff327779d293583c9",
    ),
    "certify-full": (
        ["certify", "gp-free", "--set", "full", "--horizon", "1e3"],
        3, "127d43e4eae1247de35a450e87c0a46df21e2cee17194fd24f36aea27e42beba",
    ),
    "productset-primes": (
        ["productset", "--set-a", "primes", "--set-b", "primes", "--n", "4,16,64", "--horizon", "1e6"],
        0, "8637cd71ec65c5b39374a590072df21d16ff7e31c0cf843058bc76d9e7042fc1",
    ),
    "productset-primes-wide-grid": (
        ["productset", "--set-a", "primes", "--set-b", "primes", "--n", "2,3", "--horizon", "1e6",
         "--grid-ratio", "1.5"],
        0, "322d86825115c77c9c3412a98d1a5db7e17361a6b18744ec5287cc8590562168",
    ),
    "productset-example2-squarefree": (
        ["productset", "--set-a", EX2, "--set-b", "squarefree", "--n", "2,4,16,64", "--horizon", "1e6"],
        0, "940ad38f551f009881aca08b084b239524fb03436938d42a62e02ef31eee199d",
    ),
    # captured while its singleton windows sieved the primes to 1e9
    "productset-primes-sparse-explicit": (
        ["productset", "--set-a", "primes", "--set-b", "explicit:3,1000003,7000000019", "--n", "2",
         "--horizon", "1e9"],
        0, "5116aa67f33aa37667843d9cd9635b66b6edf99e7fd64550dc4b091204cdebf1",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SEARCH))
def test_search_certify_productset_report_digest(name, tmp_path):
    args, code, digest = GOLDEN_SEARCH[name]
    out = tmp_path / "report"
    assert cli.main([*args, "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Explicit sets whose header element lists run past two chunks of the
# report writer (2^14 elements each), one of exactly two chunks, and an
# empty one; captured while the header was encoded in one piece.
LONG = [7 * i + i * i % 5 + 1 for i in range(40000)]
TWO_CHUNKS = [3 * i + 2 for i in range(1 << 15)]

GOLDEN_LONG_HEADER = {
    "density-csv": (
        ["density", "--set", LONG, "--horizon", "1e4", "--nmax", "100"],
        0, "853e60540f23e06c5add9252b1668e5da86ac9b8c3e462017423addb44d90b36",
    ),
    "density-json": (
        ["density", "--set", LONG, "--horizon", "1e4", "--nmax", "100", "--format", "json"],
        0, "3434fb2a0c1c330e9507e43eab9457560eebed6241f027399727eaf642359ba1",
    ),
    "density-empty-json": (
        ["density", "--set", [], "--horizon", "1e3", "--nmax", "10", "--format", "json"],
        0, "0dfa1a8856ffd157988cf207a142cdd32f62e071ce9ab7c44f535f0cac22bd6b",
    ),
    "productset-two-sets-csv": (
        ["productset", "--set-a", LONG, "--set-b", TWO_CHUNKS, "--n", "2,4", "--horizon", "1e3"],
        0, "9d7b8da180194a4b030f7c24339a0c9334877d944e7b2a49c8783c7fb1e76a1e",
    ),
    "productset-two-sets-json": (
        ["productset", "--set-a", LONG, "--set-b", TWO_CHUNKS, "--n", "2,4", "--horizon", "1e3", "--format", "json"],
        0, "f281d731709d7b13636321f16b2e636897c1bba275a981508a0df892d527fcb5",
    ),
    "search-gp-payload": (
        ["search-gp", "--set", TWO_CHUNKS, "--l", "3", "--n", "2", "--min", "16", "--horizon", "1e5"],
        0, "dfa11def9b57b73a5362909dc2cb78b1e2f964c67bcc5250a710119652be2b65",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LONG_HEADER))
def test_long_explicit_header_digest(name, tmp_path):
    args, code, digest = GOLDEN_LONG_HEADER[name]
    argv = []
    for i, arg in enumerate(args):
        if isinstance(arg, list):  # an explicit set, passed as a JSON spec file
            arg = tmp_path / f"set{i}.json"
            arg.write_text(json.dumps({"kind": "explicit", "params": {"elements": args[i]}}))
        argv.append(str(arg))
    out = tmp_path / "report"
    assert cli.main([*argv, "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
