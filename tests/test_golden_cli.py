"""Golden `density` reports: sha256 of the exact report bytes.

The digests were captured before the window scans were reworked to skip
duplicate candidates and redundant searches; any change to a value, a
maximizing k, the row order or the header shows up here.  Regenerate them
only when report bytes change on purpose, and say so in CHANGES.md.
"""

import hashlib

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
    "intervals-m2": (
        ["--set", INTERVALS, "--horizon", "1e5", "--nmax", "100", "--m", "2"],
        "3b8971d3e08c397e8e051bb87926cd1b3accb839882349b4925363c61a0637e6",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_density_report_digest(name, tmp_path):
    args, digest = GOLDEN[name]
    out = tmp_path / "report"
    assert cli.main(["density", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
