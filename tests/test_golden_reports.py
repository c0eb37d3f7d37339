"""Golden report digests: the exact bytes of one small report per command.

Each case runs the CLI in-process, writes the report to a file and pins its
SHA-256 and exit code.  A refactor that keeps behaviour leaves every digest
unchanged; a change that moves a draw, a float or a CSV column shows here.
CSV is pinned for every case because column order exists only there.
The digests embed the artifact version, so a version bump re-pins them.
"""

import hashlib

import pytest

from hrlab.cli import main

CASES = {
    "hr-eval": ("hr-eval", "--lambda", "1", "--grid", "-1:2:4"),
    "weak": ("verify", "weak", "--lambda", "1", "--phi", "0.3", "--n", "200",
             "--reps", "200", "--grid", "-1:3:3", "--seed", "5"),
    "strong": ("verify", "strong", "--lambda", "1", "--tau", "1,1,0.8", "--n", "200",
               "--reps", "200", "--grid", "-1:3:3", "--nodes", "16", "--seed", "5"),
    "maxmin": ("verify", "maxmin", "--lambda", "1", "--phi", "0.5", "--n", "200",
               "--reps", "200", "--grid4", "0.5,1.5", "--seed", "2"),
    "aslt": ("verify", "aslt", "--lambda", "1", "--phi", "0.5", "--nmax", "1000",
             "--seeds", "2", "--points", "1,1", "--seed", "4"),
    "aslt-shared": ("verify", "aslt", "--lambda", "1", "--phi", "0.5", "--nmax", "1000",
                    "--seeds", "2", "--points", "1,1", "--seed", "4",
                    "--coupling", "shared:0.25"),
    "bounds-L1": ("verify", "bounds", "--kind", "L1", "--lambda", "1", "--phi", "0.5",
                  "--ngrid", "1e3,1e4,1e5"),
    "bounds-L2": ("verify", "bounds", "--kind", "L2", "--lambda", "1", "--tau", "1,1,0.8",
                  "--ngrid", "1e3,1e4"),
    "bounds-rate": ("verify", "bounds", "--kind", "rate", "--lambda", "1", "--phi", "0.5",
                    "--coupling", "shared:0.3", "--ngrid", "100,1000,10000"),
    # k_eff = 2089 < n = 30000: the cross-row sum spans many blocks of rows
    "bounds-rate-blocks": ("verify", "bounds", "--kind", "rate", "--lambda", "1", "--phi", "-0.7",
                           "--coupling", "shared:0.5", "--ngrid", "100,1000,30000"),
    # x = -4 makes omega_m = min(|u_m(x)|, |u_m(y)|) fall and then rise in m
    "bounds-rate-xy": ("verify", "bounds", "--kind", "rate", "--lambda", "1", "--phi", "0.5",
                       "--coupling", "shared:0.3", "--ngrid", "100,1000,10000",
                       "--x", "-4", "--y", "1"),
    # lags past about 1100 give signed zeros without pow, -0.0 at odd lags
    "bounds-L1-cut": ("verify", "bounds", "--kind", "L1", "--lambda", "1", "--phi", "-0.5",
                      "--ngrid", "1e3,1e4,2e5"),
}

# (case, format) -> (exit code, SHA-256 of the report bytes)
GOLDEN = {
    ("hr-eval", "json"): (0, "aa18f45f3fd6c836f368e8574438ac755233a400be5b35b6ed2f2c1301cf40e9"),
    ("hr-eval", "csv"): (0, "9828ab75fb2b69df6c2d230da3c9dc9aaf7d0b26ffab2faa9283078c49f8f60d"),
    ("weak", "json"): (0, "4e795918ef3a9f9e62b0777417401dbd75334c3a6b56a1dac0914fbdd555d54b"),
    ("weak", "csv"): (0, "a4a1a75c7834f500e66150d44beaf47baa109ee3370cf15f2f6540bbdc2dcd99"),
    ("strong", "json"): (1, "ad59299c57b97a25a0a887224f14ff92406398dc26a21957aa74df11f168a0d3"),
    ("strong", "csv"): (1, "7be1bf2bdca423d727c586eb8780c04a2b1c3a7de5612fb8cd2cbb47e9b23107"),
    ("maxmin", "json"): (1, "51b9c9ee00b398b00327f971f39563a6cd9f832d58c094da8af95b550bb3c94c"),
    ("maxmin", "csv"): (1, "1b56306a0bcf6ee03d123cf974b1ab5dc99fa15c435e6ca844c0a977d725e213"),
    ("aslt", "json"): (1, "b87a54f734de899a1fc0c7e8ebf8f674c09f6972110beddce8ad7ac56cb0f3ac"),
    ("aslt", "csv"): (1, "a91a506d4eb9c6ff65530ecd12f2fed80e7ba0071e18a0f7f3b6ce6ae3e18a60"),
    ("aslt-shared", "json"): (0, "ff90cfce402006942a56c0939f09834e759afc8029825df52253e753eaf7eb54"),
    ("aslt-shared", "csv"): (0, "cec9cbc4c5f50e62203ae37d464226056ec56d40cd1df4bfb21f80195a375a02"),
    ("bounds-L1", "json"): (0, "aec7ae00203116f37df5e2767df8deca211de785389f23d06f7ead37136d5ef8"),
    ("bounds-L1", "csv"): (0, "31135ed3977b547f5a0415ed35f8ddc1f4baac95a94e7c63e6bf71903b98bc49"),
    ("bounds-L2", "json"): (0, "8dc3126abc6b156393aa3ca0752e5147b715f23a0e2a9f377ab9a64c3379140f"),
    ("bounds-L2", "csv"): (0, "344eedcbe18e6bab696c7d038285b8262973e006f77808f6aeede4d0fc21bf48"),
    ("bounds-rate", "json"): (0, "4e31d462b7f9bfe123d9e3bc539e3a84ee6bf4a6b89675a8827effe0f53d5eaf"),
    ("bounds-rate", "csv"): (0, "6c1faf4c46e1d9542b3a0655eec0a21ac814878f4a9a4c404ca534974d671291"),
    ("bounds-rate-blocks", "json"): (0, "4cf3270e8e5fa6701c15fcf37cc39c729ef5a3ab93ab813b6a799cb8c02078b5"),
    ("bounds-rate-blocks", "csv"): (0, "f0d215c506f3f2e4f276923167d75bf86de07802940209a4ae391f6076dd8515"),
    ("bounds-rate-xy", "json"): (0, "02b7f4dd7629088e79655f455046f0d0f028a164fa5c79071bb68e488c49465f"),
    ("bounds-rate-xy", "csv"): (0, "4b8474773913f8893a938eb6cf3fbefc6563728b0d42f79ce1ea6d8648a9ebbd"),
    ("bounds-L1-cut", "json"): (0, "cf1b3f804d55bf2ee11f91108da8922915810da8f644f81f408163219fe1c8dd"),
    ("bounds-L1-cut", "csv"): (0, "09ba4c86939d2449352280f4085aefae98543f4765730c3917f4286605575d92"),
}


def report_digest(tmp_path, argv, fmt):
    out = tmp_path / f"report.{fmt}"
    code = main([*argv, "--format", fmt, "--out", str(out)])
    return code, hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize(("case", "fmt"), list(GOLDEN), ids=[f"{c}-{f}" for c, f in GOLDEN])
def test_report_bytes_are_pinned(tmp_path, case, fmt):
    assert report_digest(tmp_path, CASES[case], fmt) == GOLDEN[(case, fmt)]


@pytest.mark.parametrize("case", ["weak", "strong", "maxmin"])
def test_pool_path_gives_the_pinned_bytes(tmp_path, case):
    # the process pool splits replications into chunks and joins their
    # extremes; the report must equal the pinned in-process one
    argv = (*CASES[case], "--workers", "2")
    assert report_digest(tmp_path, argv, "json") == GOLDEN[(case, "json")]
