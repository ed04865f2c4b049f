"""Golden CSV digests: every CLI command must keep its output byte for byte.

Each case runs `rodd.cli.main(argv + ["--out", path])` and compares the
sha256 of the written CSV with a recorded value.  A refactor that moves
one byte of any experiment's output fails here.
"""

import hashlib

import pytest

from rodd import cli

_DISCOVER = ["discover", "--n", "2000", "--neighbors", "20", "--M", "800",
             "--q", "0.05", "--area", "500", "--seed", "5"]
_DISCOVER_OR = "e2f9acfbec86d957c291d31f4a9e2dd17267e1a4a2f82e89494bd91422155f4e"
_GAINS = "0 10 2 0.5\n3 0 8 1\n1 4 0 6\n2 0.7 9 0\n"

GOLDEN = [
    ("discover-or", _DISCOVER, _DISCOVER_OR),
    # at the default threshold the energy run eliminates exactly as OR does
    ("discover-energy", _DISCOVER + ["--mode", "energy"], _DISCOVER_OR),
    ("discover-no-torus", _DISCOVER + ["--no-torus"],
     "6323d7ad3798468f3990df03b2345a3e068d48c4329af3f43db20c3085a3e072"),
    ("discover-sweep", _DISCOVER + ["--mode", "energy", "--receivers", "300",
                                    "--threshold-sweep", "10:40:10"],
     "d85868075b096ff726911a06bd1ee4914dfe926a42a634ead782c7074a013378"),
    ("sparsecode", ["sparsecode", "--K", "6", "--mu", "64", "--q", "0.12",
                    "--M", "200", "--trials", "50", "--seed", "9"],
     "b5d8680b654a822a3dad8bb8d34217c117caf5dea48e469f19e6aadc76fb1383"),
    ("fig2", ["fig2", "--K", "3,5", "--q", "0.1:0.9:0.2"],
     "5c9a2385c208b1936f34fc095ca7a227be81454ea16b971810940a0e4c007006"),
    ("fig3", ["fig3", "--K", "3,5,20,40", "--gamma-db", "10"],
     "ded45ce16b72d9857fe74153a2f4729a699f47802810d02a621622b918942696"),
    ("validate", ["validate", "--suite", "all", "--M", "2000", "--seed", "3"],
     "51949bddeccfff66b9be366bd30f6c6794d9a3b08153c262a70edb42197d85f1"),
    ("asym", ["asym", "--q", "0.2,0.3,0.4,0.5"],
     "b4350509dfd617a1a945bc9736606097f65518143027e3bf0bae83d79cc1581f"),
    ("trace-or", ["trace", "--n", "6", "--M", "80", "--mode", "or", "--seed", "7"],
     "389720cdbeb982549604b2de2fa8f51ede00868c66864488e8a54d28938cbbba"),
    ("trace-gauss", ["trace", "--n", "6", "--M", "80", "--mode", "gauss",
                     "--noise-var", "0.5", "--seed", "7"],
     "92a9ea109d73c825b92cdb9911df6a6cafcdd91a80f4f020a58cdca89b167250"),
]


@pytest.mark.parametrize("argv,expected", [(a, h) for _, a, h in GOLDEN],
                         ids=[name for name, _, _ in GOLDEN])
def test_csv_digest(tmp_path, argv, expected):
    argv = list(argv)
    if argv[0] == "asym":
        gains = tmp_path / "gains.txt"
        gains.write_text(_GAINS)
        argv += ["--gains-file", str(gains)]
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
