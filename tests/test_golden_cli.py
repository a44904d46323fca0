"""Golden CLI outputs: the sha256 of stdout and the exit code of fixed runs.

The hashes were recorded before the verify checks, the transport check and
the CLI build path were each reduced to one copy; any change to a certified
table, twist, verdict or to the text and JSON layout shows up here.
"""

import hashlib

import pytest

from extalg.cli import main

FILES = {
    "qplane": "field Q\ngens x:1 y:1\nrel x*y - 2*y*x\n",
    "kx": "field Q\ngens x:1\n",
    "cube": "field Q\ngens x:1\nrel x^3\n",
    "qdiag": "x -> 2*x\ny -> 3*y\n",
    "scale2": "x -> 2*x\n",
}

# (argv with file names for paths, exit code, sha256 of stdout)
RUNS = [
    (["ext", "qplane", "--products", "--maxcoh", "4", "--maxdeg", "6"], 0,
     "6870834da0ad7944e00ea898ea3d31efd65671325038003dd7a869f39d64c4f3"),
    (["ext", "qplane", "--products", "--field", "F5", "--maxcoh", "4", "--maxdeg", "6"], 0,
     "ae2e4b32a5e38c0dc17e0e86c1b815c14d42f9b4dd91c357b7b426163c27a96c"),
    (["ext", "qplane", "--products", "--format", "json", "--maxcoh", "4", "--maxdeg", "6"], 0,
     "507f478e10967fa4e892d57424692ba7035825bd6e33b6adabdffe06dce4839b"),
    (["frobenius", "qplane", "--maxcoh", "4", "--maxdeg", "6"], 0,
     "a85c30a8ccfcb3bab8aca581995e2920a18efc22ce82a38f5e9896990e213e65"),
    (["frobenius", "cube", "--maxcoh", "4", "--maxdeg", "8"], 2,
     "82bd6cea94f47656b6cf167665069cd81ef298b5f721d3d821da06408e790c86"),
    (["kp", "cube", "--p", "1", "--maxcoh", "4", "--maxdeg", "8"], 3,
     "9c8c975c608bd49a031d7a2b3538082395e669738f79f5062c2ed3f3806661d4"),
    (["kp", "cube", "--p", "2", "--maxcoh", "4", "--maxdeg", "8"], 0,
     "58af657be12491e4da65639807dbe6d42619d6722424c0eaf69db80a0c5bfa77"),
    (["verify", "qplane", "--auto", "qdiag", "--format", "json",
      "--maxcoh", "4", "--maxdeg", "6"], 0,
     "57da6d0d65f4406cd62e00624e032b8e490d16cc23f00d521f133686984adcb3"),
    (["verify", "kx", "--auto", "scale2", "--format", "json",
      "--maxcoh", "3", "--maxdeg", "3"], 0,
     "16a0977e9f70f5ae719758da92a6e6eb3aa0536fb5e1d1414b69704e23fc4a26"),
    (["skew", "qplane", "--auto", "qdiag"], 0,
     "f876f02ed25b1c730b26f4a5ff26de2c279589c30cf5e99e9ff803beb306b19e"),
]


@pytest.mark.parametrize("argv, code, digest", RUNS, ids=[" ".join(r[0]) for r in RUNS])
def test_golden_stdout(tmp_path, capsys, argv, code, digest):
    paths = {}
    for name, text in FILES.items():
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    assert main([paths.get(a, a) for a in argv]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
