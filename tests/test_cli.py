"""Command-line surface: exit codes, text and JSON output, file round trips."""

import itertools
import json
import random
import time

import pytest

from extalg import parse_presentation
from extalg.cli import main

QPLANE = "field Q\ngens x:1 y:1\nrel x*y - 2*y*x\n"
KX = "field Q\ngens x:1\n"
CUBE = "field Q\ngens x:1\nrel x^3\n"
FREE2 = "field Q\ngens x:1 y:1\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return {
        "qplane": write("qplane.pres", QPLANE),
        "kx": write("kx.pres", KX),
        "cube": write("cube.pres", CUBE),
        "free2": write("free2.pres", FREE2),
        "scale2": write("scale2.auto", "x -> 2*x\n"),
        "swap": write("swap.auto", "x -> y\ny -> x\n"),
        "tmp": tmp_path,
    }


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_ext_quantum_plane_table(files, capsys):
    code = main(["ext", files["qplane"], "--maxcoh", "3", "--maxdeg", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "n=0: 1 @ t=0" in out
    assert "n=1: 2 @ t=1" in out
    assert "n=2: 1 @ t=2" in out


def test_ext_json_schema(files, capsys):
    code, payload = run_json(capsys, ["ext", files["qplane"], "--maxcoh", "3",
                                      "--maxdeg", "3", "--format", "json", "--products"])
    assert code == 0
    assert set(payload) >= {"command", "truncation", "field", "certified", "data"}
    assert payload["truncation"] == {"N": 3, "D": 3}
    assert payload["field"] == "Q"
    assert payload["data"]["dimensions"] == {"0,0": 1, "1,1": 2, "2,2": 1}
    assert "products" in payload["data"]


def test_ext_kz_two_rows(files, capsys, tmp_path):
    kz = tmp_path / "kz.pres"
    kz.write_text("field Q\ngens z:2\n")
    code, payload = run_json(capsys, ["ext", str(kz), "--maxcoh", "3", "--maxdeg", "4",
                                      "--format", "json"])
    assert code == 0
    assert payload["data"]["dimensions"] == {"0,0": 1, "1,2": 1}


def test_ext_free_algebra_table(files, capsys):
    code, payload = run_json(capsys, ["ext", files["free2"], "--maxcoh", "2",
                                      "--maxdeg", "2", "--format", "json"])
    assert code == 0
    assert payload["data"]["dimensions"] == {"0,0": 1, "1,1": 2}


def test_ext_truncation_warning_exit_code(files, capsys):
    # the x^3 resolution continues past any window: warn, exit 2
    code = main(["ext", files["cube"], "--maxcoh", "3", "--maxdeg", "6"])
    out = capsys.readouterr().out
    assert code == 2
    assert "warning" in out
    code = main(["ext", files["cube"], "--maxcoh", "3", "--maxdeg", "6",
                 "--lenient-truncation"])
    assert code == 0


def test_ext_seed_order_same_dimensions(files, capsys):
    _, p1 = run_json(capsys, ["ext", files["qplane"], "--format", "json",
                              "--maxcoh", "3", "--maxdeg", "3"])
    _, p2 = run_json(capsys, ["ext", files["qplane"], "--format", "json",
                              "--maxcoh", "3", "--maxdeg", "3", "--seed-order", "y,x"])
    assert p1["data"]["dimensions"] == p2["data"]["dimensions"]


def test_ext_field_override(files, capsys):
    code, payload = run_json(capsys, ["ext", files["qplane"], "--field", "F5",
                                      "--maxcoh", "3", "--maxdeg", "3", "--format", "json"])
    assert code == 0
    assert payload["field"] == "F5"
    assert payload["data"]["dimensions"] == {"0,0": 1, "1,1": 2, "2,2": 1}


def test_skew_roundtrip(files, capsys, tmp_path):
    out_path = tmp_path / "b.pres"
    code = main(["skew", files["kx"], "--auto", files["scale2"], "--z-degree", "1",
                 "--output", str(out_path)])
    assert code == 0
    bpres = parse_presentation(out_path.read_text())
    assert [g.name for g in bpres.generators] == ["x", "z"]
    assert len(bpres.relations) == 1
    # emitted file parses and re-emits identically via the same code path
    code2 = main(["skew", files["kx"], "--auto", files["scale2"], "--z-degree", "1"])
    stdout_version = capsys.readouterr().out
    assert parse_presentation(stdout_version) == bpres


def test_verify_pass_exit_zero(files, capsys):
    code = main(["verify", files["kx"], "--auto", files["scale2"], "--z-degree", "1",
                 "--maxcoh", "3", "--maxdeg", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") >= 6
    assert "overall: PASS" in out


def test_verify_json_contains_twist_and_tau(files, capsys):
    code, payload = run_json(capsys, ["verify", files["kx"], "--auto", files["scale2"],
                                      "--z-degree", "1", "--maxcoh", "3", "--maxdeg", "3",
                                      "--format", "json"])
    assert code == 0
    checks = payload["certified"]["checks"]
    assert set(checks) == {"cone", "injectivity", "a_part", "z_times_f",
                           "f_times_z", "smash_table"}
    assert all(checks.values())
    assert "twist" in payload["data"] and "tau" in payload["data"]
    # the twist table carries the -p coefficient on the (v, u) pair
    u_xi = payload["data"]["twist"]["e_{1,1,0} (x) e_{1,1,0}"]
    assert u_xi == {"e_{1,1,0} (x) e_{1,1,0}": "-2"}


def test_verify_bad_automorphism_exit_one(files, capsys):
    code = main(["verify", files["qplane"], "--auto", files["swap"], "--z-degree", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert "relation not preserved" in err


def test_verify_parse_error_exit_one(files, capsys, tmp_path):
    bad = tmp_path / "bad.pres"
    bad.write_text("field Q\ngens x:0\n")
    code = main(["verify", str(bad), "--auto", files["scale2"]])
    assert code == 1


def test_frobenius_exit_codes(files, capsys):
    assert main(["frobenius", files["qplane"], "--maxcoh", "3", "--maxdeg", "4"]) == 0
    capsys.readouterr()
    assert main(["frobenius", files["cube"], "--maxcoh", "4", "--maxdeg", "8"]) == 2
    out = capsys.readouterr().out
    assert "not-finite-certified" in out
    assert main(["frobenius", files["free2"], "--maxcoh", "3", "--maxdeg", "3"]) == 3


def test_kp_exit_codes(files, capsys):
    assert main(["kp", files["qplane"], "--p", "1", "--maxcoh", "3", "--maxdeg", "4"]) == 0
    capsys.readouterr()
    assert main(["kp", files["cube"], "--p", "1", "--maxcoh", "4", "--maxdeg", "8"]) == 3
    out = capsys.readouterr().out
    assert "not-generated" in out
    assert main(["kp", files["cube"], "--p", "2", "--maxcoh", "4", "--maxdeg", "8"]) == 0


def test_kp_json_payload(files, capsys):
    code, payload = run_json(capsys, ["kp", files["cube"], "--p", "1", "--maxcoh", "4",
                                      "--maxdeg", "8", "--format", "json"])
    assert code == 3
    assert payload["data"]["verdict"] == "not-generated"
    assert payload["data"]["witness"] == [2, 3]


def test_text_and_json_dimensions_agree(files, capsys):
    main(["ext", files["qplane"], "--maxcoh", "3", "--maxdeg", "3"])
    text = capsys.readouterr().out
    _, payload = run_json(capsys, ["ext", files["qplane"], "--maxcoh", "3",
                                   "--maxdeg", "3", "--format", "json"])
    for key, dim in payload["data"]["dimensions"].items():
        n, t = key.split(",")
        assert "%d @ t=%s" % (dim, t) in text


def test_frobenius_seed_order_same_verdict(files, capsys):
    for order in ("x,y", "y,x"):
        code, payload = run_json(capsys, ["frobenius", files["qplane"], "--maxcoh", "3",
                                          "--maxdeg", "4", "--format", "json",
                                          "--seed-order", order])
        assert code == 0
        assert payload["data"]["verdict"] == "frobenius"
        assert payload["data"]["top"] == [2, 2]


def test_bad_seed_order_exit_one(files, capsys):
    for argv in (["frobenius", files["qplane"]], ["kp", files["qplane"], "--p", "1"],
                 ["skew", files["qplane"], "--auto", files["scale2"]]):
        assert main(argv + ["--seed-order", "x"]) == 1
        assert "--seed-order" in capsys.readouterr().err


def test_negative_window_exit_one(files, capsys):
    for argv in (["ext", files["qplane"], "--maxcoh", "-1"],
                 ["ext", files["qplane"], "--maxdeg", "-2"],
                 ["frobenius", files["qplane"], "--maxcoh", "-1"],
                 ["verify", files["kx"], "--auto", files["scale2"], "--maxdeg", "-1"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "must be nonnegative" in captured.err
        assert captured.out == ""


def test_kp_nonpositive_p_exit_one(files, capsys):
    for p in ("0", "-3"):
        assert main(["kp", files["cube"], "--p", p]) == 1
        captured = capsys.readouterr()
        assert "--p must be at least 1" in captured.err
        assert captured.out == ""


def test_denominator_divisible_by_p_exit_one(files, capsys):
    tmp = files["tmp"]
    (tmp / "f5.pres").write_text("field F5\ngens x:1 y:1\nrel x*y - 1/5*y*x\n")
    (tmp / "q.pres").write_text("field Q\ngens x:1 y:1\nrel x*y - 1/5*y*x\n")
    (tmp / "ok5.pres").write_text("field F5\ngens x:1 y:1\nrel x*y - 2*y*x\n")
    (tmp / "fifth.auto").write_text("x -> 1/5*x\ny -> y\n")
    for argv in (["ext", str(tmp / "f5.pres")],
                 ["ext", str(tmp / "q.pres"), "--field", "F5"],
                 ["verify", str(tmp / "ok5.pres"), "--auto", str(tmp / "fifth.auto")]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and "F5" in err and "1/5" in err, err
        assert "Traceback" not in err


def test_large_prime_field_exit_codes(files, capsys, tmp_path):
    big = tmp_path / "big.pres"
    big.write_text("field F2305843009213693951\ngens x:1\nrel x^3\n")
    assert main(["ext", str(big), "--maxcoh", "2", "--maxdeg", "3", "--lenient-truncation"]) == 0
    composite = tmp_path / "composite.pres"
    composite.write_text("field F%d\ngens x:1\n" % (1000000007 * 998244353))
    assert main(["ext", str(composite)]) == 1
    assert "not prime" in capsys.readouterr().err


def _random_poly(rng, names, degs, d):
    words = [w for k in range(1, d + 1) for w in itertools.product(names, repeat=k)
             if sum(degs[g] for g in w) == d]
    if not words:
        return None
    out = ""
    for w in rng.sample(words, min(len(words), rng.randint(1, 3))):
        c = rng.choice((1, 1, 2, 3, -1, -2))
        out += "%s %d*%s" % ("-" if c < 0 else "+", abs(c), "*".join(w))
    return out.lstrip("+ ")


def _random_case(rng):
    """A random small presentation and a random (often invalid) automorphism."""
    field = rng.choice(("Q", "F2", "F3", "F5"))
    names = ["x", "y", "w"][:rng.randint(1, 3)]
    degs = {g: 1 for g in names}
    if len(names) > 1 and rng.random() < 0.3:
        degs[names[-1]] = 2
    rels = [_random_poly(rng, names, degs, rng.choice((2, 3))) for _ in range(rng.randint(0, 2))]
    pres = "field %s\ngens %s\n" % (field, " ".join("%s:%d" % (g, degs[g]) for g in names))
    pres += "".join("rel %s\n" % r for r in rels if r)
    kind = rng.choice(("identity", "scaling", "random"))
    images = {g: g if kind == "identity" else "%d*%s" % (rng.randint(1, 4), g)
              for g in names}
    if kind == "random":
        images = {g: _random_poly(rng, names, degs, degs[g]) or g for g in names}
    return pres, "".join("%s -> %s\n" % (g, images[g]) for g in names)


MALFORMED = [
    "",
    "gens x:1\n",
    "field Q\n",
    "field F4\ngens x:1\n",
    "field Q\ngens x:0\n",
    "field Q\ngens x\n",
    "field Q\ngens x:1\nrel x^2 + x\n",
    "field Q\ngens x:1\nrel x*q\n",
    "field Q\ngens x:1\nrel x^^2\n",
    "\x00\xff binary",
    "field F3\ngens x:1 y:1\nrel x*y - 1/3*y*x\n",
]


def test_cli_fuzz_no_traceback(tmp_path, capsys):
    """Random small inputs through every subcommand end in a clean exit code."""
    rng = random.Random(20240517)
    cases = [_random_case(rng) for _ in range(40)]
    cases += [(text, "x -> x\n") for text in MALFORMED]
    cases.append(("field Q\ngens x:1 y:1\n", "x -> y\ny -> q\n"))
    t0 = time.monotonic()
    for i, (pres, auto) in enumerate(cases):
        pfile, afile = tmp_path / ("%d.pres" % i), tmp_path / ("%d.auto" % i)
        pfile.write_text(pres)
        afile.write_text(auto)
        window = ["--maxcoh", str(rng.choice((2, 3))), "--maxdeg", str(rng.choice((3, 4)))]
        for argv in (["ext", "--products"], ["skew", "--auto", str(afile)],
                     ["verify", "--auto", str(afile)], ["frobenius"], ["kp", "--p", "1"]):
            argv = [argv[0], str(pfile)] + argv[1:] + window
            try:
                code = main(argv)
            except SystemExit as e:  # argparse usage errors
                code = e.code
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3), (argv, pres, auto, code)
            assert "Traceback" not in err, (argv, pres, auto)
    assert time.monotonic() - t0 < 10
