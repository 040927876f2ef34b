"""CLI tests: config parsing, CSV emission, subcommands, exit codes."""

import argparse
import codecs
import csv
import dataclasses
import hashlib
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

from mdlasso import cli, verify
from mdlasso.bounds import probability_floor
from mdlasso.cli import (emit_csv, emit_prob_curve_csv, main, parse_config)
from mdlasso.errors import ConfigError
from mdlasso.sim import TrialRecord

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
MINIMAL = "n = 50\np = 20\nsnr = 1.5\nseed = 42\n"
# a config whose trial 0 iterates (MINIMAL's returns 0 at once)
ITERATING = "n = 60\np = 30\nsigma2 = 0.4\nseed = 3\neps = 0.9\ntau = 0.2\n"


def make_record(i, value=0.5):
    return TrialRecord(trial_index=i, snr=1.5, sigma2=2.0 / 3.0,
                       d_bhatta=value, two_hellinger_sq=value * 0.9,
                       regret_bound=value * 3.0, typical=True,
                       dominated=True, converged=True,
                       report=None, certificate=None)


class TestParseConfig:
    def test_minimal_document_defaults(self):
        cfg = parse_config(MINIMAL)
        assert (cfg.n, cfg.p, cfg.snr, cfg.seed) == (50, 20, 1.5, 42)
        assert (cfg.lam, cfg.beta, cfg.eps, cfg.tau) == (0.5, 0.5, 0.5, 0.03)
        assert cfg.num_trials == 100

    def test_comments_and_blank_lines(self):
        text = "# experiment\nn = 10\n\np = 5 # columns\nsnr = 1.0\nseed = 0\n"
        cfg = parse_config(text)
        assert cfg.n == 10 and cfg.p == 5

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2: unknown key 'bogus'"):
            parse_config("n = 10\nbogus = 3\n")

    def test_range_error(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_config(MINIMAL + "beta = 1.5\n")

    def test_type_error_names_key(self):
        with pytest.raises(ConfigError, match="line 1: n"):
            parse_config("n = ten\np = 5\nsnr = 1\nseed = 0\n")

    def test_admissibility_error(self):
        with pytest.raises(ConfigError, match="inadmissible"):
            parse_config(MINIMAL + "lambda = 0.6\nbeta = 0.5\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("n = 10\nn = 12\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing required key 'p'"):
            parse_config("n = 10\nsnr = 1.0\nseed = 0\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("n 10\n")


class TestEmitCsv:
    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([make_record(0)], str(path))
        lines = path.read_bytes().decode().split("\n")
        assert lines[0].startswith("trial,snr,sigma2,d_bhatta")
        assert len([ln for ln in lines if ln]) == 2

    def test_round_trip_ten_digits(self, tmp_path):
        path = tmp_path / "rt.csv"
        records = [make_record(i, value=math.pi * (i + 1) / 7) for i in range(5)]
        emit_csv(records, str(path))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        for rec, row in zip(records, rows):
            assert int(row["trial"]) == rec.trial_index
            for field, attr in (("d_bhatta", rec.d_bhatta),
                                ("two_hellinger_sq", rec.two_hellinger_sq),
                                ("regret_bound", rec.regret_bound),
                                ("snr", rec.snr), ("sigma2", rec.sigma2)):
                assert float(row[field]) == pytest.approx(attr, rel=1e-9)
            assert row["typical"] == "true"
            assert row["dominated"] == "true"

    def test_lf_endings_and_order(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv([make_record(2), make_record(0), make_record(1)], str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw
        trials = [ln.split(b",")[0] for ln in raw.strip().split(b"\n")[1:]]
        assert trials == [b"0", b"1", b"2"]

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], str(tmp_path / "none.csv"))

    def test_prob_curve_schema(self, tmp_path):
        path = tmp_path / "curve.csv"
        pts = [probability_floor(100, 50, eps, 0.1, 0.5) for eps in (0.4, 0.6)]
        emit_prob_curve_csv(pts, str(path))
        header = path.read_text().splitlines()[0]
        assert header == ("epsilon,floor_exact,floor_linear,floor_simplified,"
                          "floor_minus_tau_term")


class TestSubcommands:
    def write_config(self, tmp_path, text=None):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text or (MINIMAL + "num_trials = 5\neps = 0.9\n"
                                "tau = 0.2\nsparsity = 5\n"))
        return str(cfg)

    def test_simulate_writes_csv(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "trials.csv"
        code = main(["simulate", "--config", cfg, "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6  # header + 5 trials
        assert "dominance_fraction" in capsys.readouterr().out

    def test_simulate_names_non_converged_trials(self, tmp_path, capsys):
        # the absolute KKT stop: rounding keeps the residual above 1e-6
        text = ("n = 20\np = 5\nsigma2 = 1\nmagnitude = 1e10\nseed = 1\n"
                "num_trials = 2\n")
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", self.write_config(tmp_path, text),
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "trial 0 did not converge: 10000 iterations, kkt_residual 2.99e-06",
            "trial 1 did not converge: 10000 iterations, kkt_residual 2.27e-06"]
        assert captured.out.startswith("trials=2 converged=0 dominated=0 ")
        assert len(captured.out.splitlines()) == 2
        assert len(out.read_text().splitlines()) == 3

    def test_simulate_converged_run_is_silent_on_stderr(self, tmp_path,
                                                        capsys):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", self.write_config(tmp_path),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command, seed", [("simulate", 1), ("bounds", 2)])
    def test_overflowing_main_term_is_an_error(self, tmp_path, capsys,
                                               command, seed):
        # sigma2 = 1e307 is finite, but ||Y||^2 overflows on about half of
        # the draws (trial 0 at seed 2), and the main term is then inf - inf;
        # warnings, also those of pool workers, are raised as errors here
        text = f"n = 20\np = 5\nsigma2 = 1e307\nseed = {seed}\nnum_trials = 20\n"
        out = tmp_path / "t.csv"
        argv = [command, "--config", self.write_config(tmp_path, text)]
        if command == "simulate":
            argv += ["--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: regret main term is ")
        assert err[0].endswith(" overflows")
        assert not out.exists()

    def test_simulate_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_simulate_set_seed_changes_csv(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2),
              "--set", "seed=43"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_simulate_set_override(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "o.csv"
        code = main(["simulate", "--config", cfg, "--out", str(out),
                     "--set", "num_trials=2"])
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    def test_missing_seed_is_config_error(self, tmp_path, capsys):
        # a seed comes from the file or --set seed=N, and from nowhere else
        text = "n = 50\np = 20\nsnr = 1.5\nnum_trials = 2\neps = 0.9\ntau = 0.2\nsparsity = 5\n"
        cfg = self.write_config(tmp_path, text)
        out = tmp_path / "env.csv"
        assert self.assert_config_error(
            capsys, ["simulate", "--config", cfg, "--out", str(out)], out) \
            == "config error: missing required key 'seed'"

    def test_prob_curve_subcommand(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["prob-curve", "--n", "200", "--p", "1000",
                     "--tau", "0.03", "--beta", "0.5", "--eps-min", "0.3",
                     "--eps-max", "0.9", "--steps", "7", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 8
        # eps = 0.5 row carries the reference floor value
        row = rows[3].split(",")
        assert float(row[0]) == pytest.approx(0.5)
        assert float(row[4]) == pytest.approx(0.8050509662949, rel=1e-9)

    def test_prob_curve_csv_pinned(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["prob-curve", "--n", "200", "--p", "1000",
                     "--tau", "0.03", "--beta", "0.5", "--eps-min", "0.01",
                     "--eps-max", "0.95", "--steps", "61",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "8f7f6f5b31625a992998fd7f6492d303cb266bc77e0b36f2ae72d8374094ce30")

    def test_bounds_subcommand(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        code = main(["bounds", "--config", cfg])
        assert code == 0
        out = capsys.readouterr().out
        assert "regret_bound = " in out
        assert "probability_floor = " in out
        assert "mu1 = " in out

    def test_usage_error_exit_code(self, capsys):
        assert main(["simulate", "--config"]) == 2
        assert main(["no-such-command"]) == 2
        assert main(["simulate", "--config", "c.cfg", "--out", "o.csv",
                     "--seed", "1"]) == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        # a complete document whose one fault is beta's range
        bad = self.write_config(tmp_path, "n = 10\np = 5\nsnr = 1\nseed = 0\n"
                                          "beta = 2.0\n")
        out = tmp_path / "x.csv"
        assert self.assert_config_error(
            capsys, ["simulate", "--config", bad, "--out", str(out)], out) \
            == "config error: beta must lie in (0, 1), got 2.0"

    def test_override_error_names_the_override(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["simulate", "--config", self.write_config(tmp_path),
                "--out", str(out), "--set", "n=ten"]
        assert self.assert_config_error(capsys, argv, out) == (
            "config error: override 'n=ten': n: expected int, got 'ten'")

    def test_override_without_equals(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["simulate", "--config", self.write_config(tmp_path),
                "--out", str(out), "--set", "seed"]
        assert self.assert_config_error(capsys, argv, out) == (
            "config error: --set expects key=value, got 'seed'")

    def test_missing_config_file(self, tmp_path, capsys):
        # absent, and not UTF-8 (a Latin-1 comment)
        latin = tmp_path / "latin.cfg"
        latin.write_bytes(MINIMAL.encode() + b"# caf\xe9\n")
        out = tmp_path / "x.csv"
        for path in (tmp_path / "nope.cfg", latin):
            err = self.assert_config_error(
                capsys, ["simulate", "--config", str(path), "--out", str(out)],
                out)
            assert err.startswith(f"config error: cannot read config {path}: ")

    def assert_config_error(self, capsys, argv, out):
        """``main(argv)`` exits 2 with one ``config error:`` line, which it
        returns, and writes no ``out``."""
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert not out.exists()
        return err[0]

    # sizes past the 128 TiB user address space, which no host allocates
    @pytest.mark.parametrize("n, p", [(20, 10 ** 15), (10 ** 15, 1)])
    def test_unallocatable_size_is_a_config_error(self, tmp_path, capsys,
                                                  n, p):
        cfg = self.write_config(
            tmp_path, f"n = {n}\np = {p}\nsnr = 1\nseed = 1\nnum_trials = 1\n")
        out = tmp_path / "x.csv"
        err = self.assert_config_error(
            capsys, ["simulate", "--config", cfg, "--out", str(out)], out)
        assert "Unable to allocate" in err

    @pytest.mark.parametrize("noise, cause", [
        pytest.param(noise, cause, id=noise) for noise, cause in [
        ("snr = inf", "must both be finite and positive"),
        ("sigma2 = inf", "must both be finite and positive"),
        ("snr = 1e-320", "must both be finite and positive"),
        ("sigma2 = 1e-320", "must both be finite and positive"),
        ("snr = 1\nmagnitude = nan", "magnitude must be finite"),
        ("sigma2 = 1\nmagnitude = nan", "magnitude must be finite"),
        ("snr = 1\nmagnitude = 1e200", "must both be finite and positive"),
        ("sigma2 = 1\nmagnitude = 1e200", "must both be finite and positive"),
        # n beta sigma2 (1 - eps) overflows: mu1^2 = 0
        ("sigma2 = 1e308", "sigma2=1e+308 is out of range for n=20: "
                           "mu1^2 = 0.0"),
        # one value out of its own range per key; each config object's
        # message names the key and the value
        ("snr = 1\nn = 0", "got n=0,"),
        ("snr = 1\np = 0", "p=0"),
        ("snr = 0", "snr must be positive, got 0.0"),
        ("sigma2 = -1", "sigma2 must be positive, got -1.0"),
        ("snr = 1\nnum_trials = 0", "num_trials must be >= 1, got 0"),
        ("snr = 1\nlambda = 1", "lambda must lie in (0, 1), got 1.0"),
        ("snr = 1\nbeta = 1.5", "beta must lie in (0, 1), got 1.5"),
        ("snr = 1\neps = 0", "eps must lie in (0, 1), got 0.0"),
        ("snr = 1\ntau = -1", "tau must be positive and finite, got -1.0"),
        ("snr = 1\nsparsity = 0", "sparsity must lie in [1, 5], got 0"),
        ("snr = 1\nmagnitude = 0", "magnitude must be finite and non-zero"),
        # substream keeps a seed's low 64 bits, so a wider one would repeat
        ("snr = 1\nseed = -1", "seed must lie in [0, 2**64), got -1"),
        (f"snr = 1\nseed = {2 ** 64}", "seed must lie in [0, 2**64), got "
                                        f"{2 ** 64}")]])
    def test_non_finite_values_are_config_errors(self, tmp_path, capsys,
                                                 noise, cause):
        doc = {"n": "20", "p": "5", "seed": "1"}
        doc.update(line.split(" = ") for line in noise.splitlines())
        cfg = self.write_config(
            tmp_path, "".join(f"{k} = {v}\n" for k, v in doc.items()))
        out = tmp_path / "x.csv"
        # a numpy warning (an overflowing theta_star . theta_star) would add
        # stderr lines that capsys does not see, so it is raised here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self.assert_config_error(
                capsys, ["simulate", "--config", cfg, "--out", str(out)], out)
        assert cause in err

    @pytest.mark.parametrize("command", ["simulate", "bounds"])
    def test_infinite_tau_is_a_config_error(self, tmp_path, capsys, command):
        # a bound of main_term + inf is vacuous, so it is not computed
        out = tmp_path / "x.csv"
        argv = [command, "--config", self.write_config(tmp_path),
                "--set", "tau=inf"]
        if command == "simulate":
            argv += ["--out", str(out)]
        assert self.assert_config_error(capsys, argv, out) == (
            "config error: tau must be positive and finite, got inf")

    @pytest.mark.parametrize("p", [1, 5])
    def test_one_sample_designs_run_quietly(self, tmp_path, capsys, p):
        # warnings, also those of pool workers, are raised as errors here
        cfg = self.write_config(
            tmp_path, f"n = 1\np = {p}\nsnr = 1.5\nseed = 3\nnum_trials = 6\n")
        out = tmp_path / "t.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            assert len(out.read_text().splitlines()) == 1 + 6
            assert capsys.readouterr().err == ""
            assert main(["bounds", "--config", cfg]) == 0
            assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flag, value", [
        ("--tau", "-1"), ("--tau", "nan"), ("--tau", "inf"), ("--n", "0"),
        ("--beta", "1.5"), ("--eps-min", "0"), ("--eps-max", "1"),
        ("--eps-max", "inf"), ("--steps", "1"),
        ("--steps", "1000000000000000")])  # past the address space
    def test_prob_curve_range_errors(self, tmp_path, capsys, flag, value):
        args = {"--n": "50", "--p": "20", "--tau": "0.2", "--beta": "0.5",
                "--eps-min": "0.1", "--eps-max": "0.9", "--steps": "5",
                flag: value}
        out = tmp_path / "curve.csv"
        argv = ["prob-curve", "--out", str(out)]
        for key, val in args.items():
            argv += [key, val]
        # a numpy warning (an infinite grid end) would add stderr lines
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = self.assert_config_error(capsys, argv, out)
        if flag.startswith("--eps"):
            assert "--eps-max" in err

    def test_verify_wiring(self, capsys, monkeypatch):
        def passes():
            pass

        def fails():
            raise AssertionError("boom")

        monkeypatch.setattr(verify, "CHECKS", [("a", passes), ("b", fails)])
        assert main(["verify"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "PASS a", "FAIL b: boom", "1/2 checks passed"]
        monkeypatch.setattr(verify, "CHECKS", [("a", passes)])
        assert main(["verify"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS a", "1/1 checks passed"]
        assert main(["verify", "--quick"]) == 2


class TestBoundsOracle:
    """``bounds`` prints trial 0 of ``simulate``, byte for byte as before."""

    def run(self, capsys, argv):
        capsys.readouterr()
        assert main(argv) == 0
        return capsys.readouterr().out

    def digest(self, tmp_path, capsys, text):
        path = tmp_path / "b.cfg"
        path.write_text(text)
        got = self.run(capsys, ["bounds", "--config", str(path)])
        return hashlib.sha256(got.encode()).hexdigest()

    def test_minimal_stdout_pinned(self, tmp_path, capsys):
        # MINIMAL's trial 0 takes the zero exit: solver_iterations = 0
        assert self.digest(tmp_path, capsys, MINIMAL) == (
            "815528864ce2d309f70b3090f36e3e290bbe60a05d86d7863a288cc14ee9e7d1")

    def test_bom_prefixed_config_prints_the_same_stdout(self, tmp_path,
                                                        capsys):
        # Windows Notepad starts a UTF-8 file with a byte-order mark
        path = tmp_path / "bom.cfg"
        path.write_bytes(codecs.BOM_UTF8 + MINIMAL.encode())
        got = self.run(capsys, ["bounds", "--config", str(path)])
        assert hashlib.sha256(got.encode()).hexdigest() == (
            "815528864ce2d309f70b3090f36e3e290bbe60a05d86d7863a288cc14ee9e7d1")

    def test_iterating_stdout_pinned(self, tmp_path, capsys):
        assert self.digest(tmp_path, capsys, ITERATING) == (
            "dae055785eeed5764a90664fef8a2b9ea04a986324e4d6019a67e621092adc7f")

    @pytest.mark.parametrize("extra, seed, snr", [
        ([], 42, 1.5),
        (["--set", "seed=44"], 44, 1.5),
        (["--set", "snr=10"], 42, 10.0),
        (["--set", f"seed={2 ** 64 - 1}"], 2 ** 64 - 1, 1.5),  # the widest
    ])
    def test_same_precedence_as_simulate(self, tmp_path, capsys, extra, seed,
                                         snr):
        body = "n = 50\np = 20\neps = 0.9\ntau = 0.2\n"
        path = tmp_path / "run.cfg"
        path.write_text("seed = 42\nsnr = 1.5\n" + body)
        out = tmp_path / "row0.csv"
        self.run(capsys, ["simulate", "--config", str(path), "--out", str(out),
                          "--set", "num_trials=1"] + extra)
        got = self.run(capsys, ["bounds", "--config", str(path)] + extra)
        with open(out) as fh:
            row = next(csv.DictReader(fh))
        printed = dict(line.split(" = ") for line in got.splitlines())
        for key in ("snr", "sigma2", "regret_bound", "typical"):
            assert printed[key] == row[key]
        # the winning seed and snr, written into the file with no overrides
        explicit = tmp_path / "explicit.cfg"
        explicit.write_text(f"seed = {seed}\nsnr = {snr}\n" + body)
        assert got == self.run(capsys, ["bounds", "--config", str(explicit)])


def readme_cli_block(lang):
    """The first ``lang`` code block under README ``## CLI``."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{lang}\n", 1)[1].split("\n```", 1)[0]


def test_readme_cli_flags_match_parser():
    """The ``sh`` block under README ``## CLI`` names, for each subcommand,
    exactly the option strings the parser defines, ``-h/--help`` aside."""
    documented = {}
    for line in readme_cli_block("sh").replace("\\\n", " ").splitlines():
        words = line.split()
        if words[:1] == ["mdlasso"]:
            documented[words[1]] = set(re.findall(r"--[a-z][a-z-]*", line))
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    defined = {name: {opt for action in sub._actions
                      for opt in action.option_strings} - {"-h", "--help"}
               for name, sub in subparsers.choices.items()}
    assert documented == defined


def test_readme_config_block_shows_the_defaults():
    """The ``ini`` block under README ``## CLI`` parses, names every
    document key, and shows each default ``ExperimentConfig`` has."""
    block = readme_cli_block("ini")
    cfg = parse_config(block)
    assert set(cli.CONFIG_KEYS) <= set(re.findall(r"[a-z_0-9]+", block))
    defaults = {f.name: f.default for f in cli.CONFIG_KEYS.values()
                if f.default not in (dataclasses.MISSING, None)}
    assert set(defaults) == {"num_trials", "lam", "beta", "eps", "tau",
                             "magnitude"}
    assert {name: getattr(cfg, name) for name in defaults} == defaults


def python_m_mdlasso(*argv):
    """``python -m mdlasso *argv`` from this checkout, ``src`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "mdlasso", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["simulate"], 2)])
def test_python_m_mdlasso(argv, code):
    """``python -m mdlasso`` runs ``cli.main`` from a checkout with ``src``
    on the path and exits with its code: the usage on stdout for
    ``--help``, 2 for a missing required option."""
    done = python_m_mdlasso(*argv)
    assert done.returncode == code
    stream = done.stdout if code == 0 else done.stderr
    assert stream.startswith("usage: mdlasso ")


def test_python_m_mdlasso_overflow_is_one_error_line(tmp_path):
    """At sigma2 = 1e307, ||Y||^2 overflows: ``simulate`` exits 1 with its
    one ``error:`` line on stderr, and no numpy warning before it."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 20\np = 5\nsigma2 = 1e307\nseed = 1\n")
    done = python_m_mdlasso("simulate", "--config", str(cfg),
                            "--out", str(tmp_path / "t.csv"))
    assert done.returncode == 1
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: regret main term is ")
