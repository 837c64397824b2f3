import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lindet
from lindet.cli import main
from lindet.config import build_lindbladian, load_config, parse_config
from lindet.errors import ConfigError
from lindet.model import (
    derive_locality_degree,
    diagonal_frobenius,
    twirled_generator,
)
from lindet.paulis import PauliString

from helpers import is_purely_hamiltonian

CONFIGS = "configs"


def write(tmp_path, text, name="gen.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_hamiltonian_only(self, tmp_path):
        lind = parse_config(
            write(tmp_path, "n: 1\nhamiltonian:\n  - {pauli: Z, coeff: 1.0}\n")
        )
        assert is_purely_hamiltonian(lind)
        assert lind.hamiltonian.terms == ((PauliString.from_text("Z"), 1.0),)

    def test_dephasing_norm(self, tmp_path):
        coeff = math.sqrt(0.3536)
        lind = parse_config(
            write(
                tmp_path,
                "n: 1\njumps:\n  - support: [0]\n    terms:\n"
                f"      - {{pauli: Z, re: {coeff!r}, im: 0.0}}\n",
            )
        )
        norm = diagonal_frobenius(twirled_generator(lind))
        assert norm == pytest.approx(0.3536 * math.sqrt(2), abs=1e-12)

    def test_support_derived_from_terms(self, tmp_path):
        lind = parse_config(
            write(
                tmp_path,
                "n: 2\njumps:\n  - terms:\n      - {pauli: IZ, re: 1.0, im: 0.0}\n",
            )
        )
        assert lind.dissipator.jumps[0].support == {1}
        assert derive_locality_degree(lind.dissipator) == (1, 1)

    def test_duplicate_hamiltonian_terms_merge(self, tmp_path):
        lind = parse_config(
            write(
                tmp_path,
                "n: 1\nhamiltonian:\n"
                "  - {pauli: Z, coeff: 1.0}\n"
                "  - {pauli: Z, coeff: 0.5}\n"
                "  - {pauli: I, coeff: 9.0}\n",
            )
        )
        assert lind.hamiltonian.terms == ((PauliString.from_text("Z"), 1.5),)

    def test_identity_jump_term_rejected_with_line(self, tmp_path):
        path = write(
            tmp_path,
            "n: 1\njumps:\n  - terms:\n      - {pauli: I, re: 1.0, im: 0.0}\n",
        )
        with pytest.raises(ConfigError, match="traceless") as info:
            parse_config(path)
        assert "line 4" in str(info.value)

    @pytest.mark.parametrize(
        "text,match",
        [
            ("n: 1\njumps:\n  - terms:\n      - {pauli: ZZ, re: 1, im: 0}\n", "length"),
            ("n: 1\njumps:\n  - terms:\n      - {pauli: Q, re: 1, im: 0}\n", "letters"),
            (
                "n: 2\njumps:\n  - support: [0]\n    terms:\n"
                "      - {pauli: IZ, re: 1, im: 0}\n",
                "outside the declared support",
            ),
            ("n: 1\nbogus: 3\n", "unknown key"),
            ("n: 0\n", "positive"),
            ("hamiltonian: []\n", "missing required key"),
            ("n: 5\n", "capacity"),
            ("n: 1\ncapacity_override: 9\n", "capacity_override"),
            (
                "n: 1\njumps:\n  - terms:\n"
                "      - {pauli: Z, re: 1, im: 0}\n"
                "      - {pauli: Z, re: 2, im: 0}\n",
                "duplicate jump term",
            ),
            ("n: 1\njumps:\n  - terms: []\n", "no terms"),
            (
                "n: 1\ndeclared_k: 2\njumps:\n  - terms:\n"
                "      - {pauli: Z, re: 1, im: 0}\n",
                "declared_k",
            ),
            (
                "n: 1\ndeclared_degree: 5\njumps:\n  - terms:\n"
                "      - {pauli: Z, re: 1, im: 0}\n",
                "declared_degree",
            ),
            (
                'n: 1\nhamiltonian:\n  - {pauli: Z, coeff: "1e-3"}\n',
                "line 3: hamiltonian coeff must be a real number",
            ),
            (
                "n: 1\nhamiltonian:\n  - {pauli: Z, coeff: .nan}\n",
                "line 3: hamiltonian coeff must be finite",
            ),
            (
                "n: 1\njumps:\n  - terms:\n      - {pauli: Z, re: .inf, im: 0}\n",
                "line 4: re must be finite",
            ),
        ],
    )
    def test_invalid_configs(self, tmp_path, text, match):
        with pytest.raises(ConfigError, match=match):
            parse_config(write(tmp_path, text))

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        text = f"n: 1\nhamiltonian:\n  - {{pauli: Z, coeff: {10**309}}}\n"
        message = "line 3: hamiltonian coeff must be finite"
        with pytest.raises(ConfigError, match=message):
            parse_config(write(tmp_path, text))

    def test_plain_exponent_notation(self, tmp_path):
        # YAML 1.1 resolves a plain 1e-3 (no dot) as a string
        lind = parse_config(
            write(
                tmp_path,
                "n: 1\nhamiltonian:\n  - {pauli: Z, coeff: -2E+1}\n"
                "jumps:\n  - terms:\n      - {pauli: X, re: 1e-3, im: 0}\n",
            )
        )
        assert lind.hamiltonian.terms == ((PauliString.from_text("Z"), -20.0),)
        (jump,) = lind.dissipator.jumps
        assert jump.coefficients == {PauliString.from_text("X"): 1e-3}

    def test_empty_file(self, tmp_path):
        with pytest.raises(ConfigError, match="empty"):
            parse_config(write(tmp_path, ""))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config("/nonexistent/gen.yaml")

    def test_capacity_override_allows_larger_n(self, tmp_path):
        config = load_config(
            write(tmp_path, "n: 5\ncapacity_override: 5\n")
        )
        assert config.capacity == 5
        assert build_lindbladian(config).n == 5

    def test_capacity_override_reaches_dense_engine(self, tmp_path):
        path = write(
            tmp_path,
            "n: 5\ncapacity_override: 5\njumps:\n  - terms:\n"
            "      - {pauli: ZIIII, re: 0.4, im: 0.0}\n",
        )
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--config", path, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4**5 + 1

    def test_bundled_configs_parse(self):
        for name in (
            "hamiltonian_z",
            "dephasing_strong",
            "depolarizing_quarter",
            "two_qubit_mixed",
        ):
            config = load_config(f"{CONFIGS}/{name}.yaml")
            lind = build_lindbladian(config)
            assert lind.n == config.lindbladian.n


class TestCurveCommand:
    def test_csv_header_and_round_trip(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            [
                "curve",
                "--config",
                f"{CONFIGS}/dephasing_strong.yaml",
                "--t-max",
                "2.0",
                "--points",
                "9",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,i_exact,i_twirled,purity"
        assert len(lines) == 10
        # re-emitting parsed floats reproduces the file byte for byte
        for line in lines[1:]:
            values = [float(v) for v in line.split(",")]
            assert ",".join(f"{v:.17g}" for v in values) == line

    def test_dephasing_closed_form(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert (
            main(
                [
                    "curve",
                    "--config",
                    f"{CONFIGS}/dephasing_strong.yaml",
                    "--t-max",
                    "3.0",
                    "--points",
                    "20",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        rate = 0.3536
        for line in out.read_text().splitlines()[1:]:
            t, i_exact, i_twirled, pur = (float(v) for v in line.split(","))
            expected = (2 + 2 * math.exp(-2 * rate * t)) / 4
            assert i_exact == pytest.approx(expected, abs=1e-9)
            assert i_twirled == pytest.approx(expected, abs=1e-9)
            assert pur == pytest.approx(
                (2 + 2 * math.exp(-4 * rate * t)) / 4, abs=1e-9
            )

    def test_hamiltonian_identity_probability_oscillates(self, tmp_path):
        # coherent precession is a rotation in operator space: the identity
        # outcome probability is cos^2(t), not constant
        out = tmp_path / "curve.csv"
        assert (
            main(
                [
                    "curve",
                    "--config",
                    f"{CONFIGS}/hamiltonian_z.yaml",
                    "--t-max",
                    "3.0",
                    "--points",
                    "16",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        for line in out.read_text().splitlines()[1:]:
            t, i_exact, i_twirled, pur = (float(v) for v in line.split(","))
            assert i_exact == pytest.approx(math.cos(t) ** 2, abs=1e-9)
            # the twirled generator vanishes, so that column stays at 1
            assert i_twirled == pytest.approx(1.0, abs=1e-9)
            assert pur == pytest.approx(1.0, abs=1e-9)

    def test_single_point_rejected(self, tmp_path):
        code = main(
            [
                "curve",
                "--config",
                f"{CONFIGS}/hamiltonian_z.yaml",
                "--t-max",
                "1.0",
                "--points",
                "1",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1

    def test_missing_config(self, tmp_path):
        code = main(
            [
                "curve",
                "--config",
                "/nonexistent.yaml",
                "--t-max",
                "1.0",
                "--points",
                "3",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1


class TestOtherCommands:
    def test_spectrum(self, tmp_path):
        out = tmp_path / "eigenvalues.csv"
        assert (
            main(
                [
                    "spectrum",
                    "--config",
                    f"{CONFIGS}/dephasing_strong.yaml",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "re,im"
        values = sorted(float(line.split(",")[0]) for line in lines[1:])
        assert values == pytest.approx([-0.7072, -0.7072, 0.0, 0.0], abs=1e-9)

    def test_bell_dist(self, tmp_path):
        out = tmp_path / "bell.csv"
        assert (
            main(
                [
                    "bell-dist",
                    "--config",
                    f"{CONFIGS}/dephasing_strong.yaml",
                    "--t",
                    "1.0",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "pauli,probability"
        rows = dict(line.split(",") for line in lines[1:])
        assert set(rows) == {"I", "X", "Y", "Z"}
        assert float(rows["I"]) == pytest.approx(
            (1 + math.exp(-2 * 0.3536)) / 2, abs=1e-9
        )
        assert sum(float(v) for v in rows.values()) == pytest.approx(1.0, abs=1e-9)

    def test_params_output(self, capsys):
        assert (
            main(
                [
                    "params",
                    "--epsilon",
                    "0.5",
                    "--delta",
                    repr(math.exp(-1)),
                    "--k",
                    "1",
                    "--degree",
                    "1",
                    "--l-bound",
                    "1",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.splitlines()
        got = dict(line.split(" = ") for line in lines)
        assert float(got["epsilon'"]) == 0.05
        assert got["m"] == "19200"
        assert got["R"] == "120"
        assert float(got["t_max"]) == 20.0
        assert float(got["T_bound"]) == 2400.0
        assert got["Q_bound"] == "2304000"

    def test_detect_exit_codes(self, tmp_path):
        report = tmp_path / "report.json"
        code = main(
            [
                "--seed",
                "11",
                "detect",
                "--config",
                f"{CONFIGS}/dephasing_strong.yaml",
                "--epsilon",
                "0.5",
                "--delta",
                "0.1",
                "--mode",
                "averaged",
                "--out",
                str(report),
            ]
        )
        assert code == 2
        payload = json.loads(report.read_text())
        assert payload["verdict"] == "REJECT"
        assert payload["params"]["seed"] == 11
        assert payload["rounds"][-1]["rejected"] is True

        code = main(
            [
                "--seed",
                "11",
                "detect",
                "--config",
                f"{CONFIGS}/hamiltonian_z.yaml",
                "--epsilon",
                "0.5",
                "--delta",
                "0.1",
                "--mode",
                "averaged",
                "--override-m",
                str(2**40),
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_detect_out_with_closed_stdout(self, tmp_path, unbuffered):
        # `lindet ... | true`: the reader of stdout is gone before the first
        # line is printed; every command still ends with its own exit code
        env = dict(os.environ, PYTHONPATH=str(Path(lindet.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"

        def run(args):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                return subprocess.run(
                    [sys.executable, "-m", "lindet.cli", *args],
                    stdout=write_end,
                    stderr=subprocess.PIPE,
                    env=env,
                    timeout=120,
                )
            finally:
                os.close(write_end)

        detect = [
            "detect", "--config", f"{CONFIGS}/dephasing_strong.yaml",
            "--epsilon", "0.5", "--delta", "0.1", "--mode", "averaged",
        ]
        # with and without --seed: the drawn-seed line comes before the run
        for seed in (["--seed", "7"], []):
            report = tmp_path / f"r{len(seed)}.json"
            proc = run([*seed, *detect, "--out", str(report)])
            payload = json.loads(report.read_text())
            assert proc.returncode == (2 if payload["verdict"] == "REJECT" else 0)
            assert proc.stderr == b""
        proc = run(["--seed", "3", "verify", "--trials", "5"])
        assert (proc.returncode, proc.stderr) == (0, b"")

    @pytest.mark.parametrize("l_bound", ["-3", "0"])
    def test_detect_rejects_non_positive_l_bound(self, capsys, l_bound):
        code = main(
            [
                "--seed", "1", "detect",
                "--config", f"{CONFIGS}/dephasing_strong.yaml",
                "--epsilon", "0.5", "--delta", "0.1", "--mode", "averaged",
                "--l-bound", l_bound,
            ]
        )
        assert code == 1
        assert "generator bound must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag,value,message",
        [
            ("detect", "--l-bound", "inf", "bound must be positive and finite"),
            ("detect", "--t-max-factor", "inf", "t_max_factor must be positive and"),
            ("detect", "--t-max-factor", "nan", "t_max_factor must be positive and"),
            ("detect", "--epsilon", "1e-300", "derived constants overflow"),
            ("detect", "--epsilon", "nan", "epsilon must be positive and finite"),
            ("detect", "--epsilon", "inf", "epsilon must be positive and finite"),
            (
                "detect", "--config", "nan_coeff",
                "line 3: hamiltonian coeff must be finite",
            ),
            ("detect", "--config", "inf_re", "line 4: re must be finite"),
            ("params", "--l-bound", "inf", "bound must be positive and finite"),
            ("params", "--epsilon", "1e-300", "derived constants overflow"),
            ("params", "--k", "400", "derived constants overflow"),
            ("bell-dist", "--t", "inf", "time must be non-negative and finite"),
            ("bell-dist", "--t", "nan", "time must be non-negative and finite"),
            ("curve", "--t-max", "nan", "t-max must be positive and finite"),
            ("curve", "--t-max", "inf", "t-max must be positive and finite"),
        ],
    )
    @pytest.mark.filterwarnings("error")  # a warning would be one more stderr line
    def test_non_finite_inputs_end_in_one_error_line(
        self, tmp_path, capsys, command, flag, value, message
    ):
        # each value replaces the default of its flag
        configs = {
            "nan_coeff": "n: 1\nhamiltonian:\n  - {pauli: Z, coeff: .nan}\n",
            "inf_re": "n: 1\njumps:\n  - terms:\n      - {pauli: Z, re: .inf, im: 0}\n",
        }
        out = tmp_path / "out.csv"
        defaults = {
            "detect": {
                "--config": f"{CONFIGS}/dephasing_strong.yaml",
                "--epsilon": "0.5", "--delta": "0.1", "--mode": "averaged",
            },
            "params": {
                "--epsilon": "0.5", "--delta": "0.1", "--k": "1", "--degree": "1",
                "--l-bound": "1",
            },
            "bell-dist": {
                "--config": f"{CONFIGS}/dephasing_strong.yaml", "--out": str(out),
            },
            "curve": {
                "--config": f"{CONFIGS}/dephasing_strong.yaml", "--points": "5",
                "--out": str(out),
            },
        }
        if value in configs:
            value = write(tmp_path, configs[value])
        options = {**defaults[command], flag: value}
        argv = ["--seed", "1", command, *(x for kv in options.items() for x in kv)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert message in err
        assert not out.exists()

    def test_detect_missing_file(self):
        code = main(
            [
                "detect",
                "--config",
                "/nonexistent.yaml",
                "--epsilon",
                "0.5",
                "--delta",
                "0.1",
            ]
        )
        assert code == 1

    def test_detect_prints_drawn_seed(self, capsys, tmp_path):
        code = main(
            [
                "detect",
                "--config",
                f"{CONFIGS}/dephasing_strong.yaml",
                "--epsilon",
                "0.5",
                "--delta",
                "0.5",
                "--mode",
                "averaged",
            ]
        )
        assert code in (0, 2)
        assert "seed:" in capsys.readouterr().out

    def test_verify_small(self):
        assert main(["--seed", "3", "verify", "--trials", "5"]) == 0

    def test_verify_single_suite(self):
        assert (
            main(
                [
                    "--seed",
                    "3",
                    "verify",
                    "--suite",
                    "twirl_structure",
                    "--trials",
                    "5",
                ]
            )
            == 0
        )

    def test_verify_unknown_suite(self):
        assert main(["--seed", "3", "verify", "--suite", "bogus"]) == 1
