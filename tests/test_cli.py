import contextlib
import csv
import io
import json
import math
import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mouldnf import Observable
from mouldnf import solver as solver_module
from mouldnf.cli import _table_letters, main
from mouldnf.mould import read_table
from mouldnf.observables import norm_rho, to_json_dict

from conftest import TOY_MODES

PHI = (1 + 5 ** 0.5) / 2


def toy_b_json():
    base = Observable(2, TOY_MODES)
    return to_json_dict((0.01 / norm_rho(base, 1.0)) * base)


def unreached(*args, **kwargs):
    """A stand-in for a step that a refusal must come before."""
    raise AssertionError("ran before the refusal")


def write_config(path, **overrides):
    config = {
        "freq": {"omega": [1.0, PHI], "tau": 1.0, "K": 5},
        "scale": {"rho": 1.0, "rho_prime": 0.5},
        "N": 2,
        "backend": "classical",
        "B": toy_b_json(),
        "seed": 0,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


class TestNormalizeCommand:
    def test_runs_and_writes_reports(self, tmp_path):
        cfg = write_config(tmp_path / "run.json")
        out = tmp_path / "out"
        assert main(["normalize", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "normalize_result.json").read_text())
        assert result["N"] == 2
        assert result["norms"]["E"] > 0
        assert result["commutation_residual"] == 0.0
        assert all(b["holds"] for b in result["bounds"])
        assert (out / "summary.csv").read_text().startswith("backend,N,")

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "run.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["normalize", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["normalize", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "normalize_result.json").read_bytes() == (
            out2 / "normalize_result.json"
        ).read_bytes()
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_byte_identical_reruns_at_sampled_lengths(self, tmp_path):
        # at N=4 the growth fit runs to length 16; lengths 4..16 of the
        # shipped toy letters are sampled by the seeded prefix walk
        config = json.loads((REPO / "configs" / "toy_normalize.json").read_text())
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**config, "N": 4}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["normalize", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["normalize", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("normalize_result.json", "summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_bound_applies_only_under_its_hypothesis(self, tmp_path):
        # ||B||_rho of the shipped toy is under the smallness threshold at
        # N = 2 and over it at N = 3; the bound's sides still compare, and
        # the exit code follows "holds" alone
        config = json.loads((REPO / "configs" / "toy_normalize.json").read_text())
        for N, applies in ((2, True), (3, False)):
            cfg = tmp_path / f"run{N}.json"
            cfg.write_text(json.dumps({**config, "N": N}))
            out = tmp_path / f"out{N}"
            assert main(["normalize", "--config", str(cfg), "--out", str(out)]) == 0
            bound = json.loads((out / "normalize_result.json").read_text())["bounds"][0]
            assert bound["holds"] is True
            assert bound["applies"] is bound["inputs"]["precondition_holds"] is applies
            with open(out / "summary.csv", newline="") as fh:
                header, row = csv.reader(fh)
            assert (header[-1], row[-1]) == ("bound_applies", repr(applies))

    def test_zero_perturbation_all_zero_report(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", B={"d": 2, "coeffs": []}, N=1)
        out = tmp_path / "out"
        assert main(["normalize", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "normalize_result.json").read_text())
        assert result["norms"]["Z"] == 0.0
        assert result["norms"]["E"] == 0.0
        assert result["Z"]["coeffs"] == []

    def test_quantum_backend_with_diagnostics(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", backend="quantum", hbar=0.1, N=1)
        out = tmp_path / "out"
        assert main(["normalize", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "normalize_result.json").read_text())
        assert result["backend"].startswith("quantum")
        assert "hermiticity_defect_Y" in result["diagnostics"]
        assert "unitary_conjugation" in result["diagnostics"]

    def test_normalize_reports_through_N_11_then_refuses_a_Gamma_term(self, tmp_path, capsys):
        # the fit runs to word length N^2; the growth shape
        # (tau/(e eta_r))^(tau r) ~ 2^(r^2), which left float range near
        # r = 33, is no longer formed, so the first refusal is a Gamma term
        config = json.loads((REPO / "configs" / "toy_normalize.json").read_text())
        one_mode = {"d": 2, "coeffs": [{"k": [1, 0], "m": [1, 1], "re": 0.001, "im": 0.0}]}
        for N in range(1, 13):
            cfg = tmp_path / f"run{N}.json"
            cfg.write_text(json.dumps({**config, "N": N, "B": one_mode}))
            out = tmp_path / f"out{N}"
            code = main(["normalize", "--config", str(cfg), "--out", str(out)])
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if N < 12:
                assert code == 0 and err == "", N
                bound = json.loads((out / "normalize_result.json").read_text())["bounds"][0]
                assert math.isfinite(bound["inputs"]["D"])
            else:
                assert code == 1
                assert err.startswith("error: Gamma term at word length 135 = inf")
                assert not any(out.iterdir())

    def test_out_of_domain_exits_one(self, tmp_path):
        big = {
            "d": 2,
            "coeffs": [{"k": [1, 0], "m": [0, 1], "re": 50.0, "im": 0.0}],
        }
        cfg = write_config(tmp_path / "run.json", B=big, N=1)
        assert main(["normalize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


class TestConfigValidation:
    def test_unknown_top_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "run.json")
        data = json.loads(cfg.read_text())
        data["unexpected"] = 1
        cfg.write_text(json.dumps(data))
        assert main(["normalize", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "value",
        [None, 1.0, math.nan, math.inf, True, "1.0"],
        ids=["null", "number", "nan", "inf", "bool", "string"],
    )
    def test_declared_alpha_is_an_unknown_key(self, tmp_path, capsys, value):
        # no computation reads a declared alpha: the bounds use the
        # empirical witness on the box K, so the key is not in the schema
        cfg = write_config(tmp_path / "run.json", freq={"omega": [1.0, PHI], "alpha": value})
        out = tmp_path / "out"
        assert main(["normalize", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config.freq: unknown keys ['alpha']" in capsys.readouterr().err
        assert not any(out.glob("*"))

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_unsaturated_resonance_basis_refused(self, tmp_path, capsys, exact):
        # (2, -2) spans half of the resonances of omega = (1, 1): the mode
        # k = (1, -1) is resonant off the declared lattice, and its words
        # would be divided by the divisor 0
        b = {"d": 2, "coeffs": [{"k": [1, -1], "m": [1, 0], "re": 0.001, "im": 0.0},
                                {"k": [1, 0], "m": [0, 1], "re": 0.001, "im": 0.0}]}
        cfg = write_config(tmp_path / "run.json", B=b,
                           freq={"omega": [1.0, 1.0], "resonance_basis": [[2, -2]]})
        out = tmp_path / "out"
        argv = ["normalize", "--config", str(cfg), "--out", str(out)]
        assert main(argv + ["--exact"] * exact) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config.freq: resonance basis ((2, -2),) spans a "
                              "sublattice of index 2")
        assert "Traceback" not in err and not any(out.glob("*"))

    @pytest.mark.parametrize("command, exact", [("normalize", False), ("verify", True),
                                                ("dump-moulds", True), ("semiclassical", False)])
    def test_incomplete_resonance_basis_refused(self, tmp_path, capsys, command, exact):
        # (1, -1, 0) is one of two independent resonances of omega =
        # (1, 1, 1): the letter sum (0, 1, -1) is resonant off the
        # declared lattice, and its words would be divided by the divisor 0
        b = {"d": 3, "coeffs": [{"k": [0, 1, -1], "m": [1, 0, 0], "re": 0.001, "im": 0.0},
                                {"k": [1, 0, 0], "m": [0, 1, 0], "re": 0.001, "im": 0.0}]}
        cfg = write_config(tmp_path / "run.json", B=b, alphabet=[[0, 1, -1], [1, 0, 0]], max_r=3,
                           freq={"omega": ["1", "1", "1"], "resonance_basis": [[1, -1, 0]]},
                           hbar_list=[0.1, 0.05])
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv + ["--exact"] * exact) == 2
        err = capsys.readouterr().err
        # semiclassical meets (-2, 0, 2) first, in the witness alpha's mode box
        assert err.startswith("config error: letter sum (")
        assert ") is resonant but off the declared lattice" in err and "Traceback" not in err

    def test_missing_b_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "run.json")
        data = json.loads(cfg.read_text())
        del data["B"]
        cfg.write_text(json.dumps(data))
        assert main(["normalize", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_quantum_without_hbar_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", backend="quantum")
        assert main(["normalize", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["hbar", "hbar_list"])
    def test_non_finite_hbar_rejected(self, tmp_path, bad, key):
        value = bad if key == "hbar" else [0.1, bad]
        cfg = write_config(tmp_path / "run.json", backend="quantum", N=1, **{key: value})
        assert "NaN" in cfg.read_text() or "Infinity" in cfg.read_text()
        out = tmp_path / "out"
        assert main(["normalize", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "normalize_result.json").exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_non_finite_coefficient_rejected(self, tmp_path, bad, part):
        b = toy_b_json()
        b["coeffs"][0][part] = bad
        cfg = write_config(tmp_path / "run.json", B=b)
        out = tmp_path / "out"
        assert main(["normalize", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "normalize_result.json").exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["omega", "tau"])
    def test_non_finite_frequency_rejected(self, tmp_path, bad, key):
        freq = {"omega": [1.0, PHI], "tau": 1.0, "K": 5}
        freq[key] = [1.0, bad] if key == "omega" else bad
        cfg = write_config(tmp_path / "run.json", freq=freq)
        out = tmp_path / "out"
        assert main(["normalize", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "normalize_result.json").exists()

    @pytest.mark.parametrize(
        "override",
        [{"N": 0}, {"N": -1}, {"exponential_order": -1}, {"exponential_order": 2.5},
         {"exponential_order": "12"}],
        ids=["N=0", "N=-1", "order=-1", "order=2.5", "order='12'"],
    )
    def test_order_out_of_range_rejected(self, tmp_path, override):
        cfg = write_config(tmp_path / "run.json", **override)
        out = tmp_path / "out"
        assert main(["normalize", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "normalize_result.json").exists()

    @pytest.mark.parametrize(
        "section, key", [("freq", "tau"), ("freq", "omega"), ("scale", "rho"), ("scale", "rho_prime")]
    )
    def test_null_parameter_rejected(self, tmp_path, capsys, section, key):
        cfg = write_config(tmp_path / "run.json")
        data = json.loads(cfg.read_text())
        data.setdefault("scale", {"rho": 1.0, "rho_prime": 0.5})
        data[section][key] = [1.0, None] if key == "omega" else None
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["normalize", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "normalize_result.json").exists()

    @pytest.mark.parametrize(
        "path, value",
        [
            (("B", "coeffs", 0, "k"), [1.5, 0]),
            (("B", "coeffs", 0, "k"), [True, 0]),
            (("B", "coeffs", 0, "m"), [0, True]),
            (("B", "coeffs", 0, "k"), 5),
            (("B", "d"), 2.7),
            (("B", "d"), True),
            (("B",), 5),
            (("B", "coeffs"), 5),
            (("B", "coeffs"), [5]),
            (("B", "coeffs", 0, "re"), "1e-3"),
            (("B", "coeffs", 0, "im"), True),
            (("B",), {"d": 3, "coeffs": []}),
            (("B",), {"d": 2, "coeffs": [], "real": "no"}),
            (("scale",), 5),
            (("scale",), None),
            (("B", "coeffs", 0, "imag"), 0.5),
        ],
        ids=["k-float", "k-bool", "m-bool", "k-int", "d-float", "d-bool", "B-int", "coeffs-int",
             "coeffs-entry-int", "re-string", "im-bool", "d-mismatch", "real-string", "scale-int",
             "scale-null", "coeff-unknown-key"],
    )
    def test_malformed_b_or_scale_rejected(self, tmp_path, capsys, path, value):
        cfg = write_config(tmp_path / "run.json", N=1)
        data = json.loads(cfg.read_text())
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["normalize", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "normalize_result.json").exists()

    @pytest.mark.parametrize(
        "path",
        [("scale", "rho"), ("freq", "tau"), ("hbar",), ("tolerances", "residual"),
         ("B", "coeffs", 0, "re")],
        ids=["rho", "tau", "hbar", "tolerance", "re"],
    )
    def test_integer_too_large_for_a_float_rejected(self, tmp_path, capsys, path):
        cfg = write_config(tmp_path / "run.json", N=1, backend="quantum", hbar=0.1, tolerances={})
        data = json.loads(cfg.read_text())
        _set(data, path, 10 ** 400)
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["normalize", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (out / "normalize_result.json").exists()

    @pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "invalid"])
    def test_unreadable_b_path_rejected(self, tmp_path, capsys, content):
        if content is not None:
            (tmp_path / "b.json").write_text(content)
        cfg = write_config(tmp_path / "run.json", N=1)
        data = json.loads(cfg.read_text())
        del data["B"]
        data["B_path"] = "b.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["normalize", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "normalize_result.json").exists()

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2"])
    @pytest.mark.parametrize("key", ["N", "max_r"])
    def test_non_integer_order_rejected(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "run.json", **{key: value})
        out = tmp_path / "out"
        assert main(["normalize", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "normalize_result.json").exists()

    @pytest.mark.parametrize(
        "key, value",
        [("K", None), ("K", 1.5), ("K", 0), ("seed", None), ("seed", 1.5),
         ("samples", None), ("samples", 1.5), ("samples", -1)],
    )
    def test_bad_count_rejected(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "run.json", samples=5)
        data = json.loads(cfg.read_text())
        (data["freq"] if key == "K" else data)[key] = value
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "verify_report.jsonl").exists()

    @pytest.mark.parametrize(
        "command, report", [("verify", "verify_report.jsonl"), ("dump-moulds", "moulds.json")]
    )
    @pytest.mark.parametrize(
        "alphabet",
        [[[1.5, 0], [0, 1]], [[None, 0]], [[1], [0, 1]], [1, 0]],
        ids=["fractional", "null", "wrong-length", "not-a-list"],
    )
    def test_malformed_alphabet_rejected(self, tmp_path, capsys, alphabet, command, report):
        cfg = write_config(tmp_path / "run.json", alphabet=alphabet, max_r=2, samples=5)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / report).exists()

    @pytest.mark.parametrize(
        "command, report", [("verify", "verify_report.jsonl"), ("dump-moulds", "moulds.json")]
    )
    def test_repeated_letter_rejected(self, tmp_path, capsys, command, report):
        # a repeated letter would repeat every word 2^r times
        cfg = write_config(tmp_path / "run.json", alphabet=[[0, 1], [1, 0], [0, 1]], max_r=2,
                           samples=5)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "letter [0, 1] is repeated" in err
        assert not (out / report).exists()

    @pytest.mark.parametrize(
        "tolerances",
        [[1], {"residual": None}, {"residual": "1e-3"}, {"residul": 1e-3},
         {"residual": -1e-3}, {"residual": float("nan")}, {"residual": True}],
        ids=["list", "null", "string", "unknown-key", "negative", "nan", "bool"],
    )
    def test_malformed_tolerances_rejected(self, tmp_path, capsys, tolerances):
        cfg = write_config(tmp_path / "run.json", alphabet=[[1, 0]], max_r=1, samples=5,
                           tolerances=tolerances)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "verify_report.jsonl").exists()

    @pytest.mark.parametrize(
        "command, freq",
        [
            ("normalize", {"omega": [True, PHI]}),
            ("verify", {"omega": ["1", "1"], "resonance_basis": [[True, -1]]}),
            ("verify --exact", {"omega": ["1", "1"], "resonance_basis": [[True, -1]]}),
        ],
        ids=["omega", "resonance-basis", "resonance-basis-exact"],
    )
    def test_boolean_frequency_entry_rejected(self, tmp_path, capsys, command, freq):
        cfg = write_config(tmp_path / "run.json", N=1, samples=5, freq=dict(freq, tau=1.0, K=5))
        out = tmp_path / "out"
        assert main([*command.split(), "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not any(out.glob("*"))

    def test_boolean_hbar_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json", backend="quantum", N=1, hbar=True)
        out = tmp_path / "out"
        assert main(["normalize", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "normalize_result.json").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [("freq", "tau", True), ("scale", "rho", True), ("scale", "rho_prime", True),
         ("freq", "tau", "1.0")],
        ids=["tau-bool", "rho-bool", "rho_prime-bool", "tau-string"],
    )
    def test_non_number_parameter_rejected(self, tmp_path, capsys, section, key, value):
        # rho = 2 so that rho_prime = 1 would be in range
        cfg = write_config(tmp_path / "run.json", N=1, scale={"rho": 2.0, "rho_prime": 0.5})
        data = json.loads(cfg.read_text())
        data[section][key] = value
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main(["normalize", "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "normalize_result.json").exists()

    @pytest.mark.parametrize(
        "command, key, report",
        [("normalize", "B_path", "normalize_result.json"), ("verify", "mould_table", "verify_report.jsonl")],
    )
    def test_non_string_path_rejected(self, tmp_path, capsys, command, key, report):
        cfg = write_config(tmp_path / "run.json", N=1, alphabet=[[1, 0]], max_r=1, samples=5)
        data = json.loads(cfg.read_text())
        if key == "B_path":
            del data["B"]
        data[key] = 5
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / report).exists()

    def test_b_path_relative_to_config(self, tmp_path):
        (tmp_path / "b.json").write_text(json.dumps(toy_b_json()))
        cfg = write_config(tmp_path / "run.json", N=1)
        data = json.loads(cfg.read_text())
        del data["B"]
        data["B_path"] = "b.json"
        cfg.write_text(json.dumps(data))
        assert main(["normalize", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_word_budget_cap(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json", N=3)
        assert (
            main(["normalize", "--config", str(cfg), "--out", str(tmp_path), "--max-words", "10"])
            == 2
        )
        # 10 is below the 11^2 modes of the K box, which is refused first;
        # at N = 4 the 340 words over the 4 letters pass a budget of 200
        # only after the box does
        assert capsys.readouterr().err == (
            "error: the K = 5 box takes 121 modes, over the budget 10 of --max-words\n")
        cfg = write_config(tmp_path / "run.json", N=4)
        assert (
            main(["normalize", "--config", str(cfg), "--out", str(tmp_path), "--max-words", "200"])
            == 2
        )
        assert capsys.readouterr().err == (
            "error: the comould walk to N = 4 over 4 letters takes 340 words, over the budget "
            "200 of --max-words\n")

    @pytest.mark.parametrize(
        "command, override",
        [("normalize", {"N": 10 ** 6}), ("verify", {"max_r": 10 ** 7}),
         ("dump-moulds", {"max_r": 10 ** 7})],
    )
    def test_word_budget_refused_before_counting_every_word(self, tmp_path, capsys, command, override):
        cfg = write_config(tmp_path / "run.json", alphabet=[[1, 0], [0, 1], [-1, 0]], **override)
        start = time.perf_counter()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert time.perf_counter() - start < 1.0
        # normalize walks the 4 letters of B, the others the 3 of the alphabet
        what = ("the comould walk to N = 1000000 over 4 letters" if command == "normalize"
                else "the word walk to max_r = 10000000 over 3 letters")
        assert capsys.readouterr().err == (
            f"error: {what} takes more than 200000 words, over the budget 200000 of --max-words\n")

    @pytest.mark.parametrize(
        "command, override",
        [pytest.param(command, override, id=prefix + name)
         for command, prefix in (("normalize", ""), ("semiclassical", "semiclassical-"))
         for name, override in (
             ("rho", {"scale": {"rho": 1000.0, "rho_prime": 999.0}}),
             ("k", {"B": {"d": 2, "coeffs": [{"k": [400, 0], "m": [0, 1], "re": 1e-3}]}}),
             ("huge-k", {"B": {"d": 2, "coeffs": [{"k": [10 ** 400, 0], "m": [0, 1], "re": 1e-3}]}}),
             # a finite norm whose N-th power, the scale of the bound, is not
             ("power", {"B": {"d": 2, "coeffs": [{"k": [0, 0], "m": [400, 0], "re": 1.0}]}}),
         )],
    )
    def test_weight_beyond_float_range_is_out_of_domain(self, tmp_path, capsys, command, override):
        cfg = write_config(tmp_path / "run.json", hbar_list=[0.1, 0.01], **override)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert "outside the domain of the exponential bound" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "command, power, norm_b",
        # the rhs factors are D ~ 5e4 and hbar^2 C_N ~ 3.8 at hbar = 1
        [("normalize", 3, 5e101), ("semiclassical", 2, 1.2e154)],
    )
    def test_bound_beyond_float_range_is_out_of_domain(self, tmp_path, capsys, command, power,
                                                       norm_b):
        # a resonant mode of norm ~ norm_b whose brackets with the rest vanish
        p = int(math.log(norm_b / 1e-3))
        big = {((0, 0), (0, p)): norm_b / math.exp(p)}
        B = Observable(2, {((1, 0), (0, 1)): 1e-3, ((-1, 0), (0, -1)): 1e-3, **big})
        assert math.isfinite(norm_rho(B, 1.0) ** power)  # only the rhs overflows
        cfg = write_config(tmp_path / "run.json", hbar_list=[1.0], B=to_json_dict(B))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert "outside the domain of the exponential bound" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["normalize", "semiclassical"])
    def test_alpha_box_over_budget_refused(self, tmp_path, capsys, command):
        # diophantine_alpha scans (2K+1)^d modes; K = 10000 gives 20001^2
        cfg = write_config(tmp_path / "run.json", hbar_list=[0.1, 0.01],
                           freq={"omega": [1.0, PHI], "tau": 1.0, "K": 10000})
        start = time.perf_counter()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == ("error: the K = 10000 box takes 400040001 modes, "
                                           "over the budget 200000 of --max-words\n")

    def test_semiclassical_word_budget(self, tmp_path, capsys, monkeypatch):
        # the walk of the 4 toy letters to N = 4 takes 340 words, as in
        # normalize; the K box of 11^2 modes fits a budget of 200
        monkeypatch.setattr("mouldnf.cli.estimates.verify_semiclassical", unreached)
        config = json.loads((REPO / "configs" / "toy_semiclassical.json").read_text())
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({**config, "N": 4}))
        out = tmp_path / "out"
        assert main(["semiclassical", "--config", str(cfg), "--out", str(out), "--max-words", "200"]) == 2
        assert capsys.readouterr().err == (
            "error: the comould walk to N = 4 over 4 letters takes 340 words, over the budget "
            "200 of --max-words\n")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("max_words, code", [(300, 2), (5424, 2), (5425, 0)])
    def test_mould_table_keys_budgeted_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                        max_words, code):
        # one key of the 30 distinct letters (1, 0), ..., (30, 0) takes the
        # 30 * 31 * 35 / 6 = 5425 letters of its subwords' nodes; the Moyal
        # box of 17^2 modes and the one config word fit every budget here
        key = "|".join(f"{j},0" for j in range(1, 31))
        (tmp_path / "table.json").write_text(json.dumps({"F": {key: [0.0, 0.0]}, "S": {}, "G": {}}))
        cfg = write_config(
            tmp_path / "run.json", alphabet=[[1, 0]], max_r=1, samples=5, mould_table="table.json"
        )
        if code:
            monkeypatch.setattr("mouldnf.cli.MouldSolver", unreached)
        out = tmp_path / "out"
        argv = ["verify", "--config", str(cfg), "--out", str(out), "--max-words", str(max_words)]
        assert main(argv) == code
        err = capsys.readouterr().err
        if code:
            assert err == (f"error: the solve of the mould_table keys takes 5425 letters, over the "
                           f"budget {max_words} of --max-words\n")
            assert not (out / "verify_report.jsonl").exists()
        else:
            assert err == ""
            last = json.loads((out / "verify_report.jsonl").read_text().splitlines()[-1])
            assert last == {"name": "golden_mould_table", "ok": True, "max_deviation": 0.0}

    @pytest.mark.parametrize("golden", ["moulds_golden.json", "moulds_exact_golden.json"])
    def test_shipped_table_keys_count_once_each(self, golden):
        # each of the 39 keys, of length 1 to 4 with its w[:-1] and w[1:]
        # among them, counts its length + 1 letters
        exact = golden == "moulds_exact_golden.json"
        tables = read_table(json.loads((REPO / "goldens" / golden).read_text()), 2, exact)
        assert {len(t) for t in tables.values()} == {39}
        assert _table_letters(tables) == sum(len(w) + 1 for w in tables["F"]) == 141

    def test_moyal_box_over_budget_refused_before_equation_check(self, tmp_path, capsys,
                                                                 monkeypatch):
        # float verify's Moyal check scans (2*8+1)^d basis vectors: 17^5 = 1419857
        monkeypatch.setattr("mouldnf.cli.verify_equation", unreached)
        monkeypatch.setattr("mouldnf.cli.validate_moyal", unreached)
        omega = [1.0, PHI, 2 ** 0.5, 3 ** 0.5, 5 ** 0.5]
        cfg = write_config(tmp_path / "run.json", freq={"omega": omega, "tau": 1.0, "K": 5})
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == ("error: the Moyal check at cutoff 8 takes 1419857 modes, "
                                           "over the budget 200000 of --max-words\n")

    @pytest.mark.parametrize(
        "command, override, refusal",
        [pytest.param("dump-moulds", {"alphabet": [[1, 0], [0, 1], [-1, 0]], "max_r": 10 ** 7},
                      "the word walk to max_r = 10000000 over 3 letters takes more than 200000 "
                      "words", id="word-walk"),
         pytest.param("semiclassical", {"N": 10 ** 6, "hbar_list": [0.1]},
                      "the comould walk to N = 1000000 over 4 letters takes more than 200000 "
                      "words", id="comould-walk"),
         pytest.param("normalize", {"freq": {"omega": [1.0, PHI], "tau": 1.0, "K": 10000}},
                      "the K = 10000 box takes 400040001 modes", id="k-box"),
         pytest.param("verify", {"freq": {"omega": [1.0, PHI, 2 ** 0.5, 3 ** 0.5, 5 ** 0.5]}},
                      "the Moyal check at cutoff 8 takes 1419857 modes", id="moyal-box"),
         # one random two-letter key of 600 letters, whose w[:-1] and w[1:]
         # are not keys: 600 * 601 * 605 / 6 letters in its subwords' nodes
         pytest.param("verify", {"alphabet": [[1, 0]], "max_r": 1, "mould_table": "table.json"},
                      "the solve of the mould_table keys takes 36360500 letters",
                      id="table-keys")],
    )
    def test_every_refusal_is_one_line_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                       command, override, refusal):
        for step in ("MouldSolver", "verify_equation", "validate_moyal", "normalize",
                     "diophantine_alpha", "estimates.fit_growth_constants",
                     "estimates.verify_semiclassical"):
            monkeypatch.setattr(f"mouldnf.cli.{step}", unreached)
        rng = random.Random(0)
        key = "|".join(rng.choice(["1,0", "0,1"]) for _ in range(600))
        (tmp_path / "table.json").write_text(json.dumps({"F": {key: [0.0, 0.0]}, "S": {}, "G": {}}))
        cfg = write_config(tmp_path / "run.json", **override)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {refusal}, over the budget 200000 of --max-words\n")
        assert not any(out.iterdir())


REPO = Path(__file__).parent.parent
# each shipped config with the command it is made for
SHIPPED = {
    "rational_moulds.json": ["dump-moulds", "--exact"],
    "toy_normalize.json": ["normalize"],
    "toy_semiclassical.json": ["semiclassical"],
    "verify_suite.json": ["verify"],
}
# keys of the shipped configs that may be null
NULLABLE = {"hbar", "mould_table"}
# entries whose finiteness the Frequency and Observable constructors check
# and report by section
OWN_FINITENESS = {"omega": "config.freq", "re": "config.B", "im": "config.B"}
# values out of a declared range, with the path the refusal names
OUT_OF_RANGE = [
    (("N",), 0, "config.N"),
    (("freq", "K"), 0, "config.freq.K"),
    (("samples",), -1, "config.samples"),
    (("max_r",), 0, "config.max_r"),
    (("exponential_order",), -1, "config.exponential_order"),
    (("freq", "tau"), 0.5, "config.freq.tau"),
    # rho_prime < rho is a rule across keys, checked by ScaleParams
    (("scale", "rho_prime"), 1.0, "config.scale"),
]


def _leaves(value, path=()):
    """``(path, value)`` for every scalar of a JSON document, list entries included."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path, value


def _key_path(path):
    """The dotted config path of the key holding the leaf at ``path``."""
    keys = path[: max(i for i, p in enumerate(path) if isinstance(p, str)) + 1]
    return "config" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in keys)


def _mutations(path, value):
    """``(bad value, path the refusal names)`` for a leaf of a shipped config."""
    key = next(p for p in reversed(path) if isinstance(p, str))
    named = _key_path(path)
    number = type(value) in (int, float)
    yield {}, named  # no leaf of a config is an object
    if number:
        yield "x", named
    yield True, named
    if key not in NULLABLE:
        yield None, named
    if number:
        yield math.nan, OWN_FINITENESS.get(key, named)
    if type(value) is float:
        yield 10 ** 400, named


def _set(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


# (config, path, [(bad value, path the refusal names), ...]), one per leaf
MUTATION_CASES = [
    (name, path, list(_mutations(path, value)))
    for name in SHIPPED
    for path, value in _leaves(json.loads((REPO / "configs" / name).read_text()))
] + [(name, path, [(bad, named)]) for name in SHIPPED for path, bad, named in OUT_OF_RANGE]


@settings(max_examples=300)
@given(st.sampled_from(MUTATION_CASES))
def test_every_mutated_leaf_of_a_shipped_config_is_refused(case):
    name, path, mutations = case
    for bad, named in mutations:
        data = json.loads((REPO / "configs" / name).read_text())
        _set(data, path, bad)
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / name, Path(tmp) / "out"
            cfg.write_text(json.dumps(data))
            with contextlib.redirect_stderr(err):
                code = main([*SHIPPED[name], "--config", str(cfg), "--out", str(out)])
            assert not out.exists() or not any(out.iterdir())
        assert code == 2, (path, bad)
        assert err.getvalue().startswith("config error: ")
        assert named in err.getvalue() and "Traceback" not in err.getvalue()


class TestDumpMoulds:
    def test_exact_mode_rational_strings(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.json",
            freq={"omega": ["1", "2"], "tau": 1.0, "resonance_basis": [[2, -1]]},
            alphabet=[[1, 0], [2, -1]],
            max_r=2,
        )
        out = tmp_path / "out"
        assert main(["dump-moulds", "--config", str(cfg), "--out", str(out), "--exact"]) == 0
        table = json.loads((out / "moulds.json").read_text())
        assert table["exact"] is True
        # closed-form fixtures at length one
        assert table["F"]["2,-1"] == ["1", "0"]
        assert table["S"]["2,-1"] == ["0", "0"]
        assert table["S"]["1,0"] == ["0", "-1"]
        assert table["G"]["1,0"] == ["0", "-1"]

    def test_empty_alphabet_header_only(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", alphabet=[], max_r=3)
        out = tmp_path / "out"
        assert main(["dump-moulds", "--config", str(cfg), "--out", str(out)]) == 0
        table = json.loads((out / "moulds.json").read_text())
        assert table["F"] == {} and table["S"] == {} and table["G"] == {}

    def test_float_mode_values(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", alphabet=[[1, 0], [-1, 0]], max_r=2)
        out = tmp_path / "out"
        assert main(["dump-moulds", "--config", str(cfg), "--out", str(out)]) == 0
        table = json.loads((out / "moulds.json").read_text())
        assert table["F"]["1,0|-1,0"] == pytest.approx([0.0, 1.0])  # -1/lambda = i


class TestVerifyCommand:
    def test_default_suite_passes(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.json",
            alphabet=[[1, 0], [0, 1], [-1, 0]],
            max_r=3,
            samples=25,
            hbar=0.5,
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        lines = [json.loads(l) for l in (out / "verify_report.jsonl").read_text().splitlines()]
        names = {l["name"] for l in lines}
        assert "mould_equation" in names
        assert "alternality_F" in names

    def test_exact_mode_suite(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.json",
            freq={"omega": ["1", "2"], "tau": 1.0, "resonance_basis": [[2, -1]]},
            alphabet=[[1, 0], [1, -1], [2, -1]],
            max_r=3,
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out), "--exact"]) == 0
        lines = [json.loads(l) for l in (out / "verify_report.jsonl").read_text().splitlines()]
        eq = next(l for l in lines if l["name"] == "mould_equation")
        assert eq["exact"] and eq["max_residual"] == 0.0

    def test_one_letter_default_alphabet_passes(self, tmp_path):
        # no alphabet: the one letter (1, 0); G vanishes on its words of
        # length >= 2, so every shuffle sum is rounding dust
        cfg = write_config(tmp_path / "run.json", freq={"omega": [1.0, 2.0], "tau": 1.0, "K": 5},
                           alphabet=[], max_r=4, samples=5)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        report = (out / "verify_report.jsonl").read_text().splitlines()
        alternality_g = next(l for l in map(json.loads, report) if l["name"] == "alternality_G")
        assert alternality_g["ok"] and alternality_g["max_ratio"] < 1e-10
        assert alternality_g["pairs"] == 6

    @pytest.mark.parametrize(
        "shifts, sign",
        [((0, 0, 0), -1), ((-2, 1, 2), 1), ((2, -1, -2), -1), ((1, 2, -2), 1), ((-1, -2, 1), -1)],
    )
    def test_exact_report_invariant_under_resonant_shift_and_sign(self, tmp_path, shifts, sign):
        # shifting a letter by t (2, -1), the resonance vector of omega =
        # (1, 2), keeps its eigenvalue; negating every letter conjugates
        # every value: the report stays byte for byte the same
        letters = [[1, 0], [1, -1], [2, -1]]
        reports = []
        for tag, t_list, s in (("base", (0, 0, 0), 1), ("moved", shifts, sign)):
            alphabet = [[s * (a + t * b) for a, b in zip(k, (2, -1))] for k, t in zip(letters, t_list)]
            cfg = write_config(
                tmp_path / f"{tag}.json",
                freq={"omega": ["1", "2"], "tau": 1.0, "resonance_basis": [[2, -1]]},
                alphabet=alphabet,
                max_r=4,
            )
            out = tmp_path / tag
            assert main(["verify", "--config", str(cfg), "--out", str(out), "--exact"]) == 0
            reports.append((out / "verify_report.jsonl").read_bytes())
        assert reports[0] == reports[1]

    def test_corrupted_golden_table_fails(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", alphabet=[[1, 0], [-1, 0]], max_r=2, samples=5)
        out = tmp_path / "out"
        assert main(["dump-moulds", "--config", str(cfg), "--out", str(out)]) == 0
        table = json.loads((out / "moulds.json").read_text())
        # verify against the intact table passes
        good_cfg = write_config(
            tmp_path / "good.json",
            alphabet=[[1, 0], [-1, 0]],
            max_r=2,
            samples=5,
            mould_table="out/moulds.json",
        )
        assert main(["verify", "--config", str(good_cfg), "--out", str(tmp_path / "g")]) == 0
        # corrupt one value and verify again
        table["F"]["1,0|-1,0"] = [0.5, 0.5]
        (out / "moulds.json").write_text(json.dumps(table))
        assert main(["verify", "--config", str(good_cfg), "--out", str(tmp_path / "bad")]) == 1


    @pytest.mark.parametrize(
        "table, flags",
        [
            ({"F": {"1.5,0": [0.0, 0.0]}, "S": {}, "G": {}}, []),
            ({"F": {"1,0": [0.0, 1.0]}, "G": {}}, []),
            ({"F": {"1": [0.0, 1.0]}, "S": {}, "G": {}}, []),
            ({"F": {"1,0": [1]}, "S": {}, "G": {}}, []),
            ({"F": {"1,0": "ab"}, "S": {}, "G": {}}, []),
            ({"F": {"1,0": ["1"]}, "S": {}, "G": {}}, ["--exact"]),
            ({"F": {"1,0": ["1", None]}, "S": {}, "G": {}}, ["--exact"]),
            # int reads "1_0" as 10: a key other than the one written for its word
            ({"F": {}, "S": {"1_0,0": [0.0, -0.1]}, "G": {}}, []),
            # two spellings of one word, whose last value would win
            ({"F": {}, "S": {" 1,0": [9.0, 9.0], "1,0": [0.0, -1.0]}, "G": {}}, []),
            # one key given twice, which json would read as its last value
            ('{"F": {}, "S": {"1,0": [9.0, 9.0], "1,0": [0.0, -1.0]}, "G": {}}', []),
            # json reads NaN and 1e400, an infinity; neither is a value
            ('{"F": {"1,0": [NaN, 0]}, "S": {}, "G": {}}', []),
            ('{"F": {"1,0": [1e400, 0]}, "S": {}, "G": {}}', []),
            ('{"F": {"1,0": [NaN, 0]}, "S": {}, "G": {}}', ["--exact"]),
            ('{"F": {"1,0": [1e400, 0]}, "S": {}, "G": {}}', ["--exact"]),
        ],
        ids=["non-integral-key", "no-S-section", "wrong-dimension-key", "one-number-value",
             "string-value", "exact-one-string-value", "exact-null-part", "digit-separator-key",
             "two-spellings-of-one-word", "repeated-key", "nan-value", "inf-value",
             "exact-nan-value", "exact-inf-value"],
    )
    def test_malformed_golden_table_rejected(self, tmp_path, capsys, monkeypatch, table, flags):
        # the table is read before any mould is solved
        monkeypatch.setattr("mouldnf.cli.verify_equation", unreached)
        text = table if isinstance(table, str) else json.dumps(table)
        (tmp_path / "table.json").write_text(text)
        cfg = write_config(
            tmp_path / "run.json", alphabet=[[1, 0]], max_r=1, samples=5, mould_table="table.json"
        )
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out), *flags]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read mould_table: ")
        assert not (out / "verify_report.jsonl").exists()

    def test_non_finite_value_refused_naming_its_key(self, tmp_path, capsys):
        (tmp_path / "table.json").write_text('{"F": {}, "S": {"1,0": [0, 1e400]}, "G": {}}')
        cfg = write_config(tmp_path / "run.json", alphabet=[[1, 0]], max_r=1, samples=5,
                           mould_table="table.json")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "'1,0'" in capsys.readouterr().err

    def test_columns_formed_only_on_words_a_check_asks_for(self, tmp_path, monkeypatch):
        # over the golden mean no word over these letters is resonant: no
        # gauge sum reads exp(+-G), and only the alternality check, to
        # length 4, reads G, so no column is formed on the longer words
        log_lengths, power_columns = [], []
        log_column, power_column = solver_module.log_column, solver_module.power_column

        def recording_log(cols, node):
            log_lengths.append(len(cols) + 1)
            return log_column(cols, node)

        def recording_power(cols, tails):
            power_columns.append(len(tails))
            return power_column(cols, tails)

        monkeypatch.setattr(solver_module, "log_column", recording_log)
        monkeypatch.setattr(solver_module, "power_column", recording_power)
        cfg = write_config(tmp_path / "run.json", alphabet=[[1, 0], [0, 1], [1, 1]], max_r=6, samples=5)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        # each log column forms one power column, and nothing else does
        assert len(power_columns) == len(log_lengths)
        # one log column on each of the 3^r words of length r <= 4
        assert sorted(log_lengths) == [r for r in range(1, 5) for _ in range(3 ** r)]

    def test_exact_golden_verifies_in_a_float_run(self, tmp_path):
        # its fraction strings are read through Fraction, as float numbers are
        repo = TestBundledGoldens.REPO
        config = json.loads((repo / "configs" / "rational_moulds.json").read_text())
        config["mould_table"] = str(repo / "goldens" / "moulds_exact_golden.json")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        report = [json.loads(line) for line in (out / "verify_report.jsonl").read_text().splitlines()]
        golden = next(line for line in report if line["name"] == "golden_mould_table")
        assert golden["ok"] and 0.0 < golden["max_deviation"] <= 2e-16


class TestBundledGoldens:
    REPO = __import__("pathlib").Path(__file__).parent.parent

    def test_exact_moulds_match_golden_bitwise(self, tmp_path):
        cfg = self.REPO / "configs" / "rational_moulds.json"
        assert main(["dump-moulds", "--config", str(cfg), "--out", str(tmp_path), "--exact"]) == 0
        fresh = (tmp_path / "moulds.json").read_bytes()
        golden = (self.REPO / "goldens" / "moulds_exact_golden.json").read_bytes()
        assert fresh == golden

    def test_float_normalize_matches_golden(self, tmp_path):
        cfg = self.REPO / "configs" / "toy_normalize.json"
        assert main(["normalize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        fresh = json.loads((tmp_path / "normalize_result.json").read_text())
        golden = json.loads((self.REPO / "goldens" / "normalize_golden.json").read_text())
        for key in ("Z", "Y", "E"):
            fresh_modes = {
                (tuple(c["k"]), tuple(c["m"])): complex(c["re"], c["im"])
                for c in fresh[key]["coeffs"]
            }
            golden_modes = {
                (tuple(c["k"]), tuple(c["m"])): complex(c["re"], c["im"])
                for c in golden[key]["coeffs"]
            }
            assert set(fresh_modes) == set(golden_modes)
            scale = max(abs(v) for v in golden_modes.values()) if golden_modes else 1.0
            for km, v in golden_modes.items():
                assert abs(fresh_modes[km] - v) <= 1e-9 * scale
        for name, value in golden["norms"].items():
            assert fresh["norms"][name] == pytest.approx(value, rel=1e-9, abs=1e-300)
        assert fresh["exp_order"] == golden["exp_order"]
        assert fresh["exp_tail_bound"] == pytest.approx(golden["exp_tail_bound"], rel=1e-9, abs=0.0)
        assert len(fresh["bounds"]) == len(golden["bounds"])
        for got, want in zip(fresh["bounds"], golden["bounds"]):
            assert (got["name"], got["holds"]) == (want["name"], want["holds"])
            assert got["inputs"]["precondition_holds"] == want["inputs"]["precondition_holds"]
            assert got["lhs"] == pytest.approx(want["lhs"], rel=1e-9)
            assert got["rhs"] == pytest.approx(want["rhs"], rel=1e-9)
            for name in ("D", "Gamma_N", "Gamma_N2N", "eps_threshold", "normB"):
                assert got["inputs"][name] == pytest.approx(want["inputs"][name], rel=1e-9), name

    def test_semiclassical_matches_golden(self, tmp_path):
        cfg = self.REPO / "configs" / "toy_semiclassical.json"
        assert main(["semiclassical", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        fresh = json.loads((tmp_path / "semiclassical.json").read_text())
        golden = json.loads((self.REPO / "goldens" / "semiclassical_golden.json").read_text())
        assert fresh["g_values"] == pytest.approx(golden["g_values"], rel=1e-9)
        assert fresh["C_N"] == pytest.approx(golden["C_N"], rel=1e-9)
        assert fresh["slope"] == pytest.approx(golden["slope"], rel=1e-9)
        assert len(fresh["bounds"]) == len(golden["bounds"])
        for got, want in zip(fresh["bounds"], golden["bounds"]):
            assert (got["name"], got["holds"]) == (want["name"], want["holds"])
            assert got["lhs"] == pytest.approx(want["lhs"], rel=1e-9)
            assert got["rhs"] == pytest.approx(want["rhs"], rel=1e-9)

    def test_verify_suite_with_bundled_table(self, tmp_path):
        cfg = self.REPO / "configs" / "verify_suite.json"
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0


class TestSemiclassicalCommand:
    def test_order_one_all_zero(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", N=1, hbar_list=[0.1, 0.01], backend="quantum")
        out = tmp_path / "out"
        assert main(["semiclassical", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "semiclassical.json").read_text())
        assert payload["g_values"] == [0.0, 0.0]
        assert payload["slope"] is None

    def test_sweep_with_slope(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.json", N=2, hbar_list=[0.1, 10 ** -1.5, 0.01], backend="quantum"
        )
        out = tmp_path / "out"
        assert main(["semiclassical", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "semiclassical.json").read_text())
        assert abs(payload["slope"] - 2.0) <= 0.1
        csv_text = (out / "semiclassical.csv").read_text()
        assert csv_text.splitlines()[0] == "hbar,g"

    def test_repeated_hbar_no_slope(self, tmp_path):
        # one distinct hbar fixes no slope
        cfg = write_config(tmp_path / "run.json", N=2, hbar_list=[0.1, 0.1], backend="quantum")
        out = tmp_path / "out"
        assert main(["semiclassical", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "semiclassical.json").read_text())
        assert payload["slope"] is None
        assert len(payload["g_values"]) == 2

    def test_single_hbar_values_only(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", N=2, hbar=0.1, backend="quantum")
        out = tmp_path / "out"
        assert main(["semiclassical", "--config", str(cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "semiclassical.json").read_text())
        assert payload["slope"] is None
        assert len(payload["g_values"]) == 1
