"""Batch front door: JSON config in, JSON/CSV reports out.

Subcommands
-----------
normalize       run the normal-form pipeline, write result JSON + CSV row
dump-moulds     emit F, S, G tables over a finite alphabet as JSON
verify          run the invariant/bound battery, emit JSON lines
semiclassical   hbar sweep of the quantum-classical gap, CSV + slope

Exit codes: 0 ok, 1 bound violation or out-of-domain, 2 usage/config
errors.  Identical config and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import estimates
from .alphabet import Frequency, diophantine_alpha, words_over
from .classical import ClassicalBackend, poisson_bracket
from .exact import scalar_abs
from .liealg import OutOfDomainError, ScaleParams, normalize
from .mould import _parse_word, check_alternal, dump_table, load_table
from .observables import Observable, from_json_dict, norm_rho, to_json_dict
from .quantum import QuantumBackend, check_hbar, moyal_bracket, validate_moyal
from .solver import MouldSolver, verify_equation

_TOP_KEYS = {
    "freq",
    "scale",
    "N",
    "backend",
    "hbar",
    "hbar_list",
    "B",
    "B_path",
    "alphabet",
    "max_r",
    "exponential_order",
    "tolerances",
    "seed",
    "samples",
    "mould_table",
}
_FREQ_KEYS = {"omega", "tau", "resonance_basis", "K", "alpha"}
_SCALE_KEYS = {"rho", "rho_prime"}
_DEFAULT_TOLS = {
    "residual": 1e-9,
    "alternality": 1e-10,
    "moyal": 1e-10,
    "commutation": 1e-10,
}


class ConfigError(ValueError):
    pass


def _reject_unknown(mapping, allowed, where):
    extra = set(mapping) - allowed
    if extra:
        raise ConfigError(f"unknown keys in {where}: {sorted(extra)}")


def _integer(data, key, default, where="config"):
    value = data.get(key, default)
    if type(value) is not int:
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    return value


def _number(value, name):
    """``value`` if it is a JSON number (not a bool), else a config error."""
    if type(value) not in (int, float):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return value


def _path(data, key):
    """``data[key]`` if it is absent, null or a string, else a config error."""
    value = data.get(key)
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"config.{key} must be a path string, got {value!r}")
    return value


class RunConfig:
    """Validated run configuration; all paths relative to the config file."""

    def __init__(self, data, base_dir, exact=False):
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        _reject_unknown(data, _TOP_KEYS, "config")
        self.base_dir = Path(base_dir)
        self.exact = exact

        freq_data = data.get("freq")
        if not isinstance(freq_data, dict):
            raise ConfigError("config.freq is required")
        _reject_unknown(freq_data, _FREQ_KEYS, "config.freq")
        omega = freq_data.get("omega")
        if not isinstance(omega, list) or not omega:
            raise ConfigError("config.freq.omega must be a non-empty list")
        if any(isinstance(c, bool) for c in omega):
            raise ConfigError(f"config.freq.omega entries must not be booleans, got {omega!r}")
        if exact:
            try:
                omega = [Fraction(str(c)) for c in omega]
            except (ValueError, ZeroDivisionError) as err:
                raise ConfigError(f"--exact requires rational omega: {err}") from err
        alpha = freq_data.get("alpha")
        if alpha is not None:
            alpha = _number(alpha, "config.freq.alpha")
        tau = _number(freq_data.get("tau", 1.0), "config.freq.tau")
        try:
            if not exact:
                omega = [float(c) for c in omega]
            basis = freq_data.get("resonance_basis", ())
            if any(isinstance(c, bool) for b in basis for c in b):
                raise ValueError(f"resonance_basis entries must not be booleans, got {basis!r}")
            self.freq = Frequency(
                omega,
                resonance_basis=basis,
                dioph_alpha=alpha,
                dioph_tau=tau,
            )
        except (TypeError, ValueError) as err:
            raise ConfigError(f"config.freq: {err}") from err
        self.K = _integer(freq_data, "K", 5, where="config.freq")
        if self.K < 1:
            raise ConfigError(f"config.freq.K must be >= 1, got {self.K}")

        scale_data = data.get("scale", {"rho": 1.0, "rho_prime": 0.5})
        _reject_unknown(scale_data, _SCALE_KEYS, "config.scale")
        rho, rho_prime = (
            _number(scale_data.get(key), f"config.scale.{key}") for key in ("rho", "rho_prime")
        )
        try:
            self.scale = ScaleParams(rho, rho_prime)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"config.scale: {err}") from err

        self.N = _integer(data, "N", 1)
        if self.N < 1:
            raise ConfigError(f"config.N must be >= 1, got {self.N}")
        self.backend_name = data.get("backend", "classical")
        if self.backend_name not in ("classical", "quantum"):
            raise ConfigError("config.backend must be 'classical' or 'quantum'")
        self.hbar = data.get("hbar")
        self.hbar_list = data.get("hbar_list")
        if self.backend_name == "quantum" and self.hbar is None and not self.hbar_list:
            raise ConfigError("quantum backend requires hbar or hbar_list")
        if self.hbar_list is not None and not isinstance(self.hbar_list, list):
            raise ConfigError("config.hbar_list must be a list")
        for hbar in ([] if self.hbar is None else [self.hbar]) + (self.hbar_list or []):
            try:
                check_hbar(hbar)
            except ValueError as err:
                raise ConfigError(str(err)) from err

        if "B" in data and "B_path" in data:
            raise ConfigError("give only one of B / B_path")
        self._b_data = data.get("B")
        self._b_path = _path(data, "B_path")

        alphabet = data.get("alphabet", [])
        d = self.freq.d
        if not isinstance(alphabet, list) or not all(
            isinstance(k, list) and len(k) == d and all(type(c) is int for c in k)
            for k in alphabet
        ):
            raise ConfigError(
                f"config.alphabet must be a list of letters of {d} integers each, got {alphabet!r}"
            )
        self.alphabet = [tuple(k) for k in alphabet]
        self.max_r = _integer(data, "max_r", 4)
        self.exponential_order = data.get("exponential_order")
        order = self.exponential_order
        if order is not None and (type(order) is not int or order < 0):
            raise ConfigError(f"config.exponential_order must be an integer >= 0, got {order!r}")
        tols = data.get("tolerances", {})
        if not isinstance(tols, dict):
            raise ConfigError(f"config.tolerances must be an object, got {tols!r}")
        _reject_unknown(tols, set(_DEFAULT_TOLS), "config.tolerances")
        for key, tol in tols.items():
            if type(tol) not in (int, float) or not (math.isfinite(tol) and tol >= 0):
                raise ConfigError(f"config.tolerances.{key} must be a finite number >= 0, got {tol!r}")
        self.tolerances = {**_DEFAULT_TOLS, **tols}
        self.seed = _integer(data, "seed", 0)
        self.samples = _integer(data, "samples", 100)
        if self.samples < 0:
            raise ConfigError(f"config.samples must be >= 0, got {self.samples}")
        self.mould_table = _path(data, "mould_table")

    def observable(self):
        if self._b_data is not None:
            data = self._b_data
        elif self._b_path is not None:
            try:
                data = json.loads((self.base_dir / self._b_path).read_text())
            except (OSError, json.JSONDecodeError) as err:
                raise ConfigError(f"cannot read config.B_path: {err}") from err
        else:
            raise ConfigError("config must provide B or B_path")
        try:
            return from_json_dict(data)
        except (ValueError, KeyError) as err:
            raise ConfigError(f"config.B: {err}") from err

    def scalar_hbar(self):
        if self.hbar is not None:
            return self.hbar
        return self.hbar_list[0] if self.hbar_list else None

    def backend(self, hbar=None):
        if self.backend_name == "classical":
            return ClassicalBackend(self.freq)
        return QuantumBackend(self.freq, hbar if hbar is not None else self.scalar_hbar())


def load_config(path, exact=False):
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    return RunConfig(data, path.parent, exact=exact)


def _write_json(path, payload):
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _word_count(n_letters, max_r):
    return sum(n_letters ** r for r in range(1, max_r + 1))


def _quantum_diagnostics(result):
    # the symbol's reality defect bounds its Weyl matrix's Hermiticity
    # defect, and a Hermitian generator exponentiates to a unitary
    # conjugation
    out = {
        f"hermiticity_defect_{name}": obs.reality_defect()
        for name, obs in (("Z", result.Z), ("Y", result.Y))
    }
    out["unitary_conjugation"] = out["hermiticity_defect_Y"] <= 1e-10 * max(
        result.norms["Y"], 1e-300
    )
    return out


def cmd_normalize(config, out_dir, max_words):
    B = config.observable()
    n_letters = len({k for k, _ in B.coeffs})
    if _word_count(max(n_letters, 1), config.N) > max_words:
        print(f"error: word budget {max_words} exceeded", file=sys.stderr)
        return 2
    backend = config.backend()
    try:
        result = normalize(
            B,
            config.N,
            config.scale,
            config.freq,
            backend,
            exp_order=config.exponential_order,
        )
    except OutOfDomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    alpha = diophantine_alpha(config.freq, config.freq.dioph_tau, config.K)
    letters = sorted({k for k, _ in B.coeffs})
    _, g_list = estimates.fit_growth_constants(
        config.freq, letters, config.N ** 2, config.scale.rho, alpha,
        config.freq.dioph_tau, limit=200, seed=config.seed,
    )
    bound = estimates.verify_remainder_bound(
        result, config.N, config.scale, config.freq, g_list, alpha=alpha, K=config.K
    )
    payload = {
        "backend": backend.name,
        "N": config.N,
        "norms": result.norms,
        "commutation_residual": result.commutation_residual,
        "exp_order": result.exp_order,
        "exp_tail_bound": result.exp_tail_bound,
        "domain_ratio": result.ratio,
        "Z": to_json_dict(result.Z.prune()),
        "Y": to_json_dict(result.Y.prune()),
        "E": to_json_dict(result.E.prune()),
        "bounds": [bound.to_dict()],
    }
    if config.backend_name == "quantum":
        # hermiticity of the generator's matrix is the unitarity of the
        # conjugation it exponentiates; both are pure diagnostics here
        payload["diagnostics"] = _quantum_diagnostics(result)
    _write_json(out_dir / "normalize_result.json", payload)
    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["backend", "N", "norm_B", "norm_Z", "norm_Y", "norm_E", "residual"])
        writer.writerow(
            [
                backend.name,
                config.N,
                repr(result.norms["B"]),
                repr(result.norms["Z"]),
                repr(result.norms["Y"]),
                repr(result.norms["E"]),
                repr(result.commutation_residual),
            ]
        )
    ok = bound.holds and result.commutation_residual <= (
        config.tolerances["commutation"] * max(result.norms["Z"], 1.0)
    )
    return 0 if ok else 1


def cmd_dump_moulds(config, out_dir, max_words):
    solver = MouldSolver(config.freq)
    words = []
    if config.alphabet:
        if _word_count(len(config.alphabet), config.max_r) > max_words:
            print(f"error: word budget {max_words} exceeded", file=sys.stderr)
            return 2
        words = list(words_over(config.alphabet, config.max_r))
    payload = {
        "alphabet": [list(k) for k in config.alphabet],
        "max_r": config.max_r,
        "exact": config.exact,
        "F": dump_table(solver.F_mould, words, exact=config.exact),
        "S": dump_table(solver.S_mould, words, exact=config.exact),
        "G": dump_table(solver.G_mould, words, exact=config.exact),
    }
    _write_json(out_dir / "moulds.json", payload)
    return 0


def _random_observable(rng, d, n_modes):
    # the key's draws come before the value's, as in a loop over modes
    return Observable(
        d,
        {
            (
                tuple(rng.randint(-2, 2) for _ in range(d)),
                tuple(rng.randint(-2, 2) for _ in range(d)),
            ): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(n_modes)
        },
    )


def _axiom_samples(config, rng, emit):
    freq = config.freq
    d = freq.d
    tol = 1.0 + 1e-12
    failures = 0
    backend_c = ClassicalBackend(freq)
    hbar = config.hbar or 0.1

    for i in range(config.samples):
        rho = rng.uniform(0.6, 1.4)
        rho_p = rng.uniform(0.15 * rho, 0.85 * rho)
        rho_pp = rng.uniform(rho_p + 0.05 * rho, rho)
        F, G = _random_observable(rng, d, 4), _random_observable(rng, d, 4)
        lhs = norm_rho(poisson_bracket(F, G), rho_p)
        rhs = norm_rho(F, rho) * norm_rho(G, rho_pp) / (
            math.e ** 2 * (rho - rho_p) * (rho_pp - rho_p)
        )
        if lhs > rhs * tol:
            failures += 1
        lhs_q = norm_rho(moyal_bracket(F, G, hbar), rho_p)
        if lhs_q > rhs * tol:
            failures += 1
        lhs_x0 = norm_rho(backend_c.ad_x0(G, exact_zero=False), rho_p)
        if lhs_x0 > norm_rho(G, rho) / (math.e * (rho - rho_p)) * tol:
            failures += 1
    emit({"name": "axiom_samples", "samples": config.samples, "failures": failures})
    return failures == 0


def cmd_verify(config, out_dir, max_words):
    rng = random.Random(config.seed)
    lines = []
    emit = lines.append
    all_ok = True
    alphabet = config.alphabet or [(1,) + (0,) * (config.freq.d - 1)]
    if _word_count(len(alphabet), config.max_r) > max_words:
        print(f"error: word budget {max_words} exceeded", file=sys.stderr)
        return 2
    solver = MouldSolver(config.freq)
    eq = verify_equation(solver, config.max_r, alphabet, tol=config.tolerances["residual"])
    emit(
        {
            "name": "mould_equation",
            "ok": eq.ok,
            "max_residual": eq.max_residual,
            "max_nabla_f": eq.max_nabla_f,
            "max_gauge": eq.max_gauge,
            "scale": eq.scale,
            "exact": eq.exact,
        }
    )
    all_ok &= eq.ok

    for name, mould in (("F", solver.F_mould), ("G", solver.G_mould)):
        rep = check_alternal(mould, min(config.max_r, 4), alphabet, tol=config.tolerances["alternality"])
        emit(
            {
                "name": f"alternality_{name}",
                "ok": rep.ok,
                "pairs": rep.pairs_checked,
                "max_ratio": rep.max_ratio if rep.max_ratio != float("inf") else -1.0,
            }
        )
        all_ok &= rep.ok

    if not config.exact:
        all_ok &= _axiom_samples(config, rng, emit)

        for _ in range(3):
            F = _random_observable(rng, config.freq.d, 3)
            G = _random_observable(rng, config.freq.d, 3)
            rep = validate_moyal(F, G, cutoff=8, hbar=config.hbar or 0.5, tol=config.tolerances["moyal"])
            emit({"name": "moyal_validation", "ok": rep.ok, "max_dev": rep.max_deviation})
            all_ok &= rep.ok

        for x in (0.5, 1.0, 2.0):
            rep = estimates.power_exponential_bound(x, config.freq.dioph_tau, 1.0)
            emit(rep.to_dict())
            all_ok &= rep.holds

    if config.mould_table:
        table_path = config.base_dir / config.mould_table
        moulds = {"F": solver.F_mould, "S": solver.S_mould, "G": solver.G_mould}
        try:
            golden = json.loads(table_path.read_text())
            if not (isinstance(golden, dict) and all(isinstance(golden.get(n), dict) for n in moulds)):
                raise ValueError("it needs F, S and G sections, each a JSON object")
            refs = []
            for name, mould in moulds.items():
                words = [_parse_word(key) for key in golden[name]]
                if any(len(k) != config.freq.d for w in words for k in w):
                    raise ValueError(f"a key in {name} has a letter not of dimension {config.freq.d}")
                refs.append((mould, load_table(golden[name], exact=config.exact), words))
        except (OSError, ValueError) as err:  # a JSONDecodeError is a ValueError
            print(f"error: cannot read mould_table: {err}", file=sys.stderr)
            return 2
        worst = 0.0
        for mould, ref, words in refs:
            for w in words:
                worst = max(worst, scalar_abs(mould(w) - ref(w)))
        ok = worst <= config.tolerances["residual"]
        emit({"name": "golden_mould_table", "ok": ok, "max_deviation": worst})
        all_ok &= ok

    with open(out_dir / "verify_report.jsonl", "w") as fh:
        for obj in lines:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
    return 0 if all_ok else 1


def cmd_semiclassical(config, out_dir, max_words):
    B = config.observable()
    hbars = config.hbar_list or ([config.hbar] if config.hbar is not None else [])
    if not hbars:
        print("error: semiclassical needs hbar or hbar_list", file=sys.stderr)
        return 2
    report = estimates.verify_semiclassical(
        B, config.N, config.scale.rho, config.scale.rho_prime, config.freq, hbars, K=config.K
    )
    with open(out_dir / "semiclassical.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["hbar", "g"])
        for hbar, g in zip(report.hbars, report.g_values):
            writer.writerow([repr(hbar), repr(g)])
    payload = {
        "N": report.N,
        "hbars": report.hbars,
        "g_values": report.g_values,
        "slope": report.slope,
        "C_N": report.c_n,
        "bounds": [b.to_dict() for b in report.bounds],
    }
    _write_json(out_dir / "semiclassical.json", payload)
    return 0 if report.ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="mouldnf", description=__doc__)
    parser.add_argument("command", choices=["normalize", "dump-moulds", "verify", "semiclassical"])
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--out", default=".", help="output directory (created if missing)")
    parser.add_argument("--exact", action="store_true", help="exact rational mode (rational omega)")
    parser.add_argument("--max-words", type=int, default=200000, help="word enumeration safety cap")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, exact=args.exact)
    except (ValueError, KeyError) as err:  # ConfigError is a ValueError
        print(f"config error: {err}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    handlers = {
        "normalize": cmd_normalize,
        "dump-moulds": cmd_dump_moulds,
        "verify": cmd_verify,
        "semiclassical": cmd_semiclassical,
    }
    try:
        return handlers[args.command](config, out_dir, args.max_words)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
