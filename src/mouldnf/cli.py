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
from .alphabet import Frequency, UndeclaredResonanceError, diophantine_alpha
from .classical import Backend
from .exact import scalar_abs
from .liealg import OutOfDomainError, ScaleParams, ad_x0, normalize
from .mould import check_alternal, read_table, unique_keys, write_table
from .observables import OBSERVABLE, Observable, _walk, from_json_dict, norm_rho, to_json_dict
from .quantum import validate_moyal
from .solver import MouldSolver, verify_equation

MOYAL_CUTOFF = 8  # half-width of the basis box of verify's Moyal check

# The config's schema, walked by ``observables._walk``: key -> (JSON
# type, default, check, what the check asks).  The rules across keys
# are in ``RunConfig``.
_POSITIVE = (lambda v: 0 < v < math.inf, "> 0 and finite")
_SCHEMA = {
    "freq": ({
        "omega": (["number or string"], ...),
        "tau": ("number", 1.0, lambda v: 1 <= v < math.inf, ">= 1 and finite"),
        "resonance_basis": ([["integer"]], []),
        "K": ("integer", 5, lambda v: v >= 1, ">= 1"),
    }, ...),
    "scale": ({"rho": ("number", ..., *_POSITIVE), "rho_prime": ("number", ..., *_POSITIVE)},
              {"rho": 1.0, "rho_prime": 0.5}),
    "N": ("integer", 1, lambda v: v >= 1, ">= 1"),
    "backend": ("string", "classical", lambda v: v in ("classical", "quantum"),
                "'classical' or 'quantum'"),
    "hbar": ("number", None, *_POSITIVE),
    "hbar_list": (["number"], None, *_POSITIVE),
    "B": (OBSERVABLE, None),
    "B_path": ("string", None),
    "alphabet": ([["integer"]], []),
    "max_r": ("integer", 4, lambda v: v >= 1, ">= 1"),
    "exponential_order": ("integer", None, lambda v: v >= 0, ">= 0"),
    "tolerances": ({
        key: ("number", tol, lambda v: 0 <= v < math.inf, ">= 0 and finite")
        for key, tol in (("residual", 1e-9), ("alternality", 1e-10), ("moyal", 1e-10),
                         ("commutation", 1e-10))
    }, {}),
    "seed": ("integer", 0),
    "samples": ("integer", 100, lambda v: v >= 0, ">= 0"),
    "mould_table": ("string", None),
}


class ConfigError(ValueError):
    pass


class RunConfig:
    """Validated run configuration; all paths relative to the config file."""

    def __init__(self, data, base_dir, exact=False):
        try:
            config = _walk(data, _SCHEMA, "config")
        except ValueError as err:
            raise ConfigError(str(err)) from err
        self.base_dir = Path(base_dir)
        self.exact = exact

        freq = config["freq"]
        try:
            omega = [Fraction(str(c)) if exact else float(c) for c in freq["omega"]]
        except (ValueError, ZeroDivisionError) as err:
            raise ConfigError(f"config.freq.omega: {err}") from err
        try:
            self.freq = Frequency(omega, resonance_basis=freq["resonance_basis"], dioph_tau=freq["tau"])
        except ValueError as err:
            raise ConfigError(f"config.freq: {err}") from err
        self.K = freq["K"]
        try:
            self.scale = ScaleParams(**config["scale"])
        except ValueError as err:
            raise ConfigError(f"config.scale: {err}") from err

        self.backend_name = config["backend"]
        self.hbar, self.hbar_list = config["hbar"], config["hbar_list"]
        if self.backend_name == "quantum" and self.hbar is None and not self.hbar_list:
            raise ConfigError("quantum backend requires hbar or hbar_list")
        if "B" in data and "B_path" in data:
            raise ConfigError("give only one of B / B_path")
        self._b_data, self._b_path = config["B"], config["B_path"]
        self.alphabet = [tuple(k) for k in config["alphabet"]]
        if any(len(k) != self.freq.d for k in self.alphabet):
            raise ConfigError(f"config.alphabet: expected letters of {self.freq.d} integers, "
                              f"got {config['alphabet']}")
        for i, k in enumerate(self.alphabet):
            if k in self.alphabet[:i]:
                raise ConfigError(f"config.alphabet: letter {list(k)} is repeated")
        self.N, self.max_r, self.seed = config["N"], config["max_r"], config["seed"]
        self.samples, self.tolerances = config["samples"], config["tolerances"]
        self.exponential_order = config["exponential_order"]
        self.mould_table = config["mould_table"]

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
            B = from_json_dict(data)
        except ValueError as err:
            raise ConfigError(f"config.B: {err}") from err
        if B.d != self.freq.d:
            raise ConfigError(f"config.B has d={B.d}, config.freq.omega has {self.freq.d} entries")
        return B

    def backend(self):
        if self.backend_name == "classical":
            return Backend()
        return Backend(self.hbar if self.hbar is not None else self.hbar_list[0])


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


def _refused(what, count, unit, max_words):
    """Whether ``what``, which takes ``count`` ``unit``, is over the budget
    ``max_words``; if so says so on one line of stderr.  ``count`` is an
    int, or an iterable of parts summed only until they pass the budget:
    a count stopped before its last part reads "more than max_words"."""
    parts = iter([count] if isinstance(count, int) else count)
    total = 0
    for part in parts:
        total += part
        if total > max_words:
            break
    else:
        return False
    if next(parts, None) is not None:
        total = f"more than {max_words}"
    print(f"error: {what} takes {total} {unit}, over the budget {max_words} of --max-words",
          file=sys.stderr)
    return True


def _words(n_letters, max_len):
    """The count of the words of length 1 to ``max_len`` over ``n_letters``
    letters, as one part per length."""
    return (n_letters ** r for r in range(1, max_len + 1))


def _table_letters(tables):
    """The letters the solve of the keys of ``tables`` holds: ``L + 1`` for
    a key of length ``L`` whose ``w[:-1]`` and ``w[1:]`` are keys or empty,
    else the ``L (L + 1) (L + 5) / 6`` of all its subwords' nodes."""
    keys = {()}.union(*tables.values())
    return sum(len(w) + 1 if w[:-1] in keys and w[1:] in keys
               else len(w) * (len(w) + 1) * (len(w) + 5) // 6
               for w in keys.difference([()]))


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


def _comould_refused(config, B, max_words):
    """Whether the K box, then the comould walk of ``B``'s letters to N,
    is over ``max_words``."""
    d, n = config.freq.d, len({k for k, _ in B.coeffs}) or 1
    return (_refused(f"the K = {config.K} box", (2 * config.K + 1) ** d, "modes", max_words)
            or _refused(f"the comould walk to N = {config.N} over {n} letters",
                        _words(n, config.N), "words", max_words))


def cmd_normalize(config, out_dir, max_words):
    B = config.observable()
    if _comould_refused(config, B, max_words):
        return 2
    backend = config.backend()
    result = normalize(B, config.N, config.scale, config.freq, backend, config.exponential_order)
    alpha = diophantine_alpha(config.freq, config.K)
    letters = sorted({k for k, _ in B.coeffs})
    _, g_list = estimates.fit_growth_constants(
        config.freq, letters, config.N ** 2, config.scale.rho, alpha, config.seed
    )
    bound = estimates.verify_remainder_bound(result, config.N, config.scale, g_list)
    # the bound is proved only under its smallness hypothesis; the exit
    # code still reads "holds" alone
    applies = bound.inputs["precondition_holds"]
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
        "bounds": [{**bound.to_dict(), "applies": applies}],
    }
    if config.backend_name == "quantum":
        # hermiticity of the generator's matrix is the unitarity of the
        # conjugation it exponentiates; both are pure diagnostics here
        payload["diagnostics"] = _quantum_diagnostics(result)
    _write_json(out_dir / "normalize_result.json", payload)
    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["backend", "N", "norm_B", "norm_Z", "norm_Y", "norm_E", "residual", "bound_applies"])
        writer.writerow(
            [
                backend.name,
                config.N,
                repr(result.norms["B"]),
                repr(result.norms["Z"]),
                repr(result.norms["Y"]),
                repr(result.norms["E"]),
                repr(result.commutation_residual),
                repr(applies),
            ]
        )
    ok = bound.holds and result.commutation_residual <= (
        config.tolerances["commutation"] * max(result.norms["Z"], 1.0)
    )
    return 0 if ok else 1


def cmd_dump_moulds(config, out_dir, max_words):
    n = len(config.alphabet)
    if n and _refused(f"the word walk to max_r = {config.max_r} over {n} letters",
                      _words(n, config.max_r), "words", max_words):
        return 2
    solver = MouldSolver(config.freq)
    moulds = {"F": solver.F_mould, "S": solver.S_mould, "G": solver.G_mould}
    _write_json(out_dir / "moulds.json",
                write_table(moulds, config.alphabet, config.max_r, config.exact))
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
    poisson = Backend().bracket
    moyal = Backend(config.hbar or 0.1).bracket

    for i in range(config.samples):
        rho = rng.uniform(0.6, 1.4)
        rho_p = rng.uniform(0.15 * rho, 0.85 * rho)
        rho_pp = rng.uniform(rho_p + 0.05 * rho, rho)
        F, G = _random_observable(rng, d, 4), _random_observable(rng, d, 4)
        lhs = norm_rho(poisson(F, G), rho_p)
        rhs = norm_rho(F, rho) * norm_rho(G, rho_pp) / (
            math.e ** 2 * (rho - rho_p) * (rho_pp - rho_p)
        )
        if lhs > rhs * tol:
            failures += 1
        lhs_q = norm_rho(moyal(F, G), rho_p)
        if lhs_q > rhs * tol:
            failures += 1
        lhs_x0 = norm_rho(ad_x0(freq, G, exact_zero=False), rho_p)
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
    if _refused(f"the word walk to max_r = {config.max_r} over {len(alphabet)} letters",
                _words(len(alphabet), config.max_r), "words", max_words):
        return 2
    if not config.exact and _refused(f"the Moyal check at cutoff {MOYAL_CUTOFF}",
                                     (2 * MOYAL_CUTOFF + 1) ** config.freq.d, "modes", max_words):
        return 2
    golden = {}
    if config.mould_table:
        try:
            text = (config.base_dir / config.mould_table).read_text()
            data = json.loads(text, object_pairs_hook=unique_keys)
            golden = read_table(data, config.freq.d, config.exact)
        except (OSError, ValueError) as err:  # a JSONDecodeError is a ValueError
            print(f"error: cannot read mould_table: {err}", file=sys.stderr)
            return 2
        if _refused("the solve of the mould_table keys", _table_letters(golden), "letters",
                    max_words):
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

    reports = check_alternal(
        [solver.F_mould, solver.G_mould], min(config.max_r, 4), alphabet,
        tol=config.tolerances["alternality"],
    )
    for name, rep in zip("FG", reports):
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
            rep = validate_moyal(F, G, MOYAL_CUTOFF, config.hbar or 0.5, config.tolerances["moyal"])
            emit({"name": "moyal_validation", "ok": rep.ok, "max_dev": rep.max_deviation})
            all_ok &= rep.ok

        for x in (0.5, 1.0, 2.0):
            rep = estimates.power_exponential_bound(x, config.freq.dioph_tau)
            emit(rep.to_dict())
            all_ok &= rep.holds

    if config.mould_table:
        moulds = {"F": solver.F_mould, "S": solver.S_mould, "G": solver.G_mould}
        worst = 0.0
        for name, table in golden.items():
            for w, value in table.items():
                worst = max(worst, scalar_abs(moulds[name](w) - value))
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
    if _comould_refused(config, B, max_words):
        return 2
    alpha = diophantine_alpha(config.freq, config.K)
    report = estimates.verify_semiclassical(
        B, config.N, config.scale.rho, config.scale.rho_prime, config.freq, hbars,
        alpha, config.seed,
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
    parser.add_argument("--max-words", type=int, default=200000,
                        help="budget of words, modes and table-key letters")
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
    except (ConfigError, UndeclaredResonanceError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OutOfDomainError as err:  # a B or generator too large for the series
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
