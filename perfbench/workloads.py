"""Seeded inputs, jobs and output checks of the benchmark's workloads.

Inputs are written as ordinary ``mouldnf`` JSON configs, so the program
receives nothing but generated inputs.  A seed varies only what leaves
the amount of work unchanged:

* a perturbation keeps the mode positions and coefficient moduli of its
  shape; the seed draws the coefficient phases, and the result is scaled
  to a fixed ``||B||_rho``.  Moduli stay fixed because ``contract``
  prunes words by magnitude, so other moduli would change which words
  are kept and hence the work;
* the exact alphabet moves each letter by a multiple of the resonance
  vector and may negate all of them.  Eigenvalues, resonance decisions
  and so every exact ``Q(i)`` value stay the same.

A workload runs in cycles of job kinds (classical then quantum, or a
single kind).  Every job is checked: ``run`` returns the digest of the
job's report, or raises :class:`CheckFailed`.  ``reference_s`` is the
time of one job of the frozen reference copy of ``mouldnf``, averaged
over the kinds, on the host where the benchmark was defined (2 vCPU
Intel Xeon, Python 3.11.7, numpy 2.4.6); ``run.py`` reports job times
on that scale.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

PHI = (1 + 5 ** 0.5) / 2
HBAR = 0.1
B_NORM = 0.01
SCALE = {"rho": 1.0, "rho_prime": 0.5}
GOLDEN_FREQ = {"omega": [1.0, PHI], "tau": 1.0, "K": 5}

# The toy perturbation of the test suite: its x-modes admit resonant
# words of length 2 and 3.
TOY_SHAPE = [
    ((1, 0), (1, 1), 3.0),
    ((-1, 0), (1, 0), 2.0),
    ((-2, 0), (0, 1), 2.0),
    ((2, 0), (-1, 1), 1.5),
]

# omega = (1, 2) with resonance vector (2, -1): one letter of each
# eigenvalue i, -i and 0.
EXACT_RESONANCE = (2, -1)
EXACT_SHAPE = [(1, 0), (1, -1), (2, -1)]


class CheckFailed(Exception):
    """A job's output failed its check."""


def _rng(workload, seed):
    return random.Random(f"mouldnf-bench:{workload}:{seed}")


def _norm_rho(coeffs, rho):
    return sum(
        abs(c) * math.exp(rho * (sum(map(abs, m)) + 2 * sum(map(abs, k))))
        for k, m, c in coeffs
    )


def toy_shaped_b(rng, shape, norm=B_NORM, rho=SCALE["rho"]):
    """A perturbation of the given shape with seeded coefficient phases,
    scaled to ``norm``."""
    coeffs = []
    for k, m, weight in shape:
        phase = rng.uniform(0, 2 * math.pi)
        coeffs.append((k, m, weight * complex(math.cos(phase), math.sin(phase))))
    scale = norm / _norm_rho(coeffs, rho)
    return {
        "d": 2,
        "coeffs": [
            {"k": list(k), "m": list(m), "re": (scale * c).real, "im": (scale * c).imag}
            for k, m, c in coeffs
        ],
    }


def _write(path, payload):
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return path


def _digest_dir(out_dir):
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _run_cli(mouldnf, argv, out_dir):
    code = mouldnf.cli.main(argv + ["--out", str(out_dir)])
    if code != 0:
        raise CheckFailed(f"mouldnf {argv[0]} exited {code}")
    return _digest_dir(out_dir)


class NormalizeCli:
    """``mouldnf normalize`` at N=3, classical and quantum."""

    name = "normalize-cli-n3"
    kinds = ("classical", "quantum")
    reference_s = 6.5
    exact = False

    def write_inputs(self, seed, in_dir):
        rng = _rng(self.name, seed)
        base = {
            "freq": GOLDEN_FREQ,
            "scale": SCALE,
            "N": 3,
            "B": toy_shaped_b(rng, TOY_SHAPE),
            # the growth fit samples words by this seed; fixed, so that
            # every seed fits on the same words
            "seed": 0,
        }
        return {
            "classical": _write(in_dir / "classical.json", dict(base, backend="classical")),
            "quantum": _write(in_dir / "quantum.json", dict(base, backend="quantum", hbar=HBAR)),
        }

    def run(self, mouldnf, config, out_dir):
        # exit 0 means the remainder bound holds and the commutation
        # residual is within the config's tolerance
        return _run_cli(mouldnf, ["normalize", "--config", str(config)], out_dir)


class VerifyExact:
    """``mouldnf verify --exact`` on a 3-letter alphabet up to length 6."""

    name = "verify-exact-r6"
    kinds = ("exact",)
    reference_s = 2.8
    exact = True

    def write_inputs(self, seed, in_dir):
        rng = _rng(self.name, seed)
        s = rng.choice((1, -1))
        alphabet = []
        for letter in EXACT_SHAPE:
            t = rng.randint(-2, 2)
            alphabet.append([s * (a + t * b) for a, b in zip(letter, EXACT_RESONANCE)])
        config = {
            "freq": {"omega": ["1", "2"], "resonance_basis": [list(EXACT_RESONANCE)], "tau": 1.0, "K": 5},
            "scale": SCALE,
            "alphabet": alphabet,
            "max_r": 6,
            "B": {"d": 2, "coeffs": []},
        }
        return {"exact": _write(in_dir / "exact.json", config)}

    def run(self, mouldnf, config, out_dir):
        # in exact mode exit 0 means zero residuals and exact alternality
        digest = _run_cli(mouldnf, ["verify", "--exact", "--config", str(config)], out_dir)
        for line in (out_dir / "verify_report.jsonl").read_text().splitlines():
            entry = json.loads(line)
            if not entry.get("ok", False) or entry.get("max_residual", 0.0) != 0.0:
                raise CheckFailed(f"verify entry failed: {line}")
        return digest


WORKLOADS = {w.name: w for w in (NormalizeCli(), VerifyExact())}
