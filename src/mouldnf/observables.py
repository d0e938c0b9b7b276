"""Sparse trigonometric observables on the torus phase space.

An observable is a finite sum ``sum b_km exp(i(k.x + m.xi))`` stored as
a sparse map ``(k, m) -> complex``.  The same data doubles as a quantum
Weyl symbol; both backends share this type.  Keeping the modes
trigonometric in x *and* xi makes the bracket, the weighted norm and
the Fourier slices exact and finite.

The x0 generator ``omega . xi`` is deliberately not an Observable (its
weighted norm is not finite); it only ever acts through its diagonal
eigenvalues ``i<k, omega>`` on mode vectors.
"""

from __future__ import annotations

import math

from .alphabet import l1

PRUNE_REL = 1e-16


def _key(k, m):
    return tuple(int(c) for c in k), tuple(int(c) for c in m)


class Observable:
    """A sparse complex trigonometric polynomial on T*T^d.

    Parameters
    ----------
    d : int
        Phase-space dimension (modes live in Z^d x Z^d).
    coeffs : mapping ``(k, m) -> complex``, optional
    real : bool
        Declares the reality symmetry ``b_{-k,-m} = conj(b_{k,m})``;
        validated on construction.

    Instances are immutable in intent: all operations return new
    observables, so unrestricted concurrent use is safe.
    """

    __slots__ = ("d", "coeffs", "real")

    def __init__(self, d, coeffs=None, real=False, _prune=True):
        self.d = int(d)
        data = {}
        if coeffs:
            for (k, m), c in coeffs.items():
                k, m = _key(k, m)
                if len(k) != self.d or len(m) != self.d:
                    raise ValueError(f"mode ({k},{m}) does not match d={self.d}")
                c = complex(c)
                if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                    raise ValueError(f"coefficient of mode ({k},{m}) is not finite: {c!r}")
                if c != 0:
                    data[(k, m)] = data.get((k, m), 0j) + c
        if _prune and data:
            top = max(abs(c) for c in data.values())
            data = {km: c for km, c in data.items() if c != 0 and abs(c) > PRUNE_REL * top}
        self.coeffs = data
        self.real = bool(real)
        if self.real:
            self._check_real()

    @classmethod
    def _of(cls, d, data, real):
        """The observable on ``data`` without the per-mode checks, for
        results built from stored modes: integer-tuple keys of length
        ``d`` and complex values without negative-zero parts, nonzero
        unless pruned next.  Only the reality flag is checked."""
        obs = object.__new__(cls)
        obs.d = d
        obs.coeffs = data
        obs.real = real
        if real:
            obs._check_real()
        return obs

    def _mirror_defects(self):
        """``((k, m), c, |b(-k,-m) - conj c|)`` for every stored mode."""
        for (k, m), c in self.coeffs.items():
            mirror = self.coeffs.get((tuple(-a for a in k), tuple(-a for a in m)), 0j)
            yield (k, m), c, abs(mirror - c.conjugate())

    def _check_real(self):
        for (k, m), c, defect in self._mirror_defects():
            if defect > 1e-12 * max(1.0, abs(c)):
                raise ValueError(f"reality flag violated at mode ({k},{m})")

    def reality_defect(self):
        """``max |b(k,m) - conj b(-k,-m)|``.  Under the midpoint Weyl rule,
        ``Op(b e_{k,m})^dagger = Op(conj(b) e_{-k,-m})``: a zero defect
        means a Hermitian Weyl matrix on every basis box, and the matrix's
        defect is at most the sum over ``m`` of these at fixed ``k``."""
        return max((defect for _, _, defect in self._mirror_defects()), default=0.0)

    @classmethod
    def zero(cls, d):
        return cls(d, {})

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0])

    def __len__(self):
        return len(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Observable)
            and self.d == other.d
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        data = dict(self.coeffs)
        for km, c in other.coeffs.items():
            s = data.get(km, 0j) + c
            if s == 0:
                data.pop(km, None)
            else:
                data[km] = s
        return Observable._of(self.d, data, self.real and other.real)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        scalar = complex(scalar)
        real = self.real and scalar.imag == 0.0
        # 0j + clears the negative zeros a product can have, as the
        # public constructor's sum does
        return Observable._of(
            self.d,
            {km: 0j + p for km, c in self.coeffs.items() if (p := scalar * c) != 0},
            real,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def prune(self, rel=PRUNE_REL):
        if not self.coeffs:
            return self
        top = max(abs(c) for c in self.coeffs.values())
        data = {km: c for km, c in self.coeffs.items() if c != 0 and abs(c) > rel * top}
        return Observable._of(self.d, data, self.real)

    def max_abs(self):
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def __repr__(self):
        return f"Observable(d={self.d}, modes={len(self.coeffs)})"


def norm_rho(G, rho):
    """Weighted coefficient norm ``sum |b_km| exp(rho(|m| + 2|k|))``.

    The weight doubles the x-mode contribution, matching the torus
    reduction of the symplectic-Fourier weight; ``|.|`` is the l1 norm.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    total = 0.0
    for (k, m), c in G.items_sorted():
        total += abs(c) * math.exp(rho * (l1(m) + 2 * l1(k)))
    return total


def _group_by_x_mode(B, key):
    """Split ``B`` into ``key(k) -> Observable``, sorted by key."""
    parts = {}
    for (k, m), c in B.items_sorted():
        parts.setdefault(key(k), {})[(k, m)] = c
    return {g: Observable(B.d, data, _prune=False) for g, data in sorted(parts.items())}


def slices(B):
    """Decompose by exact x-mode: map ``k -> B_(k)`` (Fourier slice)."""
    return _group_by_x_mode(B, lambda k: k)


def to_json_dict(B):
    coeffs = [
        {"k": list(k), "m": list(m), "re": c.real, "im": c.imag}
        for (k, m), c in B.items_sorted()
    ]
    out = {"d": B.d, "coeffs": coeffs}
    if B.real:
        out["real"] = True
    return out


def _typed(value, types, name):
    """``value`` if its type is one of ``types`` (so no bool passes as an
    int), else a ``ValueError``; the check on JSON input, here and in the
    config reader."""
    if type(value) not in types:
        raise ValueError(f"{name} must be {'/'.join(t.__name__ for t in types)}, got {value!r}")
    return value


def from_json_dict(data):
    if not isinstance(data, dict):
        raise ValueError(f"observable must be an object, got {data!r}")
    extra = set(data) - {"d", "coeffs", "real"}
    if extra:
        raise ValueError(f"unknown observable keys: {sorted(extra)}")
    entries = data["coeffs"]
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f"coeffs must be a list of objects, got {entries!r}")
    coeffs = {}
    for entry in entries:
        k, m = (
            tuple(_typed(c, (int,), key) for c in _typed(entry[key], (list,), key)) for key in "km"
        )
        re = _typed(entry["re"], (int, float), "re")
        im = _typed(entry.get("im", 0.0), (int, float), "im")
        coeffs[(k, m)] = coeffs.get((k, m), 0j) + complex(re, im)
    real = _typed(data.get("real", False), (bool,), "real")
    return Observable(_typed(data["d"], (int,), "d"), coeffs, real=real)
