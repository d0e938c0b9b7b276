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
# relative tolerance of the reality symmetry b(-k,-m) = conj b(k,m)
REALITY_TOL = 1e-12


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
            if defect > REALITY_TOL * max(1.0, abs(c)):
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

    def prune(self):
        if not self.coeffs:
            return self
        floor = PRUNE_REL * max(map(abs, self.coeffs.values()))
        data = {km: c for km, c in self.coeffs.items() if c != 0 and abs(c) > floor}
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
    try:
        for (k, m), c in G.items_sorted():
            total += abs(c) * math.exp(rho * (l1(m) + 2 * l1(k)))
    except OverflowError:  # a weight beyond float range
        return math.inf
    return total


def slices(B):
    """Decompose by exact x-mode: map ``k -> B_(k)`` (Fourier slice),
    sorted by ``k``."""
    parts = {}
    for (k, m), c in B.items_sorted():
        parts.setdefault(k, {})[(k, m)] = c
    return {k: Observable(B.d, data, _prune=False) for k, data in sorted(parts.items())}


def to_json_dict(B):
    coeffs = [
        {"k": list(k), "m": list(m), "re": c.real, "im": c.imag}
        for (k, m), c in B.items_sorted()
    ]
    out = {"d": B.d, "coeffs": coeffs}
    if B.real:
        out["real"] = True
    return out


_JSON_TYPES = {"integer": (int,), "number": (int, float), "string": (str,),
               "boolean": (bool,), "object": (dict,)}


def _is(value, kind):
    """Whether ``value`` has the JSON type ``kind``: a bool is no integer,
    and an integer is a number only if it has a float."""
    if type(value) not in _JSON_TYPES[kind]:
        return False
    try:
        return kind != "number" or type(value) is float or math.isfinite(value)
    except OverflowError:
        return False


def _value(value, kind, check, what, where):
    if isinstance(kind, dict):
        return _walk(value, kind, where)
    if isinstance(kind, list):
        if type(value) is not list:
            raise ValueError(f"{where}: expected a list, got {value!r}")
        return [_value(v, kind[0], check, what, f"{where}[{i}]") for i, v in enumerate(value)]
    if not any(_is(value, k) for k in kind.split(" or ")) or (check and not check(value)):
        raise ValueError(f"{where}: expected {kind}{f' {what}' if check else ''}, got {value!r}")
    return value


def _walk(data, schema, where):
    """``data`` checked against ``schema``, with defaults filled in.

    A schema maps each key to ``(kind, default)`` or ``(kind, default,
    check, what)``.  A kind is JSON type names joined by `` or ``, a
    one-item list ``[kind]`` or a nested schema (a section).  A default
    of ``...`` makes the key required and ``None`` makes it nullable;
    ``check`` is asked of each leaf and ``what`` says what it asks.
    """
    if type(data) is not dict:
        raise ValueError(f"{where}: expected an object, got {data!r}")
    unknown = set(data) - set(schema)
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")
    out = {}
    for key, (kind, default, *rule) in schema.items():
        check, what = rule or (None, None)
        value = data.get(key, default)
        if value is ...:
            raise ValueError(f"{where}.{key}: missing")
        if value is not None or default is not None:
            value = _value(value, kind, check, what, f"{where}.{key}")
        out[key] = value
    return out


_COEFF = {"k": (["integer"], ...), "m": (["integer"], ...),
          "re": ("number", ...), "im": ("number", 0.0)}
OBSERVABLE = {"d": ("integer", ...), "coeffs": ([_COEFF], ...), "real": ("boolean", False)}


def from_json_dict(data):
    data = _walk(data, OBSERVABLE, "observable")
    coeffs = {}
    for entry in data["coeffs"]:
        km = (tuple(entry["k"]), tuple(entry["m"]))
        coeffs[km] = coeffs.get(km, 0j) + complex(entry["re"], entry["im"])
    return Observable(data["d"], coeffs, real=data["real"])
