"""Sparse trigonometric observables on the torus phase space.

An observable is a finite sum ``sum b_km exp(i(k.x + m.xi))`` stored as
a sparse map ``(k, m) -> complex``.  The same data doubles as a quantum
Weyl symbol; both backends share this type.  Keeping the modes
trigonometric in x *and* xi makes the bracket, the weighted norm and
the homogeneous decomposition exact and finite.

The x0 generator ``omega . xi`` is deliberately not an Observable (its
weighted norm is not finite); it only ever acts through its diagonal
eigenvalues ``i<k, omega>`` on mode vectors.
"""

from __future__ import annotations

import math

from .alphabet import beta, l1, words_over

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
            {km: 0j + scalar * c for km, c in self.coeffs.items() if scalar * c != 0},
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


def homogeneous_parts(B, freq):
    """Partition into eigen-components of the x0 adjoint action.

    Modes are grouped by the class of ``k`` modulo the resonance
    lattice (exact integer decision), which is exactly grouping by the
    eigenvalue ``i<k, omega>`` for a consistent frequency.  The parts
    sum back to ``B`` bitwise.

    Returns
    -------
    dict
        ``class_representative -> Observable``, sorted by representative.
    """
    return _group_by_x_mode(B, freq.lattice_class)


def norm_rho_stripped(G, rho):
    """Part norm with a single x-mode weight: ``sum |b| e^(rho(|m| + |k|))``.

    One of the two e^(rho|k|) factors of :func:`norm_rho` is the budget
    that the small-divisor weight ``e^(eta beta)`` consumes letter by
    letter in the geometric-eta estimates; the norm-power bound on the
    weighted tuple sums holds with this stripped convention.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    total = 0.0
    for (k, m), c in G.items_sorted():
        total += abs(c) * math.exp(rho * (l1(m) + l1(k)))
    return total


def weighted_tuple_sum(B, r, eta_r, tau_r, freq, rho, strip_letter_weight=False):
    """Weighted sum of products of part norms over r-tuples of classes.

    Exact finite sum over all r-tuples of the homogeneous classes of
    ``B`` of ``prod ||B_li||_rho * exp(eta_r * beta_{tau_r}(word))``.
    With ``strip_letter_weight`` the part norms drop one e^(rho|k|)
    factor (see :func:`norm_rho_stripped`); that is the convention under
    which the geometric eta ladder keeps the sums below ``||B||_rho^r``.
    """
    if eta_r <= 0 or tau_r < 1:
        raise ValueError("need eta_r > 0 and tau_r >= 1")
    parts = homogeneous_parts(B, freq)
    if not parts:
        return 0.0
    part_norm = norm_rho_stripped if strip_letter_weight else norm_rho
    norms = {rep: part_norm(part, rho) for rep, part in parts.items()}
    total = 0.0
    for word in words_over(parts, r, min_r=r):
        weight = math.exp(eta_r * beta(word, tau_r, freq))
        prod = 1.0
        for rep in word:
            prod *= norms[rep]
        total += prod * weight
    return total


def to_json_dict(B):
    coeffs = [
        {"k": list(k), "m": list(m), "re": c.real, "im": c.imag}
        for (k, m), c in B.items_sorted()
    ]
    out = {"d": B.d, "coeffs": coeffs}
    if B.real:
        out["real"] = True
    return out


def from_json_dict(data):
    extra = set(data) - {"d", "coeffs", "real"}
    if extra:
        raise ValueError(f"unknown observable keys: {sorted(extra)}")
    coeffs = {}
    for entry in data["coeffs"]:
        k = tuple(int(c) for c in entry["k"])
        m = tuple(int(c) for c in entry["m"])
        coeffs[(k, m)] = coeffs.get((k, m), 0j) + complex(entry["re"], entry.get("im", 0.0))
    return Observable(int(data["d"]), coeffs, real=bool(data.get("real", False)))
