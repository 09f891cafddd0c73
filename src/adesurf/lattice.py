"""Picard lattices of blown-up rational surfaces and exact class arithmetic.

Two families of models are built here.

* ``hirzebruch_blowup(n)``: the Hirzebruch surface F^1 blown up at n points.
  Basis order is ``(b, f, l_1, ..., l_n)`` with pairing
  b*b = -1, f*f = 0, b*f = 1, l_i*l_j = -delta_ij, l_i*b = l_i*f = 0,
  and canonical class K = -2b - 3f + sum(l_i).

* ``p2_blowup(n)``: the plane blown up at n points.  Basis order is
  ``(h, l_1, ..., l_n)`` with pairing h*h = 1, l_i*l_j = -delta_ij,
  h*l_i = 0, and K = -3h + sum(l_i).

The two presentations are linked by the documented dictionary
h = b + f, l_0 = b, f = h - l_0: contracting b turns the Hirzebruch model
into a plane blown up at one extra point, whose exceptional class keeps
the name l_0.  ``p2_presentation`` builds that companion model (labels
``h, l_0, ..., l_n``) and ``change_basis`` converts classes either way,
preserving all pairings.

Coefficients are arbitrary-precision Python integers throughout; nothing
in this module ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, mul, neg, sub

from ._linalg import signature_symmetric
from .errors import AdesurfError, BasisMismatchError, UnrelatedModelsError

MAX_BLOWUPS = 64

KIND_HIRZEBRUCH = "hirzebruch_blowup"
KIND_P2 = "p2_blowup"

_KIND_ALIASES = {
    "hirzebruch": KIND_HIRZEBRUCH,
    "hirzebruch_blowup": KIND_HIRZEBRUCH,
    "p2": KIND_P2,
    "p2_blowup": KIND_P2,
}


@dataclass(frozen=True)
class LatticeClass:
    """Integer divisor class in a fixed basis of one surface model."""

    coeffs: tuple[int, ...]
    basis_id: str

    def _check(self, other: "LatticeClass") -> None:
        if self.basis_id != other.basis_id:
            raise BasisMismatchError(
                f"classes live in different bases: {self.basis_id!r} vs {other.basis_id!r}"
            )

    def __add__(self, other: "LatticeClass") -> "LatticeClass":
        self._check(other)
        return LatticeClass(tuple(map(add, self.coeffs, other.coeffs)), self.basis_id)

    def __sub__(self, other: "LatticeClass") -> "LatticeClass":
        self._check(other)
        return LatticeClass(tuple(map(sub, self.coeffs, other.coeffs)), self.basis_id)

    def __neg__(self) -> "LatticeClass":
        return LatticeClass(tuple(map(neg, self.coeffs)), self.basis_id)

    def __mul__(self, k: int) -> "LatticeClass":
        return LatticeClass(tuple(k * a for a in self.coeffs), self.basis_id)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def dot(a, b) -> int:
    """The dot product of two int vectors of one length."""
    return sum(map(mul, a, b))


@dataclass(frozen=True)
class SurfaceModel:
    """A rational-surface lattice model: basis, pairing, distinguished classes."""

    kind: str
    n: int
    basis_id: str
    labels: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    K: LatticeClass
    E: LatticeClass
    fiber_class: LatticeClass | None
    base_class: LatticeClass | None

    @property
    def rank(self) -> int:
        return len(self.labels)

    def cls(self, coeffs) -> LatticeClass:
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != self.rank:
            raise AdesurfError(
                f"expected {self.rank} coefficients for basis {self.basis_id!r}, got {len(coeffs)}"
            )
        return LatticeClass(coeffs, self.basis_id)

    def zero(self) -> LatticeClass:
        return self.cls((0,) * self.rank)

    @cached_property
    def e_row(self) -> tuple[int, ...]:
        """Gram * E: the boundary degree x*E is one dot product with it."""
        return self.pairing_row(self.E)

    @cached_property
    def _basis_classes(self) -> dict[str, LatticeClass]:
        r = self.rank
        return {
            label: LatticeClass(tuple(int(j == i) for j in range(r)), self.basis_id)
            for i, label in enumerate(self.labels)
        }

    @cached_property
    def exceptional_positions(self) -> tuple[tuple[int, int], ...]:
        """(position in the basis, i) for each exceptional class l_i."""
        return tuple((j, int(label[1:])) for j, label in enumerate(self.labels) if label[0] == "l")

    def basis_class(self, label: str) -> LatticeClass:
        try:
            return self._basis_classes[label]
        except KeyError:
            raise AdesurfError(f"no basis label {label!r} in {self.basis_id!r}") from None

    def exceptional(self, i: int) -> LatticeClass:
        """The class l_i (indexing follows the labels of the model)."""
        return self.basis_class(f"l{i}")

    def check_basis(self, a: LatticeClass, b: LatticeClass) -> None:
        """Raise BasisMismatchError unless a and b both live in this model."""
        if a.basis_id != self.basis_id or b.basis_id != self.basis_id:
            raise BasisMismatchError(
                f"pairing on {self.basis_id!r} got classes from "
                f"{a.basis_id!r} and {b.basis_id!r}"
            )

    def pairing_row(self, c: LatticeClass) -> tuple[int, ...]:
        """Gram * c, the dual vector of c: x*c is dot(x.coeffs, pairing_row(c))."""
        self.check_basis(c, c)
        x = c.coeffs
        return tuple([dot(row, x) for row in self.gram])

    def pair(self, a: LatticeClass, b: LatticeClass) -> int:
        self.check_basis(a, b)
        y = b.coeffs
        return dot(a.coeffs, [dot(row, y) for row in self.gram])

    def verify(self) -> None:
        """Check the structural invariants of the model; raises on failure."""
        r = self.rank
        for i in range(r):
            for j in range(r):
                if self.gram[i][j] != self.gram[j][i]:
                    raise AdesurfError("gram matrix not symmetric")
        pos, neg, zero = signature_symmetric(self.gram)
        if (pos, neg, zero) != (1, r - 1, 0):
            raise AdesurfError(f"signature {(pos, neg, zero)} is not (1, rank-1, 0)")
        kk = self.pair(self.K, self.K)
        expected = (8 - self.n) if self.kind == KIND_HIRZEBRUCH else (9 - self.n)
        if kk != expected:
            raise AdesurfError(f"K*K = {kk}, expected {expected}")
        if (self.E + self.K).coeffs != self.zero().coeffs:
            raise AdesurfError("E is not -K")


_REGISTRY: dict[str, SurfaceModel] = {}


def get_model(basis_id: str) -> SurfaceModel:
    try:
        return _REGISTRY[basis_id]
    except KeyError:
        raise AdesurfError(f"unknown basis id {basis_id!r}; build the surface first") from None


def _register(model: SurfaceModel) -> SurfaceModel:
    model.verify()
    return _REGISTRY.setdefault(model.basis_id, model)


def _check_n(n: int) -> None:
    if not (0 <= n <= MAX_BLOWUPS):
        raise AdesurfError(f"blowup count n = {n} outside [0, {MAX_BLOWUPS}]")


def hirzebruch_blowup(n: int) -> SurfaceModel:
    """F^1 blown up at n points; basis (b, f, l_1..l_n)."""
    _check_n(n)
    basis_id = f"hirzebruch_blowup({n})"
    if basis_id in _REGISTRY:
        return _REGISTRY[basis_id]
    rank = n + 2
    labels = ("b", "f") + tuple(f"l{i}" for i in range(1, n + 1))
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = -1
    gram[0][1] = gram[1][0] = 1
    for i in range(2, rank):
        gram[i][i] = -1
    gram_t = tuple(tuple(row) for row in gram)
    K = LatticeClass((-2, -3) + (1,) * n, basis_id)
    model = SurfaceModel(
        kind=KIND_HIRZEBRUCH,
        n=n,
        basis_id=basis_id,
        labels=labels,
        gram=gram_t,
        K=K,
        E=-K,
        fiber_class=LatticeClass((0, 1) + (0,) * n, basis_id),
        base_class=LatticeClass((1, 0) + (0,) * n, basis_id),
    )
    return _register(model)


def p2_blowup(n: int, _label_offset: int = 1, _id: str | None = None) -> SurfaceModel:
    """The plane blown up at n points; basis (h, l_1..l_n)."""
    _check_n(n)
    basis_id = _id or f"p2_blowup({n})"
    if basis_id in _REGISTRY:
        return _REGISTRY[basis_id]
    rank = n + 1
    labels = ("h",) + tuple(f"l{i}" for i in range(_label_offset, _label_offset + n))
    gram = [[0] * rank for _ in range(rank)]
    gram[0][0] = 1
    for i in range(1, rank):
        gram[i][i] = -1
    gram_t = tuple(tuple(row) for row in gram)
    K = LatticeClass((-3,) + (1,) * n, basis_id)
    model = SurfaceModel(
        kind=KIND_P2,
        n=n,
        basis_id=basis_id,
        labels=labels,
        gram=gram_t,
        K=K,
        E=-K,
        fiber_class=None,
        base_class=None,
    )
    return _register(model)


def build_surface(kind: str, n: int) -> SurfaceModel:
    """Build a surface model.

    `kind` is 'hirzebruch_blowup' or 'p2_blowup', or the short form
    'hirzebruch' or 'p2'; no other spelling is accepted.
    """
    try:
        canonical = _KIND_ALIASES[kind]
    except KeyError:
        raise AdesurfError(f"unknown surface kind {kind!r}") from None
    if canonical == KIND_HIRZEBRUCH:
        return hirzebruch_blowup(n)
    return p2_blowup(n)


def p2_presentation(model: SurfaceModel) -> SurfaceModel:
    """Companion plane presentation of a Hirzebruch model.

    Contracting b gives a plane blown up at n+1 points; b survives as the
    exceptional class l_0, so the companion basis is (h, l_0, ..., l_n).
    """
    if model.kind != KIND_HIRZEBRUCH:
        raise UnrelatedModelsError("only Hirzebruch models have a companion plane presentation")
    return p2_blowup(model.n + 1, _label_offset=0, _id=f"p2_blowup({model.n + 1};l0)")


def _companion_pair(model_from: SurfaceModel, model_to: SurfaceModel) -> str | None:
    """Return 'contract' / 'expand' when the two models form a documented pair."""
    if model_from.kind == KIND_HIRZEBRUCH and model_to.basis_id == f"p2_blowup({model_from.n + 1};l0)":
        return "contract"
    if model_to.kind == KIND_HIRZEBRUCH and model_from.basis_id == f"p2_blowup({model_to.n + 1};l0)":
        return "expand"
    return None


def change_basis(model_from: SurfaceModel, model_to: SurfaceModel, cls: LatticeClass) -> LatticeClass:
    """Convert a class along the b = l_0, f = h - l_0, h = b + f dictionary."""
    if cls.basis_id != model_from.basis_id:
        raise BasisMismatchError(
            f"class belongs to {cls.basis_id!r}, not to source model {model_from.basis_id!r}"
        )
    if model_from.basis_id == model_to.basis_id:
        return cls
    direction = _companion_pair(model_from, model_to)
    if direction is None:
        raise UnrelatedModelsError(
            f"no documented dictionary between {model_from.basis_id!r} and {model_to.basis_id!r}"
        )
    c = cls.coeffs
    if direction == "contract":
        # (beta_b, beta_f, m_1..m_n) -> beta_f * h + (beta_b - beta_f) * l_0 + m_i * l_i
        out = (c[1], c[0] - c[1]) + c[2:]
    else:
        # (a_h, a_0, m_1..m_n) -> (a_h + a_0) * b + a_h * f + m_i * l_i
        out = (c[0] + c[1], c[0]) + c[2:]
    return LatticeClass(out, model_to.basis_id)
