"""Truncated graded quotient rings with exact linear algebra.

The engine handles rings C[v_1..v_k]/(relations) where every relation is
"solvable": a pure power of one variable on the left, a degree-homogeneous
right-hand side not containing that variable, and no substitution cycles
between relation variables.  Monomials then have a unique normal form with
bounded exponents in the relation variables, and every graded piece is a
finite-dimensional Q-vector space with the normal-form monomials as basis.
Coefficients are Python ints wherever the input is integral, as in all
four built-in rings; a Fraction appears only where a relation has a
rational coefficient.  Each monomial's normal form is computed once per
ring, so reducing a product costs one cache lookup per term; each degree's
basis once per ring shape, shared by every ring of that shape.  Sums go
through ``_accumulate``, so a term dict never stores a zero, and products
through ``_product``.  The resolution charts are one relation-free ring, a
chart map is ``map_to`` into it, and it sends x, y, z to twice their images
(see the comment above them), so chart coefficients stay integral too.
Membership, generation, freeness and minimal-generator questions are all
answered degree by degree: each element becomes a sparse integer row over
the normal-form monomials, and ``_linalg.Echelon`` reduces those rows
fraction-free, extending one echelon where a question compares two spans.
Two questions stop early where graded Nakayama settles them:
``check_generate`` stops at the degree ``_generation_bound`` proves
sufficient, when there is one, and ``min_generator_profile`` eliminates
only in the degrees of the ideal's generators, since (I/mI)_d is 0 in
every other degree.  ``check_free`` first tries one rank over the
polynomial part of its coefficient subring, which settles every degree at
once when the generators are free there.

The second half of the file is the branch-locus verification suite: the
local rings of a spectral cover's double point (s^2 = t), of the family
over it, of the singular surface fiber x^2 - y^2 + z^2 = 0 and of its
small resolution charts.  ``verify_extension_chain`` mechanically replays
the pushforward computation at the branch locus:

  (a) 1 and s generate the upstairs functions over the downstairs ring;
  (b) x - y and z + s generate their ideal freely (rank-two kernel sheaf);
  (c) the divisor cut out by x = y, z = s needs two generators at the
      origin while its Cartier partner x = y needs one;
  (d) on the central fiber, killing s maps the kernel module onto the
      ideal (x - y, z) with exact dimension bookkeeping in every degree;
  (e) the kernel of that map becomes principal on the resolution charts
      (the two generators of the syzygies, and so every syzygy, are
      proportional to (lambda_2, lambda_1)), and the
      restriction degrees to the exceptional curve come out (-1, +1) for
      the naive direct sum versus (0, 0) for the verified module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from ._linalg import Coeff, Echelon, exact, nullspace, rank
from .errors import AdesurfError, RingConstructionError

Monomial = tuple[int, ...]
Terms = dict[Monomial, Coeff]


def _accumulate(out: Terms, terms: Terms, scale: Coeff = 1) -> Terms:
    """Add `scale` times `terms` into `out` in place, dropping coefficients that become 0."""
    for m, c in terms.items():
        new = out.get(m, 0) + scale * c
        if new:
            out[m] = new
        else:
            out.pop(m, None)
    return out


@cache
def _monomial_sum(nvars: int):
    """The exponent-wise sum of two monomials in `nvars` variables, unrolled.

    ``(a[0] + b[0], a[1] + b[1], ...)`` takes about a third of the time of
    ``tuple(map(add, a, b))`` on the rings here, and every product and
    rewriting step goes through it.
    """
    body = "".join(f"a[{i}] + b[{i}], " for i in range(nvars))
    return eval(f"lambda a, b: ({body})")


def _product(a: Terms, b: Terms) -> Terms:
    """The product of two term dicts multiplied out, without reduction.

    A coefficient that cancels is kept as 0; ``_accumulate`` and
    ``TruncRing.reduce_terms`` drop it when the product is summed in.
    """
    out: Terms = {}
    if not (a and b):
        return out
    mono_sum = _monomial_sum(len(next(iter(a))))
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mon = mono_sum(m1, m2)
            out[mon] = out.get(mon, 0) + c1 * c2
    return out


# ((variable degrees, exponent caps), d) -> the sorted normal-form monomials
# of degree d.  Threads may race on a key; both compute the same list, and
# the last write wins.
_SHAPE_BASES: dict[tuple, list[Monomial]] = {}


def _enumerate_basis(degrees: tuple[int, ...], caps: tuple[int | None, ...], d: int):
    """Exponent tuples of weighted degree d, each exponent at most its cap (None: none), sorted."""
    out: list[Monomial] = []
    n = len(degrees)
    exps = [0] * n  # the exponents chosen so far, overwritten in place

    def rec(i: int, remaining: int) -> None:
        if i == n:
            if remaining == 0:
                out.append(tuple(exps))
            return
        dv, cap = degrees[i], caps[i]
        top = remaining // dv if cap is None else min(remaining // dv, cap)
        for e in range(top + 1):
            exps[i] = e
            rec(i + 1, remaining - e * dv)

    rec(0, d)
    out.sort()
    return out


@dataclass(frozen=True)
class Relation:
    var: int
    power: int
    rhs: tuple[tuple[Monomial, Coeff], ...]


class TruncRing:
    """Multivariate quotient ring with solvable relations and a degree cap."""

    def __init__(self, variables, relations=(), max_degree: int = 8):
        self.var_names = tuple(name for name, _ in variables)
        self.var_degrees = tuple(int(d) for _, d in variables)
        if len(set(self.var_names)) != len(self.var_names):
            raise RingConstructionError("duplicate variable names")
        if any(d <= 0 for d in self.var_degrees):
            raise RingConstructionError("variable degrees must be positive")
        if max_degree < 0:
            raise RingConstructionError("max_degree must be non-negative")
        self.max_degree = int(max_degree)
        self.relations: dict[int, Relation] = {}
        for rel in relations:
            rel = self._normalize_relation(rel)
            if rel.var in self.relations:
                raise RingConstructionError(
                    f"two relations rewrite the same variable {self.var_names[rel.var]!r}"
                )
            self.relations[rel.var] = rel
        self._check_acyclic()
        caps = tuple(
            self.relations[v].power - 1 if v in self.relations else None for v in range(self.nvars)
        )
        self._shape = (self.var_degrees, caps)
        self._mono_sum = _monomial_sum(self.nvars)
        self._basis_cache: dict[int, list[Monomial]] = {}
        self._subring_cache: dict[tuple[tuple[int, ...], int], list[Monomial]] = {}
        self._normal_forms: dict[Monomial, Terms] = {}

    # -- construction helpers ------------------------------------------------
    def _normalize_relation(self, rel) -> Relation:
        var, power, rhs = rel
        if isinstance(var, str):
            var = self.var_names.index(var)
        power = int(power)
        if power < 1:
            raise RingConstructionError("relation power must be >= 1")
        rhs_terms: Terms = {}
        for mon, coeff in (rhs.items() if isinstance(rhs, dict) else rhs):
            mon = tuple(int(e) for e in mon)
            if len(mon) != self.nvars:
                raise RingConstructionError("relation monomial has wrong arity")
            if mon[var] != 0:
                raise RingConstructionError(
                    "relation right side contains its own left-side variable"
                )
            c = exact(coeff)
            if c:
                rhs_terms[mon] = rhs_terms.get(mon, 0) + c
        lhs_degree = power * self.var_degrees[var]
        for mon in rhs_terms:
            if self.monomial_degree(mon) != lhs_degree:
                raise RingConstructionError(
                    f"relation for {self.var_names[var]!r} is not degree-homogeneous"
                )
        return Relation(var=var, power=power, rhs=tuple(sorted(rhs_terms.items())))

    def _check_acyclic(self) -> None:
        deps = {
            v: {
                w
                for mon, _ in rel.rhs
                for w in range(self.nvars)
                if mon[w] and w in {r for r in self.relations}
            }
            for v, rel in self.relations.items()
        }
        state: dict[int, int] = {}

        def visit(v: int) -> None:
            state[v] = 1
            for w in deps.get(v, ()):  # relation vars appearing on the right
                if state.get(w) == 1:
                    raise RingConstructionError("relation substitution cycle detected")
                if w not in state:
                    visit(w)
            state[v] = 2

        for v in self.relations:
            if v not in state:
                visit(v)

    # -- basic structure -------------------------------------------------------
    @property
    def nvars(self) -> int:
        return len(self.var_names)

    def monomial_degree(self, mon: Monomial) -> int:
        return sum(e * d for e, d in zip(mon, self.var_degrees))

    def var(self, name: str) -> "RingElement":
        i = _var_index(self, name)
        mon = tuple(int(j == i) for j in range(self.nvars))
        return RingElement(self, {mon: 1})

    def const(self, c) -> "RingElement":
        c = exact(c)
        if not c:
            return RingElement(self, {})
        return RingElement(self, {(0,) * self.nvars: c})

    def zero(self) -> "RingElement":
        return RingElement(self, {})

    # -- normal forms ----------------------------------------------------------
    def _rewrite(self, mon: Monomial, rng: random.Random | None = None):
        """One rewriting step of `mon` as (monomial, coefficient) terms; None if normal.

        The step rewrites the smallest relation variable whose exponent
        reaches its power, or a random one when `rng` is given.
        """
        reducible = [v for v, rel in self.relations.items() if mon[v] >= rel.power]
        if not reducible:
            return None
        v = rng.choice(reducible) if rng is not None else min(reducible)
        rel = self.relations[v]
        rest = list(mon)
        rest[v] -= rel.power
        return [(self._mono_sum(rest, rmon), rcoeff) for rmon, rcoeff in rel.rhs]

    def normal_form(self, mon: Monomial) -> Terms:
        """Normal form of one monomial, computed once per ring.

        Normal forms of solvable relation sets are unique, so each
        monomial's is kept for the life of the ring.  The caller must not
        change the returned dict.
        """
        cache = self._normal_forms
        stack = [mon]
        while stack:
            m = stack[-1]
            if m in cache:
                stack.pop()
                continue
            step = self._rewrite(m)
            if step is None:
                cache[m] = {m: 1}
                stack.pop()
                continue
            missing = [m2 for m2, _ in step if m2 not in cache]
            if missing:
                stack.extend(missing)
                continue
            out: Terms = {}
            for m2, c2 in step:
                _accumulate(out, cache[m2], c2)
            cache[m] = out
            stack.pop()
        return cache[mon]

    def reduce_terms(self, terms: Terms, rng: random.Random | None = None) -> Terms:
        """Rewrite until every relation-variable exponent is below its power.

        Without `rng` each monomial's memoised normal form is summed in.
        With `rng` the terms are rewritten step by step in a random order
        (the confluence property test); the result is order-independent
        for solvable relation sets.
        """
        out: Terms = {}
        if rng is None:
            cache = self._normal_forms
            for mon, coeff in terms.items():
                if coeff:
                    _accumulate(out, cache.get(mon) or self.normal_form(mon), coeff)
            return out
        work = list(terms.items())
        while work:
            mon, coeff = work.pop()
            if coeff == 0:
                continue
            step = self._rewrite(mon, rng)
            if step is None:
                _accumulate(out, {mon: coeff})
                continue
            work.extend((m, coeff * c) for m, c in step)
        return out

    def basis(self, d: int) -> list[Monomial]:
        """Normal-form monomials of degree d, sorted; the caller must not change the list.

        The list depends only on the ring's shape: its variable degrees and
        the exponent cap of each rewritten variable, not on the relations'
        right sides or on ``max_degree``.  So it is enumerated once per
        (shape, d) in the process, kept in ``_SHAPE_BASES`` and shared by
        every ring of that shape; each ring also keeps its own lists by d.
        """
        if d < 0:
            return []
        out = self._basis_cache.get(d)
        if out is not None:
            return out
        key = (self._shape, d)
        out = _SHAPE_BASES.get(key)
        if out is None:
            out = _SHAPE_BASES[key] = _enumerate_basis(*self._shape, d)
        self._basis_cache[d] = out
        return out

    def graded_dim(self, d: int) -> int:
        """Dimension of the degree-d piece of the ring."""
        if not (0 <= d <= self.max_degree):
            raise AdesurfError(f"degree {d} outside [0, {self.max_degree}]")
        return len(self.basis(d))

    def subring_monomials(self, coeff_vars: tuple[int, ...], d: int) -> list[Monomial]:
        """Normal-form monomials of degree d supported on the given variables, sorted.

        Kept per (coeff_vars, d) for the life of the ring; the caller must
        not change the list.
        """
        key = (tuple(coeff_vars), d)
        out = self._subring_cache.get(key)
        if out is None:
            outside = [i for i in range(self.nvars) if i not in key[0]]
            out = [m for m in self.basis(d) if not any(m[i] for i in outside)]
            self._subring_cache[key] = out
        return out


class RingElement:
    """Immutable normal-form element of a TruncRing."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: TruncRing, terms: Terms, *, reduced: bool = False):
        self.ring = ring
        self.terms = dict(terms) if reduced else ring.reduce_terms(terms)

    # -- arithmetic ------------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, RingElement):
            if other.ring is not self.ring:
                raise AdesurfError("elements from different rings")
            return other
        return self.ring.const(other)

    def __add__(self, other):
        out = _accumulate(dict(self.terms), self._coerce(other).terms)
        return RingElement(self.ring, out, reduced=True)

    __radd__ = __add__

    def __neg__(self):
        return RingElement(self.ring, {m: -c for m, c in self.terms.items()}, reduced=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, RingElement) and isinstance(other, (int, Fraction)):
            c = exact(other)
            if not c:
                return self.ring.zero()
            return RingElement(
                self.ring, {m: c * v for m, v in self.terms.items()}, reduced=True
            )
        return RingElement(self.ring, _product(self.terms, self._coerce(other).terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise AdesurfError("negative powers are not ring elements")
        out = self.ring.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ring), tuple(sorted(self.terms.items()))))

    # -- structure ---------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degs = {self.ring.monomial_degree(m) for m in self.terms}
        return len(degs) <= 1

    @property
    def degree(self) -> int:
        """Degree of a homogeneous element; zero element gets -1."""
        if not self.terms:
            return -1
        degs = {self.ring.monomial_degree(m) for m in self.terms}
        if len(degs) != 1:
            raise AdesurfError("degree of a non-homogeneous element")
        return degs.pop()

    def map_to(self, target: TruncRing, images: dict[str, "RingElement"]) -> "RingElement":
        """Substitution homomorphism sending each variable to its image.

        The terms are multiplied out into one dict and reduced once at the
        end; into a ring without relations every monomial is already normal.
        """
        one: Terms = {(0,) * target.nvars: 1}
        powers: dict[int, list[Terms]] = {}  # variable -> [image^0, image^1, ...]
        out: Terms = {}
        for mon, coeff in self.terms.items():
            term = one
            for i, e in enumerate(mon):
                if not e:
                    continue
                pw = powers.get(i)
                if pw is None:
                    name = self.ring.var_names[i]
                    image = images.get(name)
                    if image is None:
                        raise AdesurfError(f"map undefined for variable {name!r}")
                    if image.ring is not target:
                        raise AdesurfError("elements from different rings")
                    pw = powers[i] = [one, image.terms]
                while len(pw) <= e:
                    pw.append(_product(pw[-1], pw[1]))
                term = pw[e] if term is one else _product(term, pw[e])
            _accumulate(out, term, coeff)
        return RingElement(target, out, reduced=not target.relations)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mon, coeff in sorted(self.terms.items()):
            factors = [
                f"{self.ring.var_names[i]}^{e}" if e > 1 else self.ring.var_names[i]
                for i, e in enumerate(mon)
                if e
            ]
            body = "*".join(factors) if factors else "1"
            parts.append(f"{coeff}*{body}" if coeff != 1 or not factors else body)
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# graded modules and linear-algebra queries


@dataclass(frozen=True)
class GradedModule:
    """Submodule of the ring spanned by homogeneous generators over a subring."""

    ring: TruncRing
    generators: tuple[RingElement, ...]
    coeff_vars: tuple[int, ...]

    def __post_init__(self):
        for g in self.generators:
            if not g.is_homogeneous() or g.is_zero():
                raise AdesurfError("module generators must be homogeneous and nonzero")

    @staticmethod
    def over_full_ring(ring: TruncRing, generators) -> "GradedModule":
        return GradedModule(ring, tuple(generators), tuple(range(ring.nvars)))

    def spanning_elements(self, d: int, *, skip_units: bool = False) -> list[RingElement]:
        out = []
        for g in self.generators:
            rem = d - g.degree
            if rem < 0:
                continue
            for mon in self.ring.subring_monomials(self.coeff_vars, rem):
                if skip_units and all(e == 0 for e in mon):
                    continue
                out.append(RingElement(self.ring, _product({mon: 1}, g.terms)))
        return out


def _columns(index: dict[Monomial, int], el: RingElement):
    """(basis column, coefficient) of each term of an element, by the degree's basis index."""
    for mon, coeff in el.terms.items():
        col = index.get(mon)
        if col is None:
            raise AdesurfError("element not homogeneous of the requested degree")
        yield col, coeff


def _vectors(ring: TruncRing, elements: list[RingElement], d: int) -> list[dict[int, Coeff]]:
    """Sparse coordinate rows over ``ring.basis(d)``, one per element.

    The rows are not scaled here: ``Echelon.add`` makes each row integral
    when it reduces it.  Relations among the elements come from
    ``_relation_rows``.
    """
    index = {m: i for i, m in enumerate(ring.basis(d))}
    return [dict(_columns(index, el)) for el in elements]


def _relation_rows(ring: TruncRing, elements: list[RingElement], d: int) -> list[dict[int, Coeff]]:
    """Transposed coordinates: one sparse row per basis monomial, one column per element.

    The right kernel of these rows is the space of linear relations among
    the elements; ``nullspace`` gives it as primitive integer combinations.
    """
    basis = ring.basis(d)
    index = {m: i for i, m in enumerate(basis)}
    rows: list[dict[int, Coeff]] = [{} for _ in basis]
    for j, el in enumerate(elements):
        for col, coeff in _columns(index, el):
            rows[col][j] = coeff
    return rows


def _combination(ring: TruncRing, combo: dict[int, Coeff], elements: list[RingElement]) -> RingElement:
    """The sum of c * elements[j] over the entries (j, c) of `combo`."""
    out: Terms = {}
    for j, c in combo.items():
        _accumulate(out, elements[j].terms, c)
    return RingElement(ring, out, reduced=True)


@dataclass(frozen=True)
class DegreeCheck:
    ok: bool
    first_failure_degree: int | None = None


def _generation_bound(ring: TruncRing, target: GradedModule, candidate: GradedModule) -> int | None:
    """A degree a such that target_d = candidate_d for d <= a implies it in every degree.

    Write S_T for the target's coefficient variables and S_C for the
    candidate's.  When S_C lies in S_T, every variable of S_T outside S_C
    is rewritten by a relation (so its exponent is capped), and no
    relation of a variable in S_C leaves S_C, the normal-form monomials in
    S_C span a subring A and both spans are A-modules: the candidate is
    generated by its generators, and the target by g * m, for g a target
    generator and m a normal-form monomial in the capped extra variables.
    Two graded A-modules whose generators all lie in degrees <= a and
    which agree there agree everywhere (graded Nakayama), so a is the
    largest of those generator degrees.  Otherwise there is no bound: None.
    """
    s_t, s_c = set(target.coeff_vars), set(candidate.coeff_vars)
    rewritten = set(ring.relations)
    extra = s_t - s_c
    if not (s_c <= s_t and extra <= rewritten):
        return None
    for v in s_c & rewritten:
        if any(e and w not in s_c for mon, _ in ring.relations[v].rhs for w, e in enumerate(mon)):
            return None
    # the normal-form monomial in the extra variables of largest degree
    top_extra = sum((ring.relations[v].power - 1) * ring.var_degrees[v] for v in extra)
    degrees = [g.degree + top_extra for g in target.generators]
    degrees += [g.degree for g in candidate.generators]
    return max(degrees, default=0)


def check_generate(
    ring: TruncRing,
    target: GradedModule,
    gens,
    over_vars,
    maxdeg: int,
) -> DegreeCheck:
    """Do the generators span the target in every degree <= maxdeg?

    The degrees run upward and the first one where the spans differ is
    reported.  When ``_generation_bound`` proves that agreement up to some
    degree a implies agreement in every degree, the loop stops at a.
    """
    over = _var_indices(ring, over_vars)
    candidate = GradedModule(ring, tuple(gens), over)
    bound = _generation_bound(ring, target, candidate)
    if bound is not None:
        maxdeg = min(bound, maxdeg)
    for d in range(maxdeg + 1):
        tvecs = _vectors(ring, target.spanning_elements(d), d)
        cvecs = _vectors(ring, candidate.spanning_elements(d), d)
        span = Echelon()
        tdim = span.extend(tvecs)
        cdim = rank(cvecs)
        # the candidates span the target iff none of them enlarges its echelon
        if tdim != cdim or span.extend(cvecs):
            return DegreeCheck(False, d)
    return DegreeCheck(True, None)


def _primes(n: int) -> list[int]:
    """The first n primes."""
    out: list[int] = []
    k = 2
    while len(out) < n:
        if all(k % p for p in out):
            out.append(k)
        k += 1
    return out


def _free_certificate(ring: TruncRing, module: GradedModule, maxdeg: int) -> bool:
    """True only if no subring coefficient tuple annihilates the generators in degrees <= maxdeg.

    Split the coefficient variables into V_0, those no relation rewrites,
    and the capped ones.  A normal-form monomial times a V_0-monomial is
    again normal, so the ring is free over C[V_0] on its normal monomials
    outside V_0, and a spanning element m * g of degree d is m_0 * nf(t * g)
    for one V_0-monomial m_0 and one normal-form monomial t in the capped
    variables.  Every degree up to maxdeg passes exactly when the elements
    nf(t * g) of degree <= maxdeg are independent over Frac C[V_0].  Their
    coordinates over C[V_0] are the terms grouped by the part outside V_0;
    evaluated at a point of distinct primes they give an integer matrix,
    and full row rank there means a maximal minor is a nonzero polynomial.
    A shortfall proves nothing: False.
    """
    v0 = [v for v in module.coeff_vars if v not in ring.relations]
    capped = tuple(v for v in module.coeff_vars if v in ring.relations)
    point = [0] * ring.nvars  # the value of each V_0 variable; 0 elsewhere
    for v, p in zip(v0, _primes(len(v0))):
        point[v] = p
    columns: dict[Monomial, int] = {}  # part outside V_0 -> column
    rows = []
    for g in module.generators:
        for k in range(maxdeg - g.degree + 1):
            for t in ring.subring_monomials(capped, k):
                row: dict[int, Coeff] = {}
                for mon, c in ring.reduce_terms(_product({t: 1}, g.terms)).items():
                    for p, e in zip(point, mon):
                        if p and e:
                            c *= p**e
                    outside = tuple(0 if p else e for p, e in zip(point, mon))
                    col = columns.setdefault(outside, len(columns))
                    row[col] = row.get(col, 0) + c
                rows.append(row)
    return rank(rows) == len(rows)


def check_free(ring: TruncRing, gens, over_vars, maxdeg: int) -> DegreeCheck:
    """No subring coefficient tuple annihilates the generators in degrees <= maxdeg.

    ``_free_certificate`` first tries to prove this for every degree at
    once, with one rank over the coefficient subring's polynomial part.
    When it cannot, every degree is eliminated in turn and the first one
    where the spanning elements are dependent is reported.
    """
    over = _var_indices(ring, over_vars)
    gens = tuple(gens)
    for g in gens:
        if g.is_zero():
            return DegreeCheck(False, 0)
    module = GradedModule(ring, gens, over)
    if _free_certificate(ring, module, maxdeg):
        return DegreeCheck(True, None)
    for d in range(maxdeg + 1):
        vecs = _vectors(ring, module.spanning_elements(d), d)
        if rank(vecs) != len(vecs):
            return DegreeCheck(False, d)
    return DegreeCheck(True, None)


def min_generator_profile(ring: TruncRing, ideal_gens, maxdeg: int) -> list[int]:
    """dim of (I / mI)_d for each degree d <= maxdeg."""
    module = GradedModule.over_full_ring(ring, tuple(ideal_gens))
    profile = []
    for d in range(maxdeg + 1):
        units = [g for g in module.generators if g.degree == d]
        if not units:  # nothing of degree d can enlarge (mI)_d
            profile.append(0)
            continue
        # (mI)_d first; the generators of degree d then add dim (I / mI)_d
        span = Echelon()
        span.extend(_vectors(ring, module.spanning_elements(d, skip_units=True), d))
        profile.append(span.extend(_vectors(ring, units, d)))
    return profile


def _var_index(ring: TruncRing, v: str | int) -> int:
    """The index of a variable named `v`, or `v` itself when it indexes one; else AdesurfError."""
    if isinstance(v, str):
        if v in ring.var_names:
            return ring.var_names.index(v)
    elif 0 <= int(v) < ring.nvars:
        return int(v)
    raise AdesurfError(f"no variable {v!r} in the ring of {', '.join(ring.var_names)}")


def _var_indices(ring: TruncRing, over_vars) -> tuple[int, ...]:
    """Sorted distinct indices of variables given by name or by index."""
    return tuple(sorted({_var_index(ring, v) for v in over_vars}))


def singular_locus_rank(relation_polys, point) -> int:
    """Rank of the Jacobian of the relations at an exact rational point."""
    polys = list(relation_polys)
    if not polys:
        return 0
    ring = polys[0].ring
    point = [exact(p) for p in point]
    if len(point) != ring.nvars:
        raise AdesurfError("point arity does not match the ring")
    rows = []
    for p in polys:
        row = []
        for v in range(ring.nvars):
            val = 0
            for mon, coeff in p.terms.items():
                if mon[v] == 0:
                    continue
                term = coeff * mon[v]
                for i, e in enumerate(mon):
                    ee = e - 1 if i == v else e
                    term *= point[i] ** ee
                val += term
            row.append(val)
        rows.append(row)
    return rank(rows)


# ---------------------------------------------------------------------------
# the branch-locus local models


def base_ring(max_degree: int = 8) -> TruncRing:
    """C[x, y, z]: functions downstairs near the branch point."""
    return TruncRing([("x", 1), ("y", 1), ("z", 1)], (), max_degree)


def conifold_ring(max_degree: int = 8) -> TruncRing:
    """C[x, y, z, s]/(s^2 = x^2 - y^2 + z^2): the fiber product upstairs."""
    ring = TruncRing(
        [("x", 1), ("y", 1), ("z", 1), ("s", 1)],
        [("s", 2, {(2, 0, 0, 0): 1, (0, 2, 0, 0): -1, (0, 0, 2, 0): 1})],
        max_degree,
    )
    return ring


def cone_ring(max_degree: int = 8) -> TruncRing:
    """C[x, y, z]/(x^2 = y^2 - z^2): the singular central surface fiber."""
    return TruncRing(
        [("x", 1), ("y", 1), ("z", 1)],
        [("x", 2, {(0, 2, 0): 1, (0, 0, 2): -1})],
        max_degree,
    )


def central_fiber_ring(max_degree: int = 8) -> TruncRing:
    """C[x, y, z, s]/(s^2 = 0, x^2 = y^2 - z^2): the fiber product at t = 0."""
    return TruncRing(
        [("x", 1), ("y", 1), ("z", 1), ("s", 1)],
        [
            ("s", 2, {}),
            ("x", 2, {(0, 2, 0, 0): 1, (0, 0, 2, 0): -1}),
        ],
        max_degree,
    )


# -- resolution charts -------------------------------------------------------
#
# The A_1 surface x^2 - y^2 + z^2 = 0 is (x-y)(x+y) = -z^2; its blow-up is
# cut out by (x-y) L1 + z L2 = 0, -z L1 + (x+y) L2 = 0 on C^3 x P^1.
# Chart A is L1 = 1 with coordinates (w, L2) where x+y = w, z = w L2,
# x-y = -w L2^2; chart B is L2 = 1 with coordinates (u, L1) where
# x-y = u, z = -u L1, x+y = -u L1^2.  The exceptional curve C is w = 0 in
# chart A, u = 0 in chart B, glued along L1 = 1/L2.  Both charts map into
# one relation-free ring in (base, lambda): (w, L2) on chart A, (u, L1) on
# chart B.
#
# The chart maps send x, y, z to twice their images, so every coefficient
# stays an integer: a form of degree d maps to 2^d times its image.  No
# caller can tell: ``exceptional_degree`` reads only exponents,
# ``pulled_back_ideal_generator`` keeps the generator whose quotient is a
# unit, the two entries h, g of a syzygy have one degree so ``h == L2 * g``
# holds for the doubled images exactly when it holds for the true ones,
# and a relation that maps to zero still maps to zero.

_CHART_RING = TruncRing([("base", 1), ("lambda", 1)], (), max_degree=0)
ChartPoly = Terms  # (base exponent, lambda exponent) -> coefficient


def _chart_images(sign: int) -> dict[str, RingElement]:
    """Images of 2x, 2y, 2z; chart B is chart A with y and z negated."""
    base, lam = _CHART_RING.var("base"), _CHART_RING.var("lambda")
    return {
        "x": base - base * lam**2,           # w - w L2^2 on A, u - u L1^2 on B
        "y": sign * (base + base * lam**2),  # w + w L2^2 on A, -(u + u L1^2) on B
        "z": sign * 2 * base * lam,          # 2 w L2 on A, -2 u L1 on B
    }


_CHART_IMAGES = {"A": _chart_images(1), "B": _chart_images(-1)}


def to_chart(element: RingElement, chart: str) -> RingElement:
    """Image of a polynomial in x, y, z on a resolution chart, its degree-d part times 2^d."""
    images = _CHART_IMAGES.get(chart)
    if images is None:
        raise AdesurfError(f"unknown resolution chart {chart!r}; expected 'A' or 'B'")
    return element.map_to(_CHART_RING, images)


def _single_term(p: ChartPoly) -> tuple[int, int, Coeff]:
    if len(p) != 1:
        raise AdesurfError("expected a monomial chart polynomial")
    (i, j), c = next(iter(p.items()))
    return i, j, c


def exceptional_degree(gen_a: ChartPoly, gen_b: ChartPoly) -> int:
    """deg O(D)|_C from the chart generators of D.

    With g_B rewritten through the gluing u = -w L2^2, L1 = 1/L2, the
    ratio (g_B o glue)/g_A is a Laurent monomial c * L2^k in the overlap,
    and the restriction degree is -k.  Verified against O(C)|_C = -2 and
    the transversal point count of the lambda_2-locus by the caller.
    """
    ia, ja, ca = _single_term(gen_a)
    ib, jb, cb = _single_term(gen_b)
    # glue: u -> -w L2^2, L1 -> L2^(-1): (u^ib L1^jb) -> (-1)^ib w^ib L2^(2 ib - jb)
    w_exp = ib - ia
    l_exp = 2 * ib - jb - ja
    if w_exp != 0:
        raise AdesurfError("chart generators do not agree on the exceptional curve")
    return -l_exp


def pulled_back_ideal_generator(gens_downstairs, chart: str) -> ChartPoly:
    """Principal generator of a pulled-back ideal on a chart.

    The monomial gcd of the images must divide each image with quotients
    that include a unit; the three branch-locus ideals all satisfy this
    and anything else is refused.
    """
    monos = [_single_term(to_chart(g, chart).terms) for g in gens_downstairs]
    gi = min(i for i, _, _ in monos)
    gj = min(j for _, j, _ in monos)
    quotients = [(i - gi, j - gj) for i, j, _ in monos]
    if (0, 0) not in quotients:
        raise AdesurfError("pulled-back ideal is not visibly principal on this chart")
    coeff = next(c for (i, j, c), q in zip(monos, quotients) if q == (0, 0))
    return {(gi, gj): coeff}


# ---------------------------------------------------------------------------
# the verification suite


@dataclass
class ExtensionChainReport:
    maxdeg: int
    checks: dict[str, bool] = field(default_factory=dict)
    failures: list[tuple[str, int | None]] = field(default_factory=list)
    dims: dict[str, list[int]] = field(default_factory=dict)
    split_direct_sum: tuple[int, int] | None = None
    split_pushforward: tuple[int, int] | None = None
    min_generators: dict[str, int] = field(default_factory=dict)
    truncation_warning: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, name: str, passed: bool, degree: int | None = None) -> None:
        self.checks[name] = passed and self.checks.get(name, True)
        if not passed:
            self.failures.append((name, degree))


def _syzygy_rank(cone: TruncRing, generators, d: int) -> int:
    """Rank of the pairs (m h, m g) over ``cone.basis(d - 1)`` twice, for (h, g) in
    `generators` and m a cone monomial of degree d - 1 - deg h."""
    index = {m: i for i, m in enumerate(cone.basis(d - 1))}
    offset = len(index)
    rows = []
    for h, g in generators:
        # the first half of the spanning set is h times each monomial, the second g times it
        span = GradedModule.over_full_ring(cone, (h, g)).spanning_elements(d - 1)
        half = len(span) // 2
        for hm, gm in zip(span[:half], span[half:]):
            row = dict(_columns(index, hm))
            row.update((col + offset, c) for col, c in _columns(index, gm))
            rows.append(row)
    return rank(rows)


def _kernel_syzygy_checks(maxdeg: int, report: ExtensionChainReport) -> DegreeCheck:
    """Parts (d) and (e): fiber surjectivity and kernel shape; returns whether F_2 is free.

    The syzygies (h, g) of (z, x - y) on the cone, h z + g (x - y) = 0, are
    generated by sigma_1 = (z, x + y) and sigma_2 = (x - y, -z), the matrix
    factorisation of the A_1 point.  Both are checked once: each is a
    syzygy, and each satisfies h = lambda g on chart A and g = lambda h on
    chart B.  Those conditions are linear over the cone, since the chart
    maps are ring maps, so they pass to every syzygy the two generate.  In
    each degree d >= 1 the syzygies number 2 dim R_{d-1} - dim I_d by rank
    and nullity (I the ideal (x - y, z)); that count must equal the
    kernel's dimension, and the rows m sigma_i must reach it, which shows
    that sigma_1 and sigma_2 generate in degree d.
    """
    fiber = central_fiber_ring(maxdeg)
    cone = cone_ring(maxdeg)
    fx, fy, fz, fs = (fiber.var(v) for v in "xyzs")
    cx, cy, cz = (cone.var(v) for v in "xyz")
    to_cone = {"x": cx, "y": cy, "z": cz, "s": cone.zero()}

    gen1, gen2 = fx - fy, fz + fs  # the kernel-sheaf module F_2
    xyz = _var_indices(fiber, ("x", "y", "z"))
    module = GradedModule(fiber, (gen1, gen2), xyz)
    ideal = GradedModule.over_full_ring(cone, (cx - cy, cz))

    dims_f2, dims_img, dims_ker, dims_ideal = [], [], [], []
    # below its first dependent degree the spanning set of F_2 is a basis
    free = check_free(fiber, (gen1, gen2), xyz, maxdeg)

    # upstairs factorization (f2, f3) = (L2 q, L1 q): chart A has L1 = 1 so
    # h = L2 * g there; chart B has L2 = 1 so g = L1 * h
    lam = _CHART_RING.var("lambda")
    sigmas = ((cz, cx + cy), (cx - cy, -cz))
    generators_ok = all(
        (h * cz + g * (cx - cy)).is_zero()
        and to_chart(h, "A") == lam * to_chart(g, "A")
        and to_chart(g, "B") == lam * to_chart(h, "B")
        for h, g in sigmas
    )

    for d in range(maxdeg + 1):
        span = module.spanning_elements(d)
        if free.ok or d < free.first_failure_degree:
            f2_dim = len(span)
        else:
            f2_dim = rank(_vectors(fiber, span, d))

        imaged = [el.map_to(cone, to_cone) for el in span]
        img_vecs = _vectors(cone, imaged, d)
        img_dim = rank(img_vecs)

        ideal_span = Echelon()
        ideal_dim = ideal_span.extend(_vectors(cone, ideal.spanning_elements(d), d))

        # onto iff the image has the ideal's dimension and lies inside it
        onto = img_dim == ideal_dim and not ideal_span.extend(img_vecs)
        report.record("fiber_restriction_onto_ideal", onto, d)

        # explicit kernel: relations among the images as combinations of the
        # spanning set, less those already zero in F_2 (span redundancy); its
        # rank must be the rank count dim F_2 - dim image
        ker_dim = f2_dim - img_dim
        kernel_elements = []
        for combo in nullspace(_relation_rows(cone, imaged, d), len(imaged)):
            el = _combination(fiber, combo, span)
            if not el.is_zero():
                kernel_elements.append(el)
        kvecs = _vectors(fiber, kernel_elements, d)
        kernel_ok = rank(kvecs) == ker_dim
        report.record("dimension_additivity", kernel_ok, d)
        report.record("kernel_dimension", kernel_ok, d)

        # every kernel element is s * (polynomial in x, y, z)
        s_index = fiber.var_names.index("s")
        all_s = all(
            all(mon[s_index] == 1 for mon in el.terms) for el in kernel_elements
        )
        report.record("kernel_is_s_multiple", all_s, d)

        # syzygies of (z, x - y) downstairs match the kernel and are
        # proportional to (L2, L1) on the charts
        if d >= 1:
            syzygies = 2 * len(cone.basis(d - 1)) - ideal_dim
            report.record("syzygy_count_matches_kernel", syzygies == ker_dim, d)
            generated = _syzygy_rank(cone, sigmas, d) == syzygies
            report.record("kernel_principal_on_charts", generators_ok and generated, d)

        dims_f2.append(f2_dim)
        dims_img.append(img_dim)
        dims_ker.append(ker_dim)
        dims_ideal.append(ideal_dim)

    report.dims["fiber_module"] = dims_f2
    report.dims["image"] = dims_img
    report.dims["kernel"] = dims_ker
    report.dims["ideal"] = dims_ideal
    return free


def _split_type_checks(maxdeg: int, report: ExtensionChainReport, free: DegreeCheck) -> None:
    """Part (c'): restriction degrees on the exceptional curve; `free` is F_2's freeness."""
    base = base_ring(max(maxdeg, 2))
    bx, by, bz = (base.var(v) for v in "xyz")

    # exceptional curve: w = 0 on chart A, u = 0 on chart B
    c_deg = exceptional_degree({(1, 0): 1}, {(1, 0): 1})
    report.record("exceptional_self_intersection", c_deg == -2)

    # l_1 is the lambda_2-locus: generator L2 on chart A, unit on chart B
    l1_deg = exceptional_degree({(0, 1): 1}, {(0, 0): 1})
    # l_2 is the pullback of the line x - y = z = 0 downstairs
    gen_a = pulled_back_ideal_generator((bx - by, bz), "A")
    gen_b = pulled_back_ideal_generator((bx - by, bz), "B")
    l2_deg = exceptional_degree(gen_a, gen_b)
    report.record("line_degrees_on_curve", (l1_deg, l2_deg) == (1, -1))

    split = tuple(sorted((l1_deg, l2_deg)))
    report.split_direct_sum = split
    report.record("direct_sum_split", split == (-1, 1))

    # the verified module is free of rank two on the central fiber, hence
    # restricts trivially; twisting by O(l_1 + l_2) adds (l_1 + l_2) * C = 0
    report.record("fiber_module_free", free.ok, free.first_failure_degree)
    twist_deg = l1_deg + l2_deg
    report.record("twist_degree_zero", twist_deg == 0)
    split_trivial = free.ok and twist_deg == 0
    report.split_pushforward = (0, 0) if split_trivial else None
    report.record("pushforward_split", split_trivial)


def verify_extension_chain(maxdeg: int = 8) -> ExtensionChainReport:
    """Replay the branch-locus pushforward computation, degree by degree."""
    report = ExtensionChainReport(maxdeg=maxdeg)

    # (a) 1 and s generate the upstairs ring over the downstairs variables
    upstairs = conifold_ring(maxdeg)
    ux, uy, uz, us = (upstairs.var(v) for v in "xyzs")
    whole = GradedModule.over_full_ring(upstairs, (upstairs.const(1),))
    gen = check_generate(upstairs, whole, (upstairs.const(1), us), ("x", "y", "z"), maxdeg)
    report.record("pushforward_generators", gen.ok, gen.first_failure_degree)
    only_one = check_generate(upstairs, whole, (upstairs.const(1),), ("x", "y", "z"), maxdeg)
    report.record("single_generator_fails", not only_one.ok and only_one.first_failure_degree == 1)

    # (b) the ideal of the partner divisor is generated freely by x - y, z + s
    ideal = GradedModule.over_full_ring(upstairs, (ux - uy, uz + us))
    gen2 = check_generate(upstairs, ideal, (ux - uy, uz + us), ("x", "y", "z"), maxdeg)
    report.record("ideal_generated_over_base", gen2.ok, gen2.first_failure_degree)
    free = check_free(upstairs, (ux - uy, uz + us), ("x", "y", "z"), maxdeg)
    report.record("ideal_free_rank_two", free.ok, free.first_failure_degree)

    # (c) Weil versus Cartier at the origin
    profile_d = min_generator_profile(upstairs, (ux - uy, uz - us), maxdeg)
    profile_sum = min_generator_profile(upstairs, (ux - uy,), maxdeg)
    report.min_generators["universal_divisor"] = sum(profile_d)
    report.min_generators["cartier_sum"] = sum(profile_sum)
    report.record("weil_not_cartier", (sum(profile_d), sum(profile_sum)) == (2, 1))
    # a fresh generator in the top two degrees, or none at all, would mean
    # the count has not stabilized below the truncation bound
    top = max(maxdeg - 1, 0)
    if any(any(prof[top:]) or not any(prof) for prof in (profile_d, profile_sum)):
        report.truncation_warning = True

    # conifold point is singular, nearby points are smooth; the defining
    # equation must live in the free ring or it would reduce to zero
    free_ring = TruncRing([("x", 1), ("y", 1), ("z", 1), ("s", 1)], (), maxdeg)
    gx, gy, gz, gs = (free_ring.var(v) for v in "xyzs")
    rel = gs * gs - gx * gx + gy * gy - gz * gz
    report.record("origin_singular", singular_locus_rank([rel], (0, 0, 0, 0)) == 0)
    report.record("generic_point_smooth", singular_locus_rank([rel], (1, 0, 0, 1)) == 1)

    # (d) + (e) the central-fiber sequence
    fiber_free = _kernel_syzygy_checks(maxdeg, report)

    # (c') split types on the exceptional curve
    _split_type_checks(maxdeg, report, fiber_free)

    return report
