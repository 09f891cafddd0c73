"""Command-line interface.

Subcommands: surface, lines, roots, orbit, weights, chi, ext, bundle,
restrict, spectral, transform, localmodel, suite.  All output is a single
canonical JSON document on stdout (sorted keys, compact separators,
rationals as "p/q" strings); byte-identical runs for identical inputs.

Exit codes: 0 success, 1 domain error (structured error JSON on stdout),
2 usage error.  No environment variable is read.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import _json
from .errors import AdesurfError, SchemaError

# Each handler imports the modules its command needs, so a one-shot process
# loads only those.
if TYPE_CHECKING:
    from .bundles import FormalBundle
    from .divisors import CollisionConfig
    from .lattice import LatticeClass, SurfaceModel
    from .localmodel import TruncRing
    from .qpoly import QPoly


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# encoders


def class_doc(cls: LatticeClass) -> dict:
    return {"basis": cls.basis_id, "coeffs": list(cls.coeffs)}


def qpoly_doc(p: QPoly) -> dict:
    return {"coeffs": [Fraction(c) for c in p.coeffs]}


def bundle_doc(b: FormalBundle) -> dict:
    return {
        "basis": b.model.basis_id,
        "rank": b.rank,
        "summands": [{"class": list(c.coeffs), "ext_group": g} for c, g in b.summands],
        "c1": list(b.c1().coeffs),
    }


def ebundle_doc(e) -> dict:
    return {
        "N": e.order,
        "points": [
            {"p": pe.point, "mult": pe.mult, "regular": pe.regular, "degree": pe.degree}
            for pe in e.entries
        ],
    }


# ---------------------------------------------------------------------------
# decoders


def parse_class(model: SurfaceModel, text: str, path: str = "--class") -> LatticeClass:
    doc = _json.parse_document(text, path)
    if isinstance(doc, list):
        coeffs = [_json.parse_int(v, f"{path}[{i}]") for i, v in enumerate(doc)]
    elif isinstance(doc, dict):
        basis = _json.require(doc, "basis", path)
        if basis != model.basis_id:
            raise SchemaError(f"{path}.basis", f"basis {basis!r} is not {model.basis_id!r}")
        raw = _json.require(doc, "coeffs", path)
        if not isinstance(raw, list):
            raise SchemaError(f"{path}.coeffs", "expected an array of integers")
        coeffs = [_json.parse_int(v, f"{path}.coeffs[{i}]") for i, v in enumerate(raw)]
    else:
        raise SchemaError(path, "expected a coefficient array or a class object")
    if len(coeffs) != model.rank:
        raise SchemaError(path, f"expected {model.rank} coefficients, got {len(coeffs)}")
    return model.cls(coeffs)


def parse_collisions(text: str | None) -> CollisionConfig:
    from .divisors import CollisionConfig

    if not text:
        return CollisionConfig()
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise SchemaError("--collisions", f"expected 'i,j' pairs, got {chunk!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise SchemaError("--collisions", f"malformed pair {chunk!r}") from None
    return CollisionConfig(tuple(pairs))


def read_document(path: str):
    """Parse the JSON file at `path`; text that is not UTF-8 is a schema error there.

    Errors of the file system itself (missing, a directory, unreadable)
    propagate as OSError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(path, f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return _json.parse_document(text, path)


def load_surface_doc(path: str) -> tuple[SurfaceModel, CollisionConfig]:
    from .divisors import CollisionConfig
    from .lattice import build_surface

    doc = read_document(path)
    kind = _json.require(doc, "kind")
    if not isinstance(kind, str):
        raise SchemaError("kind", "expected a string")
    n = _json.parse_int(_json.require(doc, "n"), "n", minimum=0)
    raw = doc.get("collisions", [])
    if not isinstance(raw, list):
        raise SchemaError("collisions", "expected an array of pairs")
    pairs = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"collisions[{i}]", "expected a two-element pair")
        pairs.append(
            (
                _json.parse_int(pair[0], f"collisions[{i}][0]", minimum=0),
                _json.parse_int(pair[1], f"collisions[{i}][1]", minimum=0),
            )
        )
    return build_surface(kind, n), CollisionConfig(tuple(pairs))


def load_spectral(path: str):
    """Load a spectral datum or a cover polynomial, schema-checked.

    Returns ("datum", SpectralFiberDatum) or ("cover", CoverPoly).  A datum
    that breaks its declared SU constraint loads with a warning on stderr.
    """
    doc = read_document(path)
    if not isinstance(doc, dict):
        raise SchemaError("<root>", "expected an object")
    if "points" in doc:
        from .bundles import check_su_constraint
        from .transform import SpectralFiberDatum

        order = _json.parse_int(_json.require(doc, "N"), "N", minimum=1)
        raw = _json.require(doc, "points")
        if not isinstance(raw, list):
            raise SchemaError("points", "expected an array of integers")
        points = [_json.parse_int(v, f"points[{i}]") for i, v in enumerate(raw)]
        if "n" in doc and _json.parse_int(doc["n"], "n", minimum=0) != len(points):
            raise SchemaError("n", f"declared {doc['n']} sheets but {len(points)} points")
        base_twist = _json.parse_int(doc.get("base_twist_degree", 0), "base_twist_degree")
        if doc.get("su_constraint", False) and not check_su_constraint(points, order):
            _warn("SU constraint violated: points do not sum to 0 mod N")
        datum = SpectralFiberDatum(order=order, points=tuple(points), base_twist_degree=base_twist)
        return "datum", datum
    if "coeffs" in doc:
        from .qpoly import QPoly
        from .spectral import CoverPoly

        n = _json.parse_int(_json.require(doc, "n"), "n", minimum=1)
        raw = _json.require(doc, "coeffs")
        if not isinstance(raw, list) or len(raw) != n:
            raise SchemaError("coeffs", f"expected {n} coefficient polynomials")
        polys = []
        for i, entry in enumerate(raw):
            if not isinstance(entry, list):
                raise SchemaError(f"coeffs[{i}]", "expected an array of rationals")
            polys.append(
                QPoly(
                    tuple(
                        _json.parse_rational(v, f"coeffs[{i}][{j}]")
                        for j, v in enumerate(entry)
                    )
                )
            )
        return "cover", CoverPoly(n, tuple(polys))
    raise SchemaError("<root>", "missing required field: need 'points' (datum) or 'coeffs' (cover)")


def parse_qpoly_arg(text: str, path: str) -> QPoly:
    from .qpoly import QPoly

    doc = _json.parse_document(text, path)
    if not isinstance(doc, list):
        raise SchemaError(path, "expected an array of rationals (ascending powers of t)")
    return QPoly(tuple(_json.parse_rational(v, f"{path}[{i}]") for i, v in enumerate(doc)))


def load_ring_doc(path: str) -> TruncRing:
    from .localmodel import TruncRing

    doc = read_document(path)
    raw_vars = _json.require(doc, "vars")
    if not isinstance(raw_vars, list) or not raw_vars:
        raise SchemaError("vars", "expected a non-empty array")
    variables = []
    for i, entry in enumerate(raw_vars):
        name = _json.require(entry, "name", f"vars[{i}]")
        if not isinstance(name, str):
            raise SchemaError(f"vars[{i}].name", "expected a string")
        degree = _json.parse_int(_json.require(entry, "degree", f"vars[{i}]"), f"vars[{i}].degree", 1)
        variables.append((name, degree))
    names = [name for name, _ in variables]
    raw_relations = doc.get("relations", [])
    if not isinstance(raw_relations, list):
        raise SchemaError("relations", "expected an array")
    relations = []
    for i, entry in enumerate(raw_relations):
        var = _json.require(entry, "var", f"relations[{i}]")
        if var not in names:
            raise SchemaError(f"relations[{i}].var", f"names no variable: {var!r}")
        power = _json.parse_int(
            _json.require(entry, "power", f"relations[{i}]"), f"relations[{i}].power", 1
        )
        raw_rhs = entry.get("rhs", [])
        if not isinstance(raw_rhs, list):
            raise SchemaError(f"relations[{i}].rhs", "expected an array of terms")
        rhs = {}
        for j, term in enumerate(raw_rhs):
            exps = _json.require(term, "exps", f"relations[{i}].rhs[{j}]")
            if not isinstance(exps, list):
                raise SchemaError(f"relations[{i}].rhs[{j}].exps", "expected an array of integers")
            coeff = _json.parse_rational(
                _json.require(term, "coeff", f"relations[{i}].rhs[{j}]"),
                f"relations[{i}].rhs[{j}].coeff",
            )
            mon = tuple(
                _json.parse_int(e, f"relations[{i}].rhs[{j}].exps[{k}]", 0)
                for k, e in enumerate(exps)
            )
            rhs[mon] = rhs.get(mon, Fraction(0)) + coeff
        relations.append((var, power, rhs))
    max_degree = _json.parse_int(doc.get("max_degree", 8), "max_degree", 0)
    return TruncRing(variables, relations, max_degree)


# ---------------------------------------------------------------------------
# subcommand handlers


def _model_from_args(args) -> SurfaceModel:
    from .lattice import build_surface

    return build_surface(args.kind, args.n)


def cmd_surface(args) -> dict:
    model = _model_from_args(args)
    # collisions need the divisors module; most surface queries name none
    collisions = parse_collisions(args.collisions) if args.collisions else None
    doc = {
        "kind": model.kind,
        "n": model.n,
        "basis_id": model.basis_id,
        "rank": model.rank,
        "labels": list(model.labels),
        "gram": [list(row) for row in model.gram],
        "K": class_doc(model.K),
        "E": class_doc(model.E),
        "K_dot_K": model.pair(model.K, model.K),
    }
    if model.fiber_class is not None:
        doc["fiber_class"] = class_doc(model.fiber_class)
        doc["base_class"] = class_doc(model.base_class)
    if collisions is not None and collisions.pairs:
        doc["collisions"] = [list(p) for p in collisions.pairs]
        doc["induced_curves"] = [class_doc(c) for c in collisions.induced_curves(model)]
    if args.p2_basis:
        from .lattice import p2_presentation

        companion = p2_presentation(model)
        doc["p2_presentation"] = {
            "basis_id": companion.basis_id,
            "labels": list(companion.labels),
        }
    return doc


def _parse_constraint(text: str | None) -> int | None:
    if text is None:
        return None
    parts = text.replace(" ", "").split("=")
    if len(parts) != 2 or parts[0] != "f":
        raise SchemaError("--constraint", f"expected 'f=<int>', got {text!r}")
    try:
        return int(parts[1])
    except ValueError:
        raise SchemaError("--constraint", f"malformed integer {parts[1]!r}") from None


def cmd_lines(args) -> dict:
    from .linesroots import enumerate_lines

    if args.margin < 0:
        raise SchemaError("--margin", f"expected a margin >= 0, got {args.margin}")
    model = _model_from_args(args)
    fiber_value = _parse_constraint(args.constraint)
    lines = enumerate_lines(model, fiber_value, bound_margin=args.margin)
    return {
        "basis": model.basis_id,
        "count": len(lines),
        "classes": [list(c.coeffs) for c in lines],
    }


def _orthogonality(args, model: SurfaceModel):
    if args.orthogonal_to:
        names = tuple(s.strip() for s in args.orthogonal_to.split(",") if s.strip())
    else:
        names = ("K", "f", "b") if model.fiber_class is not None else ("K",)
    return names


def cmd_roots(args) -> dict:
    from .linesroots import enumerate_roots

    model = _model_from_args(args)
    datum = enumerate_roots(model, _orthogonality(args, model))
    return {
        "basis": model.basis_id,
        "type": datum.type_label,
        "count": len(datum.roots),
        "roots": [list(c.coeffs) for c in datum.roots],
        "simple_roots": [list(c.coeffs) for c in datum.simple_roots],
        "cartan": [list(row) for row in datum.cartan],
        "orthogonal_to": list(_orthogonality(args, model)),
    }


def cmd_orbit(args) -> dict:
    from .linesroots import enumerate_roots, weyl_orbit

    model = _model_from_args(args)
    datum = enumerate_roots(model, _orthogonality(args, model))
    cls = parse_class(model, args.cls)
    orbit = weyl_orbit(datum, cls, cap=args.cap)
    return {
        "basis": model.basis_id,
        "size": len(orbit),
        "classes": [list(c.coeffs) for c in orbit],
    }


def cmd_weights(args) -> dict:
    from .linesroots import enumerate_lines, enumerate_roots, weight_of

    model = _model_from_args(args)
    datum = enumerate_roots(model, _orthogonality(args, model))
    if args.lines:
        classes = enumerate_lines(model)
    else:
        if not args.cls:
            raise SchemaError("--class", "missing required field (or pass --lines)")
        classes = [parse_class(model, c) for c in args.cls]
    return {
        "basis": model.basis_id,
        "simple_roots": [list(c.coeffs) for c in datum.simple_roots],
        "weights": [
            {"class": list(c.coeffs), "weight": list(weight_of(datum, c).entries)}
            for c in classes
        ],
    }


def cmd_chi(args) -> dict:
    from .divisors import euler_char

    model = _model_from_args(args)
    cls = parse_class(model, args.cls)
    return {"basis": model.basis_id, "class": list(cls.coeffs), "chi": euler_char(model, cls)}


def cmd_ext(args) -> dict:
    from .divisors import EFFECTIVE, NOT_EFFECTIVE, CollisionConfig, ext_profile

    model = _model_from_args(args)
    l1 = parse_class(model, args.l1, "--l1")
    l2 = parse_class(model, args.l2, "--l2")
    collisions = CollisionConfig(tuple((a, b) for a, b in (args.collide or [])))
    profile = ext_profile(model, collisions, l1, l2)
    doc = {
        "basis": model.basis_id,
        "ext0": profile.ext0,
        "ext1": profile.ext1,
        "ext2": profile.ext2,
        "index": profile.index,
        "difference_effective": EFFECTIVE if profile.ext0 == 1 else NOT_EFFECTIVE,
    }
    if profile.certificate is not None:
        doc["certificate"] = [
            {"class": list(c.coeffs), "mult": m} for c, m in profile.certificate
        ]
    return doc


def cmd_bundle(args) -> dict:
    from .bundles import boundary_degree, build_tautological, twist

    model = _model_from_args(args)
    bundle = build_tautological(model, args.rep)
    if args.minus_l0:
        bundle = twist(bundle, -model.base_class)
    doc = bundle_doc(bundle)
    doc["boundary_degrees"] = [boundary_degree(model, c) for c, _ in bundle.summands]
    return doc


def cmd_restrict(args) -> dict:
    from .bundles import EMarking, build_tautological, check_su_constraint, restrict_to_boundary, twist

    model = _model_from_args(args)
    bundle = build_tautological(model, args.rep)
    if not args.raw:
        bundle = twist(bundle, -model.base_class)
    try:
        points = [int(p) for p in args.points.split(",")] if args.points else []
    except ValueError:
        raise SchemaError("--points", f"malformed integer list {args.points!r}") from None
    if len(points) != model.n:
        raise SchemaError("--points", f"expected {model.n} points, got {len(points)}")
    marking = EMarking(order=args.order, points=tuple((i + 1, p) for i, p in enumerate(points)))
    restricted = restrict_to_boundary(bundle, marking)
    doc = ebundle_doc(restricted)
    doc["su_constraint_holds"] = check_su_constraint(points, args.order)
    return doc


def cmd_spectral_analyze(args) -> dict:
    from .spectral import branch_report

    kind, value = load_spectral(args.cover)
    if kind != "cover":
        raise SchemaError("<root>", "analyze expects a cover file with 'coeffs'")
    report = branch_report(value)
    return {
        "n": value.n,
        "discriminant": qpoly_doc(report.discriminant),
        "branch_points": list(report.branch_points),
        "branch_multiplicities": list(report.branch_multiplicities),
        "ramification_profile": [
            {"t": t, "partition": list(p)} for t, p in report.ramification_profile
        ],
        "nonrational_factors": [qpoly_doc(f) for f in report.nonrational_factors],
    }


def cmd_spectral_sen(args) -> dict:
    from .spectral import sen_delta

    b2 = parse_qpoly_arg(args.b2, "--b2")
    b4 = parse_qpoly_arg(args.b4, "--b4")
    b6 = parse_qpoly_arg(args.b6, "--b6")
    fam = sen_delta(b2, b4, b6, {"d_K": args.dK, "d_L": args.dL})
    return {
        "delta": qpoly_doc(fam.delta),
        "fiber_degree_delta": fam.fiber_degree_delta,
        "cover_degree": fam.cover_degree,
        "degenerate": fam.degenerate,
    }


def cmd_spectral_picard(args) -> dict:
    from .lattice import build_surface
    from .spectral import fiber_picard

    model = build_surface("hirzebruch", args.n)
    decomp = fiber_picard(model)
    return {
        "basis": model.basis_id,
        "root_block": [list(c.coeffs) for c in decomp.root_block],
        "boundary": list(decomp.boundary.coeffs),
        "section": list(decomp.section.coeffs),
        "fiber": list(decomp.fiber.coeffs),
        "root_rank": decomp.root_rank,
    }


def cmd_transform(args) -> dict:
    from .transform import fm_classlevel, required_collisions, transform

    model, collisions = load_surface_doc(args.surface)
    kind, datum = load_spectral(args.spectral)
    if kind != "datum":
        raise SchemaError("<root>", "transform expects a spectral datum file with 'points'")
    needed = required_collisions(datum)
    if needed.pairs and not collisions.pairs:
        collisions = needed
    result = transform(model, datum, args.twist, collisions=collisions)
    return {
        "bundle": bundle_doc(result.bundle),
        "c1_fiber": result.c1_fiber,
        "summand_boundary_degrees": list(result.summand_boundary_degrees),
        "base_twist_degree": result.base_twist_degree,
        "boundary": ebundle_doc(result.boundary),
        "fm_classlevel": ebundle_doc(fm_classlevel(datum)),
        "collision_blocks": [
            {"point": p, "mult": m, "classes": [list(c.coeffs) for c in classes]}
            for p, m, classes in result.collision_blocks
        ],
    }


def _check_degree(flag: str, value: int) -> None:
    if value < 0:
        raise SchemaError(flag, f"expected a degree >= 0, got {value}")


def cmd_localmodel_verify(args) -> dict:
    from .localmodel import verify_extension_chain

    _check_degree("--maxdeg", args.maxdeg)
    report = verify_extension_chain(args.maxdeg)
    if report.truncation_warning:
        _warn("a verified claim only settles near the truncation bound; raise --maxdeg")
    return {
        "suite": "conifold",
        "maxdeg": report.maxdeg,
        "ok": report.ok,
        "truncation_warning": report.truncation_warning,
        "checks": dict(sorted(report.checks.items())),
        "failures": [[name, deg] for name, deg in report.failures],
        "dims": report.dims,
        "min_generators": report.min_generators,
        "split_direct_sum": list(report.split_direct_sum or ()),
        "split_pushforward": list(report.split_pushforward or ()),
    }


def cmd_localmodel_dims(args) -> dict:
    _check_degree("--upto", args.upto)
    ring = load_ring_doc(args.ring)
    upto = min(args.upto, ring.max_degree)
    return {
        "vars": [{"name": n, "degree": d} for n, d in zip(ring.var_names, ring.var_degrees)],
        "max_degree": ring.max_degree,
        "dims": [ring.graded_dim(d) for d in range(upto + 1)],
    }


def cmd_suite(args) -> dict:
    if args.name != "paper-checks":
        raise SchemaError("--name", f"unknown suite {args.name!r}")
    if args.trials < 1:
        raise SchemaError("--trials", f"expected at least 1 trial, got {args.trials}")
    _check_degree("--maxdeg", args.maxdeg)
    from .suite import run_suite

    return run_suite(trials=args.trials, maxdeg=args.maxdeg)


# ---------------------------------------------------------------------------
# argument parser


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=["hirzebruch", "p2", "hirzebruch_blowup", "p2_blowup"])
    p.add_argument("--n", required=True, type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adesurf",
        description="Exact divisor-class calculus on ADE rational surfaces.",
    )
    parser.add_argument("--output", help="write the JSON document here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("surface", help="model summary: basis, Gram matrix, K")
    _add_model_args(p)
    p.add_argument("--collisions", help="collided point pairs 'i,j;k,l'")
    p.add_argument("--p2-basis", action="store_true", help="include the companion plane basis")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("lines", help="enumerate classes with x*x = x*K = -1")
    _add_model_args(p)
    p.add_argument("--constraint", help="extra fiber constraint, e.g. f=0")
    p.add_argument("--margin", type=int, default=0, help="widen the computed coefficient box")
    p.set_defaults(func=cmd_lines)

    p = sub.add_parser("roots", help="enumerate -2 classes and identify the root system")
    _add_model_args(p)
    p.add_argument("--orthogonal-to", help="comma list from K,f,b (default: all available)")
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("orbit", help="Weyl orbit of a class under the simple reflections")
    _add_model_args(p)
    p.add_argument("--class", dest="cls", required=True, help="class JSON")
    p.add_argument("--orthogonal-to", help="root datum orthogonality set")
    p.add_argument("--cap", type=int, default=100000)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("weights", help="pairings against the simple roots")
    _add_model_args(p)
    p.add_argument("--class", dest="cls", action="append", help="class JSON (repeatable)")
    p.add_argument("--lines", action="store_true", help="weights of all lines")
    p.add_argument("--orthogonal-to", help="root datum orthogonality set")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("chi", help="Euler characteristic chi(O(D))")
    _add_model_args(p)
    p.add_argument("--class", dest="cls", required=True, help="class JSON")
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("ext", help="ext profile between two line classes")
    _add_model_args(p)
    p.add_argument("--l1", required=True, help="class JSON")
    p.add_argument("--l2", required=True, help="class JSON")
    p.add_argument("--collide", nargs=2, type=int, action="append", metavar=("I", "J"))
    p.set_defaults(func=cmd_ext)

    p = sub.add_parser("bundle", help="tautological bundle of a representation")
    _add_model_args(p)
    p.add_argument("--rep", required=True, choices=["fundamental_a", "vector_d", "adjoint"])
    p.add_argument("--minus-l0", action="store_true", help="twist by -l_0 (= -b)")
    p.set_defaults(func=cmd_bundle)

    p = sub.add_parser("restrict", help="restrict a (twisted) bundle to the boundary curve")
    _add_model_args(p)
    p.add_argument("--rep", required=True, choices=["fundamental_a", "vector_d", "adjoint"])
    p.add_argument("--points", required=True, help="comma list p_1,...,p_n")
    p.add_argument("--N", dest="order", type=int, default=720, help="group order")
    p.add_argument(
        "--raw",
        action="store_true",
        help="skip the -l_0 twist (needed for adjoint, which is already flat; "
        "refused for bundles of nonzero boundary degree)",
    )
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("spectral", help="spectral cover analysis")
    psub = p.add_subparsers(dest="spectral_action", required=True)
    pa = psub.add_parser("analyze", help="discriminant, branch points, ramification")
    pa.add_argument("--cover", required=True, help="cover JSON file")
    pa.set_defaults(func=cmd_spectral_analyze)
    ps = psub.add_parser("sen", help="conic-family discriminant bookkeeping")
    ps.add_argument("--b2", required=True, help="JSON array of rationals")
    ps.add_argument("--b4", required=True, help="JSON array of rationals")
    ps.add_argument("--b6", required=True, help="JSON array of rationals")
    ps.add_argument("--dK", type=int, default=2)
    ps.add_argument("--dL", type=int, required=True)
    ps.set_defaults(func=cmd_spectral_sen)
    pp = psub.add_parser("picard", help="fiber lattice decomposition")
    pp.add_argument("--n", type=int, required=True)
    pp.set_defaults(func=cmd_spectral_picard)

    p = sub.add_parser("transform", help="spectral datum to bundle on the surface fiber")
    tsub = p.add_subparsers(dest="transform_action", required=True)
    tr = tsub.add_parser("run")
    tr.add_argument("--surface", required=True, help="surface JSON file")
    tr.add_argument("--spectral", required=True, help="spectral datum JSON file")
    tr.add_argument("--twist", default="full", choices=["raw", "minus_l0", "full"])
    tr.set_defaults(func=cmd_transform)

    p = sub.add_parser("localmodel", help="graded-ring verification of the branch-locus models")
    lsub = p.add_subparsers(dest="localmodel_action", required=True)
    lv = lsub.add_parser("verify")
    lv.add_argument("--maxdeg", type=int, default=8)
    lv.set_defaults(func=cmd_localmodel_verify)
    ld = lsub.add_parser("dims")
    ld.add_argument("--ring", required=True, help="ring JSON file")
    ld.add_argument("--upto", type=int, required=True)
    ld.set_defaults(func=cmd_localmodel_dims)

    p = sub.add_parser("suite", help="aggregated paper-checks report")
    p.add_argument("--name", default="paper-checks")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--maxdeg", type=int, default=8)
    p.set_defaults(func=cmd_suite)

    return parser


def _fail(error: dict) -> int:
    sys.stdout.write(_json.dumps({"error": error}))
    return 1


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = args.func(args)
    except SchemaError as exc:
        return _fail({"type": "schema", "path": exc.path, "message": str(exc)})
    except AdesurfError as exc:
        return _fail({"type": type(exc).__name__, "message": str(exc)})
    except OSError as exc:
        return _fail({"type": "io", "message": str(exc)})
    text = _json.dumps(doc)
    if not args.output:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _fail({"type": "io", "message": str(exc)})
    return 0


def entry() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    entry()
