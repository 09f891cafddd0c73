"""The cli workload: one ``python -m adesurf.cli`` process per query.

The seeded mix covers every subcommand.  Input files are written before
timing starts.  Each query's exit code and JSON document are checked with
the same rules as the in-process workloads.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import checks as C
import oracle as O
from workloads import Op, binomial_expectation


def rational(v) -> Fraction:
    if isinstance(v, str):
        num, _, den = v.partition("/")
        return Fraction(int(num), int(den or 1))
    return Fraction(v)


def doc_of(got, want_code=0):
    """(exit code, stdout) -> (document, None) or (None, problem)."""
    code, out = got
    try:
        doc = json.loads(out)
    except ValueError:
        return None, f"exit {code} with non-JSON output {out[:80]!r}"
    if code != want_code:
        return None, f"exit {code}, want {want_code}: {out[:160]}"
    return doc, None


def checking(fn, want_code=0):
    def check(got):
        doc, problem = doc_of(got, want_code)
        return problem or fn(doc)
    return check


def arr(v) -> str:
    return json.dumps(list(v), separators=(",", ":"))


def entries(doc):
    return [(e["p"], e["mult"], e["regular"], e["degree"]) for e in doc["points"]]


def queries(rng, inputs):
    """(name, argv, check, fault) for one round, drawn from the seed."""
    qs = []

    def add(name, argv, fn, fault=None, want_code=0):
        qs.append((name, argv, checking(fn, want_code), fault))

    p6 = ("p2", 6)
    add("surface p2 6", ["surface", "--kind", "p2", "--n", "6"],
        lambda d: None if (d["K"]["coeffs"], d["K_dot_K"], d["gram"][0][0]) == (list(O.canonical(p6)), 3, 1)
        else f"surface summary {d['K']} {d['K_dot_K']}")
    for n in (6, 8):
        add(f"lines p2 {n}", ["lines", "--kind", "p2", "--n", str(n)],
            lambda d, n=n: C.check_lines(("p2", n), None, [tuple(c) for c in d["classes"]]))
    n, fv = rng.randint(3, 6), rng.randint(0, 1)
    add(f"lines hz {n} f={fv}", ["lines", "--kind", "hirzebruch", "--n", str(n), "--constraint", f"f={fv}"],
        lambda d: C.check_lines(("hz", n), fv, [tuple(c) for c in d["classes"]]))

    def roots_check(model, orth):
        return lambda d: C.check_roots(model, orth, ([tuple(c) for c in d["roots"]],
                                                     [tuple(c) for c in d["simple_roots"]], d["cartan"], d["type"]))

    ne = rng.choice((6, 7))
    add(f"roots p2 {ne}", ["roots", "--kind", "p2", "--n", str(ne)], roots_check(("p2", ne), "K"))
    na = rng.randint(3, 7)
    add(f"roots hz {na}", ["roots", "--kind", "hirzebruch", "--n", str(na)], roots_check(("hz", na), "Kfb"))
    nd = rng.randint(4, 7)
    add(f"roots D hz {nd}", ["roots", "--kind", "hirzebruch", "--n", str(nd), "--orthogonal-to", "K,f"],
        roots_check(("hz", nd), "Kf"))

    no = rng.randint(2, 7)
    hz = ("hz", no)
    a_orbit = [O.sub(O.unit(hz, f"l{i}"), O.base(hz)) for i in range(1, no + 1)]
    add(f"orbit hz {no}", ["orbit", "--kind", "hirzebruch", "--n", str(no), "--class", arr(a_orbit[0])],
        lambda d: C.check_orbit([tuple(c) for c in d["classes"]], a_orbit))
    lines6 = O.lines(p6)
    add("orbit p2 6", ["orbit", "--kind", "p2", "--n", "6", "--class", arr(rng.choice(lines6))],
        lambda d: C.check_orbit([tuple(c) for c in d["classes"]], lines6))

    def weights_check(model, want_classes):
        def check(d):
            got = [tuple(w["class"]) for w in d["weights"]]
            if got != want_classes:
                return f"weights listed for {len(got)} classes, want {len(want_classes)}"
            simple = [tuple(a) for a in d["simple_roots"]]
            for w in d["weights"]:
                problem = C.check_weights(model, simple, tuple(w["class"]), w["weight"])
                if problem:
                    return problem
            return None
        return check

    add("weights p2 6 lines", ["weights", "--kind", "p2", "--n", "6", "--lines"], weights_check(p6, lines6))
    hz4 = ("hz", 4)
    wcls = [tuple(rng.randint(-5, 5) for _ in range(6)) for _ in range(2)]
    add("weights hz 4", ["weights", "--kind", "hirzebruch", "--n", "4", "--class", arr(wcls[0]),
                         "--class", arr(wcls[1])], weights_check(hz4, wcls))

    for model in (p6, ("hz", 3)):
        cls = tuple(rng.randint(-6, 6) for _ in range(O.rank(model)))
        kind = "p2" if model[0] == "p2" else "hirzebruch"
        add(f"chi {model}", ["chi", "--kind", kind, "--n", str(model[1]), "--class", arr(cls)],
            lambda d, model=model, cls=cls: None if d["chi"] == O.euler_char(model, cls)
            else f"chi {d['chi']}, Riemann-Roch gives {O.euler_char(model, cls)}")

    def ext_check(model, l1, l2, pairs, truth):
        return lambda d: C.check_ext(model, pairs, l1, l2, truth, (
            d["ext0"], d["ext1"], d["ext2"], d["index"],
            [(tuple(t["class"]), t["mult"]) for t in d.get("certificate", [])]))

    nx = rng.randint(2, 5)
    hx = ("hz", nx)
    i, j = sorted(rng.sample(range(1, nx + 1), 2))
    li, lj = O.unit(hx, f"l{i}"), O.unit(hx, f"l{j}")
    base_ext = ["ext", "--kind", "hirzebruch", "--n", str(nx), "--l1", arr(li), "--l2", arr(lj)]
    add(f"ext collided hz {nx}", base_ext + ["--collide", str(i), str(j)], ext_check(hx, li, lj, ((i, j),), True))
    add(f"ext generic hz {nx}", base_ext, ext_check(hx, li, lj, (), False))
    h2 = ("hz", 2)
    add("ext hz 2 l1 -> b + l1", ["ext", "--kind", "hirzebruch", "--n", "2", "--l1", "[0,0,1,0]",
                                   "--l2", "[1,0,1,0]"],
        ext_check(h2, (0, 0, 1, 0), (1, 0, 1, 0), (), True), fault="F-eff")

    def bundle_check(want):
        def check(d):
            got = sorted(tuple(s["class"]) for s in d["summands"])
            if got != sorted(want) or any(d["boundary_degrees"]):
                return f"bundle summands {got}, degrees {d['boundary_degrees']}"
            return None if tuple(d["c1"]) == O.add(*want) else f"c1 {d['c1']}"
        return check

    nb = rng.randint(2, 6)
    hb = ("hz", nb)
    b, f = O.base(hb), O.fiber(hb)
    fund = [O.sub(O.unit(hb, f"l{k}"), b) for k in range(1, nb + 1)]
    vect = fund + [O.sub(O.sub(f, O.unit(hb, f"l{k}")), b) for k in range(1, nb + 1)]
    for rep, want in (("fundamental_a", fund), ("vector_d", vect)):
        add(f"bundle {rep} hz {nb}", ["bundle", "--kind", "hirzebruch", "--n", str(nb), "--rep", rep,
                                      "--minus-l0"], bundle_check(want))

    pts = [rng.randrange(720) for _ in range(3)]
    # twisted vector_d: l_i - b restricts to p_i and f - l_i - b to -p_i
    images = [p % 720 for p in pts] + [-p % 720 for p in pts]
    want_r = [(q, images.count(q), False, 0) for q in sorted(set(images))]
    add("restrict vector_d hz 3", ["restrict", "--kind", "hirzebruch", "--n", "3", "--rep", "vector_d",
                                   "--points", ",".join(map(str, pts)), "--N", "720"],
        lambda d: None if (entries(d), d["su_constraint_holds"]) == (want_r, sum(pts) % 720 == 0)
        else f"restriction {entries(d)}, want {want_r}")

    a, bb = rng.sample([k for k in range(-9, 10) if k], 2)
    g, want_b = binomial_expectation(2, a, bb, rng.choice((7, 11, 13)))
    cover = inputs.write("cover.json", {"n": 2, "coeffs": [[str(c) for c in O.pscale(-1, g)], []]})
    add("spectral analyze", ["spectral", "analyze", "--cover", cover], lambda d: C.check_branch((
        [rational(c) for c in d["discriminant"]["coeffs"]], [rational(t) for t in d["branch_points"]],
        d["branch_multiplicities"], [tuple(r["partition"]) for r in d["ramification_profile"]],
        [[int(rational(c)) for c in fac["coeffs"]] for fac in d["nonrational_factors"]]), want_b))

    bs = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(3)]
    dl = rng.randint(0, 3)
    delta = O.padd(O.pmul(bs[0], bs[2]), O.pscale(-1, O.pmul(bs[1], bs[1])))
    add("spectral sen", ["spectral", "sen", "--b2", arr(bs[0]), "--b4", arr(bs[1]), "--b6", arr(bs[2]),
                         "--dL", str(dl)],
        lambda d: None if ([rational(c) for c in d["delta"]["coeffs"]], d["fiber_degree_delta"],
                           d["cover_degree"], d["degenerate"]) == (delta, 4 + 2 * dl, 8 + 4 * dl, not delta)
        else f"sen family {d}")

    npk = rng.randint(2, 7)
    hp = ("hz", npk)
    block = [O.sub(O.unit(hp, f"l{k}"), O.unit(hp, f"l{k + 1}")) for k in range(1, npk)]
    add(f"spectral picard {npk}", ["spectral", "picard", "--n", str(npk)],
        lambda d: None if ([tuple(c) for c in d["root_block"]], tuple(d["boundary"]), tuple(d["section"]),
                           tuple(d["fiber"]), d["root_rank"])
        == (block, O.scale(-1, O.canonical(hp)), O.base(hp), O.fiber(hp), npk - 1) else f"picard {d}")

    nt = rng.randint(2, 6)
    tpts = [rng.randrange(720) for _ in range(nt)]
    if rng.random() < 0.5:
        tpts[-1] = tpts[0]
    surface = inputs.write("surface.json", {"kind": "hirzebruch", "n": nt})
    datum = inputs.write("datum.json", {"N": 720, "points": tpts})

    def transform_check(d):
        got = ([tuple(s["class"]) for s in d["bundle"]["summands"]], d["summand_boundary_degrees"],
               entries(d["fm_classlevel"]))
        problem = C.check_transform(nt, 720, tpts, got)
        return problem or (None if [e[:3] for e in entries(d["boundary"])] == [e[:3] for e in got[2]]
                           else "boundary class differs from the fiberwise transform")

    add(f"transform run hz {nt}", ["transform", "run", "--surface", surface, "--spectral", datum], transform_check)

    ring_name, ring, hilbert = rng.choice([
        ("cone", {"vars": [{"name": v, "degree": 1} for v in "xyz"],
                  "relations": [{"var": "x", "power": 2, "rhs": [{"exps": [0, 2, 0], "coeff": 1},
                                                                  {"exps": [0, 0, 2], "coeff": -1}]}]},
         lambda e: 2 * e + 1),
        ("polynomial", {"vars": [{"name": v, "degree": 1} for v in "xyz"]},
         lambda e: O.hilbert_polynomial_ring(3, e)),
        ("conifold", {"vars": [{"name": v, "degree": 1} for v in "xyzs"],
                      "relations": [{"var": "s", "power": 2, "rhs": [{"exps": [2, 0, 0, 0], "coeff": 1},
                                                                      {"exps": [0, 2, 0, 0], "coeff": -1},
                                                                      {"exps": [0, 0, 2, 0], "coeff": 1}]}]},
         lambda e: (e + 1) ** 2),
    ])
    ring_file = inputs.write("ring.json", dict(ring, max_degree=6))
    add(f"localmodel dims {ring_name}", ["localmodel", "dims", "--ring", ring_file, "--upto", "4"],
        lambda d: None if d["dims"] == [hilbert(e) for e in range(5)] else f"dims {d['dims']}")
    add("localmodel verify 3", ["localmodel", "verify", "--maxdeg", "3"], lambda d: C.check_verify(d, 3))
    # an unknown suite name is a domain error: exit 1 with a JSON error document
    add("suite nope", ["suite", "--name", "nope"],
        lambda d: None if "error" in d else f"no error document: {d}", fault="F-suite", want_code=1)
    return qs


class Inputs:
    """Input files of one run, inside the checkout."""

    def __init__(self, directory):
        self.dir = directory
        os.makedirs(directory, exist_ok=True)

    def write(self, name, doc):
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def remove(self):
        for name in os.listdir(self.dir):
            os.remove(os.path.join(self.dir, name))
        os.rmdir(self.dir)


def child_env(root):
    env = {k: v for k, v in os.environ.items() if not k.startswith("ADESURF_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def subprocess_call(argv, env, root):
    def call():
        proc = subprocess.run([sys.executable, "-m", "adesurf.cli", *argv], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout
    return call


def inprocess_call(argv):
    import adesurf.cli as cli

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        return code, buf.getvalue()
    return call


def build(seed, inputs, call_for):
    rng = random.Random(seed)
    ops = [Op(name, [(call_for(argv), lambda r: r, check)], fault=fault)
           for name, argv, check, fault in queries(rng, inputs)]
    rng.shuffle(ops)
    return ops
