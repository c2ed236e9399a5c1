"""Workload job lists for the irrev benchmark.

Every input is built here, independently of the package under test, and
written as a tensor file in the repository's JSON format before timing
starts, so the program only ever receives generated files.  A workload is a
fixed list of named tensors plus a part drawn from the benchmark seed.

A tensor is a pair (dims, entries) with entries a dict from index triples to
nonzero Fractions.  Composite indices of products pair row-major, as in the
package's file format documentation.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

WORKLOADS = ("certify", "structured", "diag", "oracle")

TOL = 1e-10


# ---------------------------------------------------------------------------
# Tensors


def _ones(dims, points):
    return (tuple(dims), {tuple(p): Fraction(1) for p in points})


def w():
    return _ones((2, 2, 2), [(0, 0, 1), (0, 1, 0), (1, 0, 0)])


def z3():
    return _ones((3, 3, 3), [(a, b, (a + b) % 3) for a in range(3) for b in range(3)])


def unit(n):
    return _ones((n, n, n), [(i, i, i) for i in range(n)])


def matmul(a, b, c):
    pts = [(i * b + j, j * c + k, k * a + i) for i, j, k in product(range(a), range(b), range(c))]
    return _ones((a * b, b * c, c * a), pts)


def cw(q):
    pts = [p for i in range(1, q + 1) for p in ((0, i, i), (i, 0, i), (i, i, 0))]
    return _ones((q + 1,) * 3, pts)


def cw_big(q):
    pts = [p for i in range(1, q + 1) for p in ((0, i, i), (i, 0, i), (i, i, 0))]
    pts += [(0, 0, q + 1), (0, q + 1, 0), (q + 1, 0, 0)]
    return _ones((q + 2,) * 3, pts)


def tn(m):
    return _ones((m, m, m), [(i, j, i + j) for i in range(m) for j in range(m - i)])


def kron(s, t):
    (sd, se), (td, te) = s, t
    dims = tuple(a * b for a, b in zip(sd, td))
    entries = {}
    for p, c1 in se.items():
        for q, c2 in te.items():
            entries[tuple(p[a] * td[a] + q[a] for a in range(3))] = c1 * c2
    return (dims, entries)


def rotate(t):
    """New axis a is old axis (a + 1) mod 3."""
    dims, entries = t
    return ((dims[1], dims[2], dims[0]), {(p[1], p[2], p[0]): c for p, c in entries.items()})


def cyc(t):
    r1 = rotate(t)
    return kron(kron(t, r1), rotate(r1))


def is_product_set(points) -> bool:
    proj = [{p[a] for p in points} for a in range(3)]
    return len(points) == len(proj[0]) * len(proj[1]) * len(proj[2])


def random_tensor(rng, dims, nnz, rational=False):
    """A random support of nnz points in a dims box that no degenerate case
    touches: each axis uses at least two coordinates and the support is not
    a product set, so the tensor is never simple and every entropy is
    positive.  Dims shrink to the coordinates actually used."""
    while True:
        pts = set()
        while len(pts) < nnz:
            pts.add(tuple(rng.randrange(d) for d in dims))
        if any(len({p[a] for p in pts}) < 2 for a in range(3)) or is_product_set(pts):
            continue
        used = tuple(max(p[a] for p in pts) + 1 for a in range(3))
        entries = {}
        for p in sorted(pts):
            if rational:
                entries[p] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            else:
                entries[p] = Fraction(1)
        return (used, entries)


def dense_tensor(rng, dims):
    entries = {}
    for p in product(*(range(d) for d in dims)):
        num = 0
        while num == 0:
            num = rng.randint(-99, 99)
        entries[p] = Fraction(num, rng.randint(1, 9))
    return (tuple(dims), entries)


def to_json(t) -> str:
    dims, entries = t
    recs = [
        {"i": p[0], "j": p[1], "k": p[2], "num": str(c.numerator), "den": str(c.denominator)}
        for p, c in sorted(entries.items())
    ]
    return json.dumps({"dims": list(dims), "entries": recs})


# ---------------------------------------------------------------------------
# Jobs
#
# A job is a dict: "id", "kind" ("cli" or "rect"), "argv" for CLI jobs or
# "path" and "rect" = [alpha, a, b, c] for direct barrier_rect calls, and
# "check" naming the answer check plus whatever that check needs.


class _JobList:
    def __init__(self, workdir: Path, root: Path):
        self.workdir = workdir
        self.root = root
        self.tensors: dict[str, tuple] = {}
        self.jobs: list[dict] = []

    def file(self, name, t) -> str:
        path = self.workdir / f"{name}.json"
        if name not in self.tensors:
            self.tensors[name] = t
            path.write_text(to_json(t) + "\n", encoding="utf-8")
        return str(path.relative_to(self.root))

    def cli(self, jid, argv, check, **extra):
        self.jobs.append({"id": jid, "kind": "cli", "argv": argv, "check": check, **extra})

    def irr(self, name, t, search_theta=False):
        argv = ["irr", self.file(name, t), "--format", "json", "--precision", "17", "--tol", str(TOL)]
        if search_theta:
            argv.append("--search-theta")
        self.cli(f"{'theta' if search_theta else 'irr'}:{name}", argv, "irr",
                 tensor=name, search_theta=search_theta)

    def rect(self, name, t, args):
        """A direct barrier_rect(t, alpha, a, b, c) call; the CLI has none."""
        self.jobs.append({"id": f"rect:{name}:{','.join(map(str, args))}", "kind": "rect",
                          "path": self.file(name, t), "rect": list(args), "check": "rect",
                          "tensor": name})


# Job lists are laid out so that the reported order statistics land on fixed
# jobs, not on seeded ones: more cheap fixed jobs than seeded and heavy jobs
# together, so the median is a fixed job, and enough heavy fixed jobs that
# the eleven slowest samples of a run (3 or 4 passes) are theirs.  The seeded
# part then changes the inputs without moving the percentiles.


def _certify(b: _JobList, rng, tiny):
    named = {"w": w(), "z3": z3(), "unit3": unit(3), "matmul222": matmul(2, 2, 2)}
    named.update({f"cw{q}": cw(q) for q in range(2, 8)})
    named.update({f"CW{q}": cw_big(q) for q in range(1, 7)})
    named.update({f"tn{m}": tn(m) for m in range(2, 10)})
    named["kron_tn3_tn3"] = kron(tn(3), tn(3))
    named["cyc_tn3"] = cyc(tn(3))
    named["cyc_CW1"] = cyc(cw_big(1))
    named["cyc_tn4"] = cyc(tn(4))
    # A sparse support on which Frank-Wolfe needs ~500 iterations.  About a
    # third of 100-point supports converge this slowly and some need
    # thousands of iterations, so this one is fixed rather than seeded.
    rng_sparse = random.Random("sparse:14")
    named["sparse100"] = random_tensor(
        rng_sparse, tuple(rng_sparse.randint(8, 24) for _ in range(3)), 100)
    if tiny:
        named = {k: named[k] for k in ("w", "cw2", "CW1", "tn3", "kron_tn3_tn3")}
    for name, t in named.items():
        b.irr(name, t)
    # Seeded supports: one 0/1, one rational, in fixed size bands.
    sizes = [(60, 80)] if tiny else [(300, 600), (600, 900)]
    for idx, (lo, hi) in enumerate(sizes):
        dims = tuple(rng.randint(8, 24) for _ in range(3))
        t = random_tensor(rng, dims, rng.randint(lo, hi), rational=bool(idx % 2))
        b.irr(f"rand{idx}", t)
    # Exact rank of a dense tensor costs the same for every seed of a shape.
    shapes = [(8, 4, 4)] if tiny else [(96, 10, 10), (10, 96, 10)]
    for idx, dims in enumerate(shapes):
        name = f"dense{idx}"
        b.cli(f"flatrank:{name}", ["flatrank", b.file(name, dense_tensor(rng, dims)), "--format", "json"],
              "flatrank", tensor=name)
    tables = [["cw"], ["CW"], ["tn"], ["laser"], ["laser", "--assume-rank", "conjectured"], ["better"]]
    for spec in tables[:2] if tiny else tables:
        b.cli("table:" + "-".join(spec), ["table", *spec, "--format", "json", "--precision", "17"],
              "table", table=spec[0] if spec[-1] != "conjectured" else "laser-conjectured")


def _small_support(rng, m, box=3, asymmetric=False):
    while True:
        t = random_tensor(rng, (box, box, box), m)
        if not (asymmetric and rotate(t) == t):
            return t


def _structured(b: _JobList, rng, tiny):
    # Heavy searches (w, tn3, CW1) and cheap ones whose optimum is uniform.
    theta = {"w": w(), "tn3": tn(3), "CW1": cw_big(1), "cw2": cw(2), "z3": z3(), "unit2": unit(2),
             "unit3": unit(3), "unit4": unit(4), "matmul222": matmul(2, 2, 2)}
    # tn4 and tn3 build cyc(t) with 1000 and 216 points; w and cw2 are
    # cyclically symmetric, so barrier_rect uses them as they are.
    rect = {"tn4": tn(4), "tn3": tn(3), "tn2": tn(2), "matmul122": matmul(1, 2, 2),
            "w": w(), "cw2": cw(2)}
    if tiny:
        theta, rect = {"w": w(), "cw2": cw(2)}, {"tn2": tn(2)}
    for name, t in theta.items():
        b.irr(name, t, search_theta=True)
    for idx, (name, t) in enumerate(rect.items()):
        b.rect(name, t, (idx % 3, 2, 2, 2))
    # Seeded supports go to barrier_rect only: a theta search costs from 0.06
    # to over 2 s depending on the support's structure, which alone would
    # move jobs_per_s between seeds by more than the regression bound.
    for idx in range(1 if tiny else 3):
        b.rect(f"rect{idx}", _small_support(rng, 4, asymmetric=True), (idx + 1, 1, 2, 4))


# Exact maxima of the fixed diagonal jobs (branch-and-bound and brute force agree).
DIAG_MAX = {("w", 2): 2, ("w", 3): 3, ("w", 4): 6, ("z3", 2): 4, ("cw2", 2): 6,
            ("CW1", 2): 4, ("tn3", 2): 4, ("matmul222", 1): 2, ("tn4", 2): 6,
            ("unit3", 3): 27, ("tn2", 3): 3, ("matmul122", 2): 4}
# Budgeted searches stop after a fixed number of nodes, which makes their
# cost a direct measure of node throughput.
DIAG_BUDGET = 20_000
DIAG_SEEDED_BUDGET = 3_000


def _diag(b: _JobList, rng, tiny):
    base = {"w": w(), "z3": z3(), "cw2": cw(2), "CW1": cw_big(1), "tn3": tn(3), "tn2": tn(2),
            "unit3": unit(3), "matmul222": matmul(2, 2, 2), "matmul122": matmul(1, 2, 2), "tn4": tn(4)}
    fixed = [("w", 2, None), ("w", 3, None), ("CW1", 2, None), ("tn3", 2, None), ("cw2", 2, None),
             ("matmul222", 1, None), ("unit3", 3, None), ("tn2", 3, None), ("matmul122", 2, None),
             ("z3", 2, None), ("w", 4, DIAG_BUDGET), ("tn4", 2, DIAG_BUDGET)]
    if tiny:
        fixed = [("w", 2, None), ("w", 3, None), ("tn3", 2, None)]
    jobs = [(name, base[name], k, budget) for name, k, budget in fixed]
    for idx in range(1 if tiny else 3):
        jobs.append((f"small{idx}", _small_support(rng, 8, box=4), 2, DIAG_SEEDED_BUDGET))
    for name, t, k, budget in jobs:
        argv = ["diag", b.file(name, t), "--power", str(k), "--format", "json", "--precision", "17"]
        if budget is not None:
            argv += ["--budget", str(budget)]
        b.cli(f"diag:{name}^{k}", argv, "diag", tensor=name, power=k,
              max_size=DIAG_MAX.get((name, k)))


def _oracle(b: _JobList, rng, tiny):
    jobs = [("cw2", cw(2), 1000), ("cw3", cw(3), 1000), ("unit3", unit(3), 999), ("w", w(), 3000)]
    jobs += [(f"CW{q}", cw_big(q), 4000) for q in range(1, 7)]
    seeded = [(3, 1200), (3, 1200), (4, 300), (4, 300), (5, 100)]
    if tiny:
        jobs, seeded = [("w", w(), 300), ("CW1", cw_big(1), 400)], [(3, 100)]
    for idx, (m, res) in enumerate(seeded):
        jobs.append((f"small{idx}", _small_support(rng, m), res))
    for name, t, res in jobs:
        argv = ["rho", b.file(name, t), "--oracle", "--resolution", str(res),
                "--format", "json", "--precision", "17", "--tol", str(TOL)]
        b.cli(f"oracle:{name}@{res}", argv, "oracle", tensor=name, resolution=res)


_WORKLOADS = {"certify": _certify, "structured": _structured, "diag": _diag, "oracle": _oracle}

# One cheap job per command kind, run before timing so that lazy imports and
# first-call set-up inside the program do not land in the first sample.
_WARMUP = {
    "certify": [["irr", "{w}", "--format", "json"], ["flatrank", "{w}"], ["table", "better"]],
    "structured": [["irr", "{w}", "--format", "json"]],
    "diag": [["diag", "{w}", "--power", "2"]],
    "oracle": [["rho", "{w}", "--oracle", "--resolution", "10"]],
}


def build(workload: str, seed: int, workdir: Path, root: Path, tiny: bool = False):
    """Write the workload's tensor files into workdir and return
    (jobs, tensors, warmup argv lists)."""
    if workload not in _WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    b = _JobList(workdir, root)
    _WORKLOADS[workload](b, random.Random(f"{workload}:{seed}"), tiny)
    warm_path = b.file("warmup_w", w())
    warmup = [[warm_path if a == "{w}" else a for a in argv] for argv in _WARMUP[workload]]
    return b.jobs, b.tensors, warmup
