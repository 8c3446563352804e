"""The benchmark's three workloads: census, artifacts and regions.

A workload is a fixed round of operations.  Round r draws its seeds from the
benchmark seed and r, so the same seed gives the same inputs, and every run
attempts whole rounds.  Each operation has a timed ``run``, an untimed
``keep`` that reduces its result to what the checks need, and a ``check``
made after the timed loop against ``checks``, which never calls nnlab.

The program is reached through public names only, by attribute access on
its modules, so a tracer installed later sees every call.  The CLI verbs are
called in-process through their click entry point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from click.testing import CliRunner

import checks
from nnlab import cli, nngraph, topology
from nnlab.generators import GeneratorSpec


@dataclass
class Op:
    label: str
    sites: int
    run: Callable[[], object]
    check: Callable[[object], list]
    keep: Callable[[object], object] = field(default=lambda out: out)


@dataclass
class Verb:
    exit_code: int
    stdout: str
    error: str


def invoke(args: list) -> Verb:
    """One CLI verb, in-process; exit code and standard output as a user sees them."""
    res = CliRunner().invoke(cli.main, [str(a) for a in args])
    err = ""
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        err = repr(res.exception)
    return Verb(res.exit_code, res.stdout, err)


def _box(*sides) -> dict:
    return {"kind": "box", "lo": [0] * len(sides), "hi": [s - 1 for s in sides]}


class Workload:
    name = ""

    def __init__(self, workdir: Path, seed: int, small: bool = False):
        """`small` shrinks every lattice so that the tests can run a round."""
        self.workdir = Path(workdir)
        self.seed = int(seed)

    def setup(self):
        """Write the spec files the workload reads."""
        self.workdir.mkdir(parents=True, exist_ok=True)

    def warmup(self):
        """One untimed small operation, so lazy imports and first-call costs
        fall into set-up."""

    def round_ops(self, r: int, outdir: Path) -> list:
        raise NotImplementedError

    def final_problems(self) -> list:
        """Checks that span the whole run (seed-level properties)."""
        return []


# ---- census -------------------------------------------------------------------------


@dataclass
class CensusModel:
    key: str
    spec: dict  # the model, as a GeneratorSpec document
    flags: list  # how the CLI is told about it; None means --spec FILE
    sites: int
    seeds: int  # seeds per round
    d2: bool  # a stationary d=2 model: every record shows at most 2
    paper: tuple = ()  # (record field, the paper's modal value)


def census_models(small: bool) -> list:
    s2 = 16 if small else 256
    s3 = 8 if small else 64
    f2 = 16 if small else 80
    f3 = 24 if small else 120
    lay = 16 if small else 128
    i2 = 16 if small else 128
    zm = {"variant": "zerner_merkl", "L": s2}
    return [
        CensusModel("zm", zm, ["--model", "zerner_merkl", "--torus", f"{s2}x{s2}"],
                    s2 * s2, 8, True, ("core_infinite_count", 2)),
        CensusModel("typec", {"variant": "type_c", "base": zm}, None, s2 * s2, 4, True),
        CensusModel("dyadic2", {"variant": "dyadic", "window": _box(s2, s2)},
                    ["--model", "dyadic", "--box", f"{s2}x{s2}"], s2 * s2, 6, True,
                    ("system_span_count", 1)),
        CensusModel("dyadic3", {"variant": "dyadic", "window": _box(s3, s3, s3)},
                    ["--model", "dyadic", "--box", f"{s3}x{s3}x{s3}"], s3**3, 2, False,
                    ("system_span_count", 1)),
        CensusModel("fk2", {"variant": "finite_k", "k": 2, "n": 30, "window": _box(f2, f2, f2)},
                    ["--model", "finite_k", "--k", "2", "--box", f"{f2}x{f2}x{f2}"], f2**3, 1,
                    False, ("system_span_count", 2)),
        CensusModel("fk3", {"variant": "finite_k", "k": 3, "n": 30, "window": _box(f3, f3, f3)},
                    ["--model", "finite_k", "--k", "3", "--box", f"{f3}x{f3}x{f3}"], f3**3, 1,
                    False, ("system_span_count", 3)),
        CensusModel("layered", {"variant": "layered", "layers": 3,
                                "base": {"variant": "dyadic", "n": 30, "window": _box(lay, lay)}},
                    None, 3 * lay * lay, 6, False, ("system_span_count", 3)),
        CensusModel("iid2", {"variant": "iid", "domain": {"kind": "torus", "sides": [i2, i2]}},
                    ["--model", "iid", "--torus", f"{i2}x{i2}"], i2 * i2, 8, True),
    ]


class Census(Workload):
    """`nnlab census --verify-structure` over the eight criterion-6 models."""

    name = "census"

    def __init__(self, workdir, seed, small=False):
        super().__init__(workdir, seed, small)
        self.models = census_models(small)
        self.records: dict = {m.key: [] for m in self.models}

    def _flags(self, m: CensusModel) -> list:
        return m.flags if m.flags is not None else ["--spec", self.workdir / f"{m.key}.json"]

    def setup(self):
        super().setup()
        for m in self.models:
            if m.flags is None:
                (self.workdir / f"{m.key}.json").write_text(json.dumps(m.spec))

    def warmup(self):
        invoke(["census", "--model", "iid", "--torus", "8x8", "--seeds", "0..0",
                "--verify-structure", "--out", self.workdir / "warmup"])

    def round_ops(self, r, outdir):
        ops = []
        for m in self.models:
            first = self.seed * 10_000 + r * m.seeds
            seeds = f"{first}..{first + m.seeds - 1}"
            out = outdir / m.key
            args = ["census", *self._flags(m), "--seeds", seeds, "--verify-structure", "--out", out]
            ops.append(Op(f"census {m.key} seeds {seeds}", m.sites * m.seeds,
                          run=lambda a=args: invoke(a),
                          check=lambda v, m=m, out=out, n=m.seeds: self._check(m, out, n, v)))
        return ops

    def _check(self, m: CensusModel, out: Path, n_seeds: int, v: Verb) -> list:
        if v.exit_code != 0:
            return [f"exit {v.exit_code} {v.error}"]
        recs = [json.loads(ln) for ln in (out / "census.jsonl").read_text().splitlines()]
        probs = []
        if len(recs) != n_seeds:
            probs.append(f"{len(recs)} records for {n_seeds} seeds")
        spec = GeneratorSpec.from_dict(m.spec)
        for rec in recs:
            graph = spec.build(rec["seed"]).graph
            probs += checks.census_record_problems(rec, m.sites, graph.out_index)
            if m.d2:
                for key in ("system_span_count", "core_infinite_count"):
                    if rec[key] is not None and rec[key] > 2:
                        probs.append(f"seed {rec['seed']}: {key} {rec[key]} > 2 in d=2")
            self.records[m.key].append(rec)
        agg = json.loads((out / "aggregate.json").read_text())
        if recs and agg != checks.aggregate_of(recs):
            probs.append(f"aggregate.json {agg} disagrees with the records")
        return probs

    def final_problems(self):
        probs = []
        for m in self.models:
            if not m.paper:
                continue
            key, want = m.paper
            values = [rec[key] for rec in self.records[m.key]]
            mode = checks.unique_mode(values)
            if mode != want:
                probs.append(f"{m.key}: modal {key} over {len(values)} seeds is {mode}, "
                             f"the paper's is {want}")
        return probs


# ---- artifacts --------------------------------------------------------------------------


class Artifacts(Workload):
    """generate -> verify -> export, in-process, on three 256^2 inputs.

    The Zerner-Merkl input takes its seed from the round alone: its verify
    fails on every seed (winding torus cycles are judged as finite clusters),
    and a failure that is known and counted must not depend on the benchmark
    seed, so that its share of the operations is the same in every run.
    """

    name = "artifacts"

    def __init__(self, workdir, seed, small=False):
        super().__init__(workdir, seed, small)
        self.side = 16 if small else 256
        self._parsed: dict = {}

    def inputs(self, r: int) -> list:
        s = self.side
        return [
            ("iid", ["--model", "iid", "--torus", f"{s}x{s}"], self.seed * 1000 + r),
            ("dyadic", ["--model", "dyadic", "--box", f"{s}x{s}", "--construct-weights"],
             self.seed * 1000 + r),
            ("zm", ["--model", "zerner_merkl", "--torus", f"{s}x{s}"], 7 + r),
        ]

    def warmup(self):
        d = self.workdir / "warmup"
        invoke(["generate", "--model", "iid", "--torus", "8x8", "--seed", 0, "--out", d])
        invoke(["verify", "--in", d])
        invoke(["export", "--in", d, "--out", d / "graph.svg"])

    def round_ops(self, r, outdir):
        ops = []
        n = self.side * self.side
        for kind, flags, seed in self.inputs(r):
            d = outdir / kind
            gen = ["generate", *flags, "--seed", seed, "--out", d]
            ver = ["verify", "--in", d]
            exp = ["export", "--in", d, "--out", d / "graph.svg"]
            ops += [
                Op(f"generate {kind} seed {seed}", n, run=lambda a=gen: invoke(a),
                   check=lambda v, d=d, kind=kind: self._check_generate(v, d, kind)),
                Op(f"verify {kind} seed {seed}", n, run=lambda a=ver: invoke(a),
                   check=self._check_verify),
                Op(f"export {kind} seed {seed}", n, run=lambda a=exp: invoke(a),
                   check=lambda v, d=d: self._check_export(v, d)),
            ]
        return ops

    def _graph(self, d: Path):
        if d not in self._parsed:
            self._parsed[d] = checks.parse_graph(d / "graph.jsonl")
        return self._parsed[d]

    def _check_generate(self, v: Verb, d: Path, kind: str) -> list:
        if v.exit_code != 0:
            return [f"exit {v.exit_code} {v.error}"]
        man = json.loads((d / "manifest.json").read_text())
        want_files = {"graph.jsonl"} | ({"weights.csv"} if kind != "zm" else set())
        probs = []
        if set(man["outputs"]) != want_files:
            probs.append(f"manifest lists {sorted(man['outputs'])}")
        for fname, digest in man["outputs"].items():
            if checks.sha256_file(d / fname) != digest:
                probs.append(f"{fname} does not match its manifest digest")
        try:
            lat, out = self._graph(d)
        except ValueError as err:
            return probs + [f"graph.jsonl: {err}"]
        has = out >= 0
        if not np.all(lat.adjacent(np.where(has)[0], out[has])):
            probs.append("an out-edge joins non-adjacent sites")
        if kind == "zm":
            if not has.all():
                probs.append(f"{int((~has).sum())} sites without an out-edge")
            probs += checks.winding_problems(lat, out)
            return probs
        wlat, a, b, w = checks.parse_weights(d / "weights.csv")
        probs += checks.weight_problems(wlat, a, b, w)
        argmin = checks.argmin_targets(wlat, a, b, w)
        if kind == "iid":
            if not np.array_equal(out, argmin):
                probs.append(f"{int((out != argmin).sum())} sites do not point at their "
                             f"least incident weight")
        else:
            rule = checks.dyadic_targets(lat, man["meta"]["Z"])
            if not np.array_equal(out, rule):
                probs.append(f"{int((out != rule).sum())} sites break the dyadic rule")
            if not np.array_equal(out[has], argmin[has]):
                probs.append(f"{int((out[has] != argmin[has]).sum())} sites where the argmin "
                             f"of the constructed weights is not the out-edge")
        return probs

    @staticmethod
    def _check_verify(v: Verb) -> list:
        probs = [] if v.exit_code == 0 else [f"exit {v.exit_code} {v.error}"]
        try:
            report = json.loads(v.stdout)
        except json.JSONDecodeError:
            return probs + ["no JSON report"]
        if report.get("ok") is not True:
            failing = sorted(k for k, s in report.get("suites", {}).items() if not s.get("ok", True))
            probs.append(f"report not ok (suites failing: {', '.join(failing)})")
        return probs

    def _check_export(self, v: Verb, d: Path) -> list:
        if v.exit_code != 0:
            return [f"exit {v.exit_code} {v.error}"]
        lat, out = self._graph(d)
        try:
            lines, dots = checks.svg_counts(d / "graph.svg")
        except checks.ET.ParseError as err:
            return [f"graph.svg is not XML: {err}"]
        probs = []
        if lines != int((out >= 0).sum()):
            probs.append(f"{lines} <line> elements for {int((out >= 0).sum())} edges")
        if dots != lat.n:
            probs.append(f"{dots} site dots for {lat.n} sites")
        return probs


# ---- regions -------------------------------------------------------------------------------


@dataclass
class RegionsOutcome:
    """What the regions checks need, copied out of the program's objects."""

    lattice: checks.Lattice
    out: np.ndarray
    labels: np.ndarray  # the program's component labels
    kinds: list
    members: list  # flat site indices per region
    component_ids: list
    n_tags: int
    lemmas: list  # (component id, degree two, idempotent, neighbor hole)


class Regions(Workload):
    """Criterion-7 work on fresh d=2 realizations: label, classify regions,
    then the three lemma checks on the 8 largest and 8 random components."""

    name = "regions"

    def __init__(self, workdir, seed, small=False):
        super().__init__(workdir, seed, small)
        s = 16 if small else 128
        zm = {"variant": "zerner_merkl", "L": s}
        self.specs = [
            ("iid", {"variant": "iid", "domain": _box(s, s)}),
            ("dyadic", {"variant": "dyadic", "n": 30, "window": _box(s, s)}),
            ("zm", zm),
            ("typec", {"variant": "type_c", "base": zm}),
        ]
        self.sites = s * s

    def warmup(self):
        self._pipeline(GeneratorSpec.from_dict({"variant": "iid", "domain": _box(8, 8)}),
                       0, np.random.default_rng(0))

    @staticmethod
    def _pipeline(spec, seed, rng):
        g = spec.build(seed).graph
        lab = nngraph.undirected_components(g)
        window = lab.dom
        rc = topology.classify_regions(lab, window)
        largest = np.argsort(lab.sizes, kind="stable")[::-1][:8]
        picked = dict.fromkeys(int(c) for c in [*largest, *rng.integers(0, lab.n_components, 8)])
        lemmas = []
        for cid in picked:
            sites = lab.vertices_of(cid)
            lemmas.append((cid, topology.check_degree_two(sites, window),
                           topology.check_closure_idempotent(sites, window),
                           topology.check_neighbor_hole(sites, window)))
        return g, lab, rc, lemmas

    def round_ops(self, r, outdir):
        ops = []
        seed = self.seed * 1000 + r
        for kind, doc in self.specs:
            spec = GeneratorSpec.from_dict(doc)
            rng = np.random.default_rng([self.seed, r, len(ops)])
            ops.append(Op(f"regions {kind} seed {seed}", self.sites,
                          run=lambda spec=spec, rng=rng: self._pipeline(spec, seed, rng),
                          keep=self._keep,
                          check=lambda o, kind=kind: self._check(o, kind)))
        return ops

    @staticmethod
    def _keep(result) -> RegionsOutcome:
        g, lab, rc, lemmas = result
        dom = g.dom
        if hasattr(dom, "sides"):
            lat = checks.Lattice([0] * len(dom.sides), dom.sides, True)
        else:
            lat = checks.Lattice(dom.lo, np.asarray(dom.hi) - np.asarray(dom.lo) + 1, False)
        return RegionsOutcome(
            lattice=lat,
            out=g.out_index.copy(),
            labels=np.asarray(lab.labels).copy(),
            kinds=[reg.kind for reg in rc.regions],
            members=[lat.flat(np.asarray(reg.sites, dtype=np.int64).reshape(-1, lat.d))
                     for reg in rc.regions],
            component_ids=[reg.component_id for reg in rc.regions],
            n_tags=len(rc.tags),
            lemmas=lemmas,
        )

    @staticmethod
    def _check(o: RegionsOutcome, kind: str) -> list:
        lat = o.lattice
        probs = []
        cover = np.bincount(np.concatenate(o.members), minlength=lat.n) if o.members else \
            np.zeros(lat.n, dtype=np.int64)
        if o.n_tags != lat.n or not np.all(cover == 1):
            probs.append(f"{int((cover != 1).sum())} sites not in exactly one region")
        mine = checks.components(o.out)
        in_a = np.zeros(lat.n, dtype=np.int64)
        face = None if lat.wraps else lat.on_face()
        coords = lat.coords() - lat.lo
        for k, members, cid in zip(o.kinds, o.members, o.component_ids):
            if k == "a":
                in_a[members] += 1
                comp = np.where(o.labels == cid)[0]
                if not len(comp):
                    probs.append(f"type-(a) region of component {cid}, which has no sites")
                    continue
                region = np.zeros(lat.n, dtype=bool)
                region[members] = True
                if len(np.unique(mine[comp])) != 1 or (mine == mine[comp[0]]).sum() != len(comp):
                    probs.append(f"component {cid} is not a component of the graph")
                if not region[comp].all():
                    probs.append(f"type-(a) region does not contain component {cid}")
                if kind == "iid":
                    c = coords[comp]
                    if np.any((c.min(axis=0) == 0) & (c.max(axis=0) == lat.shape - 1)):
                        probs.append(f"type-(a) region closes spanning component {cid}")
            elif k == "c" and face is not None and face[members].any():
                probs.append("a type-(c) region has a site on the box face")
        if np.any(in_a > 1):
            probs.append(f"type-(a) regions overlap at {int((in_a > 1).sum())} sites")
        bad = [cid for cid, *ok in o.lemmas if not all(ok)]
        if bad:
            probs.append(f"lemma checks fail on components {bad}")
        return probs


WORKLOADS = {w.name: w for w in (Census, Artifacts, Regions)}
