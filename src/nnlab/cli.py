"""Command-line front end: generate, verify, census, export, roundtrip.

Exit codes are part of the contract: 0 success, 1 property failure, 2 bad
configuration, 3 I/O failure.  Every run writes a manifest from which it can
be reproduced byte for byte.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click
import numpy as np

from .errors import NNLabError, SpecError
from .generators import _PARAMS, GeneratorSpec
from .lattice import Box, Torus
from .nngraph import (  # build_nn_directed stays in this namespace for tracers that patch it
    build_nn_directed,  # noqa: F401
    undirected_components,
    verify_all_components,
)
from .rng import SeededRng
from .serialize import (
    canonical_json,
    domain_to_dict,
    file_sha256,
    format_rows,
    read_outmap_jsonl,
    read_weights_csv,
    write_manifest,
    write_outmap_jsonl,
    write_weights_csv,
)
from .stats import component_census, census_once
from .svgexport import render_outmap_svg, render_regions_svg, write_svg
from .weights import (
    construct_weights,
    realizes,
    round_trip_matches,
    verify_theorem3_preconditions,
)


class PropertyFailure(NNLabError):
    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def _exit_code(err: BaseException) -> int:
    if isinstance(err, PropertyFailure):
        return 1
    if isinstance(err, (OSError, IOError)):
        return 3
    return 2


def _run(fn):
    try:
        fn()
    except (NNLabError, OSError, ValueError, KeyError, json.JSONDecodeError) as err:
        click.echo(f"error: {err}", err=True)
        sys.exit(_exit_code(err))
    sys.exit(0)


def _parse_domain(torus: str | None, box: str | None):
    if torus and box:
        raise SpecError("give either --torus or --box, not both")
    try:
        if torus:
            return Torus(tuple(int(t) for t in torus.lower().split("x")))
        if box:
            # format: lo1,lo2,..:hi1,hi2,..  or  WxH[xD] for [0,W-1]x[0,H-1]...
            if ":" in box:
                lo, hi = box.split(":")
                return Box(tuple(int(t) for t in lo.split(",")), tuple(int(t) for t in hi.split(",")))
            sides = tuple(int(t) for t in box.lower().split("x"))
            return Box((0,) * len(sides), tuple(s - 1 for s in sides))
    except ValueError:  # a part that is not an integer, or more than one ":"
        if torus:
            raise SpecError(f"--torus {torus!r} is not AxB[x...] with integer sides") from None
        raise SpecError(f"--box {box!r} is neither LO:HI with comma lists of integers "
                        "nor WxH[x...] with integer sides") from None
    return None


def _load_spec(spec_file, model, torus, box, k, layers, n) -> GeneratorSpec:
    doc = {}
    if spec_file:
        doc = json.loads(Path(spec_file).read_text())
        if not isinstance(doc, dict):
            raise SpecError(f"{spec_file}: a generator spec must be a JSON object")
    if model:
        doc["variant"] = model
    variant = doc.get("variant")
    # the keys the variant reads; an unknown variant reads none, and from_dict names it
    reads = _PARAMS.get(variant, {}) if isinstance(variant, str) else {}
    dom_key = next((key for key in ("domain", "L") if key in reads), "window")
    flags = {"--torus": (dom_key, torus), "--box": (dom_key, box),
             "--k": ("k", k), "--layers": ("layers", layers), "--level": ("n", n)}
    for flag, (key, val) in flags.items():
        if val is not None and reads and key not in reads:
            raise SpecError(f"{flag} is not read by the {variant} model")
    dom = _parse_domain(torus, box)
    if dom is not None:
        if variant == "zerner_merkl":
            if not isinstance(dom, Torus) or dom.sides != (dom.sides[0],) * 2:
                raise SpecError("zerner_merkl takes a square torus")
            doc["L"] = dom.sides[0]
        else:
            doc[dom_key] = domain_to_dict(dom)
    for key, val in (("k", k), ("layers", layers), ("n", n)):
        if val is not None:
            doc[key] = val
    if variant is None:
        raise SpecError("no model given: pass --spec FILE or --model NAME")
    return GeneratorSpec.from_dict(doc)


# The most seeds one census runs; a range A..B is checked on B - A, before
# any list of seeds exists.
MAX_SEEDS = 100_000


def _parse_seeds(seeds: str) -> list:
    too_many = f"--seeds {seeds!r} names more than MAX_SEEDS = {MAX_SEEDS} seeds"
    try:
        if ".." in seeds:
            a, b = (int(t) for t in seeds.split(".."))
            if b - a >= MAX_SEEDS:
                raise SpecError(too_many)
            seed_list = list(range(a, b + 1))
        else:
            seed_list = [int(s) for s in seeds.split(",") if s != ""]
    except ValueError:  # a part that is not an integer, or more than one ".."
        raise SpecError(f"--seeds {seeds!r} is neither A..B nor a comma list of integers") from None
    if not seed_list:
        raise SpecError(f"--seeds {seeds!r} names no seeds; give A..B with A <= B or a comma list")
    if len(seed_list) > MAX_SEEDS:
        raise SpecError(too_many)
    return seed_list


def _spec_options(fn):
    """The model flags, shared by every verb that builds a realization."""
    for opt in reversed([
        click.option("--spec", "spec_file", type=click.Path(exists=True), default=None),
        click.option("--model", default=None),
        click.option("--torus", default=None),
        click.option("--box", default=None),
        click.option("--k", type=int, default=None),
        click.option("--layers", type=int, default=None),
        click.option("--level", "n", type=int, default=None),
    ]):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Nearest-neighbor lattice graphs: build, verify, census, draw."""


@main.command()
@_spec_options
@click.option("--seed", type=int, required=True)
@click.option("--out", "outdir", type=click.Path(), required=True)
@click.option("--construct-weights", "with_weights", is_flag=True, default=False,
              help="also realize generator output as a weight field")
def generate(seed, outdir, with_weights, **flags):
    """Sample one realization and persist graph, weights, and manifest."""

    def body():
        spec = _load_spec(**flags)
        real = spec.build(seed)
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        graph_path = out / "graph.jsonl"
        write_outmap_jsonl(real.graph, graph_path)
        outputs = {"graph.jsonl": file_sha256(graph_path)}
        w = real.weights
        if w is None and with_weights:
            w = construct_weights(real.graph, rng=SeededRng(seed).child("realize"))
        if w is not None:
            wpath = out / "weights.csv"
            write_weights_csv(w, wpath)
            outputs["weights.csv"] = file_sha256(wpath)
        meta = {k: v for k, v in real.meta.items() if isinstance(v, (int, str, list, tuple))}
        write_manifest(out / "manifest.json", {"spec": spec.to_dict(), "seed": seed}, outputs,
                       extra={"meta": {k: list(v) if isinstance(v, tuple) else v
                                       for k, v in meta.items()}})
        click.echo(f"wrote {graph_path}")

    _run(body)


@main.command()
@click.option("--in", "indir", type=click.Path(exists=True), default=None,
              help="directory with a persisted run")
@_spec_options
@click.option("--seed", type=int, default=None)
@click.option("--report", "report_path", type=click.Path(), default=None)
def verify(indir, seed, report_path, **flags):
    """Run the structural property suites; exit 1 on any failure."""

    def body():
        g = None
        w = None
        if indir:
            if seed is not None or any(v is not None for v in flags.values()):
                raise SpecError("verify --in reads a persisted run and takes no model flag or --seed")
            g = read_outmap_jsonl(Path(indir) / "graph.jsonl")
            wpath = Path(indir) / "weights.csv"
            if wpath.exists():
                w = read_weights_csv(wpath)
        else:
            spec = _load_spec(**flags)
            if seed is None:
                raise SpecError("verify from a spec needs --seed")
            real = spec.build(seed)
            g, w = real.graph, real.weights

        report = {}
        lab = undirected_components(g)
        pre = verify_theorem3_preconditions(g, labeling=lab)
        report["preconditions"] = {
            "ok": pre.ok,
            "out_degree_violations": [list(v) for v in pre.out_degree_violations[:4]],
            "long_cycles": [[list(v) for v in c[:16]] for c in pre.long_cycles[:2]],
            "wrapping_cycles": len(pre.wrapping_cycles),
        }
        struct = verify_all_components(g, w, labeling=lab)
        report["structure"] = {
            "ok": struct.ok,
            "components_checked": struct.components_checked,
            "components_passed": struct.components_passed,
            "long_cycle_free": struct.long_cycle_free,
            "monotone_ok": struct.monotone_ok,
        }
        if w is not None:
            report["roundtrip"] = {"ok": realizes(w, g)}
        ok = pre.ok and struct.ok and all(s.get("ok", True) for s in report.values())
        doc = json.dumps({"ok": ok, "suites": report}, indent=2, sort_keys=True)
        if report_path:
            Path(report_path).write_text(doc + "\n")
        click.echo(doc)
        if not ok:
            raise PropertyFailure("verification failed", report)

    _run(body)


@main.command()
@_spec_options
@click.option("--seeds", default="0..9", help="range A..B or comma list")
@click.option("--out", "outdir", type=click.Path(), required=True)
@click.option("--verify-structure", is_flag=True, default=False)
def census(seeds, outdir, verify_structure, **flags):
    """Per-seed component censuses, JSON lines plus an aggregate summary."""

    def body():
        spec = _load_spec(**flags)
        seed_list = _parse_seeds(seeds)
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        threads = _threads()
        if threads > 1 and len(seed_list) > 1:
            from concurrent.futures import ProcessPoolExecutor

            spec_doc = spec.to_json()
            # a forked pool starts all of its workers at the first submit
            with ProcessPoolExecutor(max_workers=min(threads, len(seed_list))) as pool:
                recs = list(pool.map(_census_worker, [(spec_doc, s, verify_structure) for s in seed_list]))
        else:
            recs = component_census(spec, seed_list, verify_structure)
        with (out / "census.jsonl").open("w") as fh:
            for r in recs:
                fh.write(r.to_json() + "\n")
        agg = _aggregate(recs)
        (out / "aggregate.json").write_text(json.dumps(agg, indent=2, sort_keys=True) + "\n")
        write_manifest(out / "manifest.json",
                       {"spec": spec.to_dict(), "seeds": seed_list},
                       {"census.jsonl": file_sha256(out / "census.jsonl")})
        click.echo(json.dumps(agg, sort_keys=True))

    _run(body)


def _threads() -> int:
    raw = os.environ.get("NN_LAB_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise SpecError(f"NN_LAB_THREADS must be an integer >= 1, got {raw!r}")
    return threads


def _census_worker(args):
    spec_doc, seed, verify_structure = args
    return census_once(GeneratorSpec.from_json(spec_doc), seed, verify_structure)


def _aggregate(recs) -> dict:
    counts = [r.system_span_count for r in recs]
    vals, freq = np.unique(counts, return_counts=True)
    modal = int(vals[np.argmax(freq)])
    return {
        "seeds": len(recs),
        "system_span_counts": {int(v): int(c) for v, c in zip(vals, freq)},
        "modal_count": modal,
        "modal_fraction": float(freq.max() / len(recs)),
        "max_wrapping": max(r.wrapping_count for r in recs),
        "max_spanning": max(r.spanning_count for r in recs),
    }


@main.command()
@click.option("--in", "indir", type=click.Path(exists=True), required=True)
@click.option("--out", "outpath", type=click.Path(), required=True)
@click.option("--classify", is_flag=True, default=False,
              help="render the region classification instead of arrows")
@click.option("--format", "fmt", type=click.Choice(["svg", "csv"]), default="svg")
def export(indir, outpath, classify, fmt):
    """Render a persisted d=2 run as SVG, or dump the classification as CSV."""

    def body():
        g = read_outmap_jsonl(Path(indir) / "graph.jsonl")
        if classify:
            from .topology import classify_regions

            rc = classify_regions(undirected_components(g), g.dom)
            text = rc.to_csv() if fmt == "csv" else render_regions_svg(rc)
        elif fmt == "csv":
            coords = g.dom.index_coords()
            src, dst = g.edge_arrays()
            site = " ".join(["%d"] * g.dom.d)
            rows = format_rows(f"{site},{site}\n", [*coords[src].T, *coords[dst].T])
            text = "from,to\n" + "".join(rows)
        else:
            text = render_outmap_svg(g)
        if fmt == "svg":
            write_svg(text, outpath)
        else:
            Path(outpath).write_text(text)
        click.echo(f"wrote {outpath}")

    _run(body)


@main.command()
@_spec_options
@click.option("--seed", type=int, required=True)
def roundtrip(seed, **flags):
    """Realize a generated digraph as weights and demand the rebuilt graph
    match edge for edge."""

    def body():
        spec = _load_spec(**flags)
        real = spec.build(seed)
        g = real.graph
        agree = round_trip_matches(g, SeededRng(seed).child("realize"))
        click.echo(json.dumps({"ok": agree, "edges": g.n_edges}))
        if not agree:
            raise PropertyFailure("round trip mismatch")

    _run(body)


if __name__ == "__main__":
    main()
