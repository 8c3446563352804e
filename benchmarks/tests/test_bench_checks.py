"""Every reference check of the benchmark fails on a deliberately corrupted
output, so none of them can pass vacuously."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from workloads import Artifacts, Census, Regions, Verb  # noqa: E402


def _rewrite(d: Path, name: str, edit):
    """Apply edit to the lines of one run file and re-sign the manifest, so
    that only the content check can notice."""
    path = d / name
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    man = json.loads((d / "manifest.json").read_text())
    man["outputs"][name] = checks.sha256_file(path)
    (d / "manifest.json").write_text(json.dumps(man))


def _redirect_first_edge(lines):
    """Point the first listed site at a different lattice neighbor."""
    (x, y), (tx, ty) = json.loads(lines[1])
    for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
        if (nx, ny) != (tx, ty) and 0 <= nx < 16 and 0 <= ny < 16:
            lines[1] = json.dumps([[x, y], [nx, ny]], separators=(",", ":"))
            return


@pytest.fixture
def run_dirs(tmp_path):
    wl = Artifacts(tmp_path / "work", seed=3, small=True)
    wl.setup()
    results = {}
    for op in wl.round_ops(0, tmp_path / "r0"):
        results[op.label.split()[0] + " " + op.label.split()[1]] = (op, op.run())
    return wl, tmp_path / "r0", results


def _problems(run_dirs, label):
    wl, _, results = run_dirs
    wl._parsed.clear()
    op, verb = results[label]
    return op.check(verb)


def test_untouched_outputs_pass(run_dirs):
    _, _, results = run_dirs
    failing = {label for label, (op, v) in results.items() if op.check(v)}
    assert failing == {"verify zm"}


def test_redirected_edge_breaks_the_argmin(run_dirs):
    _rewrite(run_dirs[1] / "iid", "graph.jsonl", _redirect_first_edge)
    assert any("least incident weight" in p for p in _problems(run_dirs, "generate iid"))


def test_redirected_edge_breaks_the_dyadic_rule(run_dirs):
    _rewrite(run_dirs[1] / "dyadic", "graph.jsonl", _redirect_first_edge)
    assert any("dyadic rule" in p for p in _problems(run_dirs, "generate dyadic"))


def test_changed_weight_breaks_the_argmin(run_dirs):
    def raise_out_edge_weight(lines):
        # the first site's out-edge: make it the heaviest edge of the field
        src, dst = json.loads((run_dirs[1] / "iid" / "graph.jsonl").read_text().splitlines()[1])
        a, b = sorted([src, dst])
        key = ",".join(str(c) for c in a + b) + ","
        i = next(i for i, ln in enumerate(lines) if ln.startswith(key))
        lines[i] = key + float(2.0).hex()

    _rewrite(run_dirs[1] / "iid", "weights.csv", raise_out_edge_weight)
    assert any("least incident weight" in p for p in _problems(run_dirs, "generate iid"))


def test_changed_weight_breaks_the_realization(run_dirs):
    def swap_weights(lines):
        # give the lightest carried edge the weight of an uncarried one
        vals = [float.fromhex(ln.split(",")[-1]) for ln in lines[1:]]
        lo, hi = 1 + int(np.argmin(vals)), 1 + int(np.argmax(vals))
        head_lo, head_hi = lines[lo].rsplit(",", 1)[0], lines[hi].rsplit(",", 1)[0]
        lines[lo], lines[hi] = head_lo + "," + lines[hi].rsplit(",", 1)[1], \
            head_hi + "," + lines[lo].rsplit(",", 1)[1]

    _rewrite(run_dirs[1] / "dyadic", "weights.csv", swap_weights)
    assert any("constructed weights" in p for p in _problems(run_dirs, "generate dyadic"))


def test_duplicate_weight_is_caught(run_dirs):
    def duplicate(lines):
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + lines[1].rsplit(",", 1)[1]

    _rewrite(run_dirs[1] / "iid", "weights.csv", duplicate)
    assert any("not distinct" in p for p in _problems(run_dirs, "generate iid"))


def test_digest_mismatch_is_caught(run_dirs):
    path = run_dirs[1] / "zm" / "graph.jsonl"
    path.write_text(path.read_text() + "\n")
    assert any("manifest digest" in p for p in _problems(run_dirs, "generate zm"))


def test_non_adjacent_target_is_caught(run_dirs):
    def jump(lines):
        (x, y), _ = json.loads(lines[1])
        lines[1] = json.dumps([[x, y], [(x + 2) % 16, y]], separators=(",", ":"))

    _rewrite(run_dirs[1] / "zm", "graph.jsonl", jump)
    assert any("non-adjacent" in p for p in _problems(run_dirs, "generate zm"))


def test_contractible_cycle_is_caught():
    lat = checks.Lattice([0, 0], [4, 4], True)
    winding = np.full(16, -1)
    for x in range(4):
        winding[lat.flat([x, 0])] = lat.flat([(x + 1) % 4, 0])
    assert checks.winding_problems(lat, winding) == []
    square = winding.copy()
    for a, b in (((0, 1), (1, 1)), ((1, 1), (1, 2)), ((1, 2), (0, 2)), ((0, 2), (0, 1))):
        square[lat.flat(a)] = lat.flat(b)
    assert checks.winding_problems(lat, square) == ["1 directed cycles do not wind"]


def test_svg_with_a_missing_line_is_caught(run_dirs):
    path = run_dirs[1] / "iid" / "graph.svg"
    text = path.read_text()
    i = text.index("<line")
    path.write_text(text[:i] + text[text.index("/>", i) + 2:])
    assert any("<line> elements" in p for p in _problems(run_dirs, "export iid"))
    path.write_text(text[: len(text) // 2])
    assert any("not XML" in p for p in _problems(run_dirs, "export iid"))


def test_failed_verify_report_is_caught():
    report = json.dumps({"ok": False, "suites": {"structure": {"ok": False}}})
    assert Artifacts._check_verify(Verb(0, report, "")) == [
        "report not ok (suites failing: structure)"]
    assert Artifacts._check_verify(Verb(0, json.dumps({"ok": True}), "")) == []


@pytest.fixture
def census_run(tmp_path):
    wl = Census(tmp_path / "work", seed=2, small=True)
    wl.setup()
    op = wl.round_ops(0, tmp_path / "r0")[0]  # Zerner-Merkl, 8 seeds
    return wl, op, op.run(), tmp_path / "r0" / "zm"


def test_census_histogram_count_changed_is_caught(census_run):
    wl, op, verb, out = census_run
    assert op.check(verb) == []
    recs = [json.loads(ln) for ln in (out / "census.jsonl").read_text().splitlines()]
    size, count = next(iter(recs[0]["size_histogram"].items()))
    recs[0]["size_histogram"][size] = count + 1
    (out / "census.jsonl").write_text("".join(json.dumps(r) + "\n" for r in recs))
    probs = op.check(verb)
    assert any("histogram covers" in p for p in probs)
    assert any("histogram counts" in p for p in probs)


def test_census_counts_against_the_realization():
    # two sinks and one 2-cycle on a path of five sites: 0 1<->2 3->4 sink
    out = np.array([-1, 2, 1, 4, -1])
    rec = {"seed": 0, "size_histogram": {"1": 1, "2": 2}, "n_components": 3,
           "miniloop_count": 1, "wrapping_count": 0, "structure_pass_rate": 1.0}
    assert checks.census_record_problems(rec, 5, out) == []
    assert any("sinks" in p for p in checks.census_record_problems(
        dict(rec, n_components=4, size_histogram={"1": 3, "2": 1}), 5, out))
    assert any("miniloop_count" in p for p in checks.census_record_problems(
        dict(rec, miniloop_count=2), 5, out))
    assert any("structure_pass_rate" in p for p in checks.census_record_problems(
        dict(rec, structure_pass_rate=0.5), 5, out))


def test_aggregate_disagreement_is_caught(census_run):
    wl, op, verb, out = census_run
    agg = json.loads((out / "aggregate.json").read_text())
    agg["modal_fraction"] = agg["modal_fraction"] / 2
    (out / "aggregate.json").write_text(json.dumps(agg))
    assert any("aggregate.json" in p for p in op.check(verb))


def test_paper_mode_is_required():
    wl = Census(Path("unused"), seed=0, small=True)
    wl.records["fk3"] = [{"system_span_count": 3}, {"system_span_count": 2},
                         {"system_span_count": 2}]
    wl.records["zm"] = [{"core_infinite_count": 2}]
    assert [p.split(":")[0] for p in wl.final_problems()] == ["dyadic2", "dyadic3", "fk2", "fk3",
                                                             "layered"]


@pytest.fixture
def regions_outcome(tmp_path):
    wl = Regions(tmp_path, seed=5, small=True)
    op = wl.round_ops(0, tmp_path)[0]  # the iid box
    kept = op.keep(op.run())
    assert op.check(kept) == []
    return op, kept


def test_site_dropped_from_a_region_is_caught(regions_outcome):
    op, kept = regions_outcome
    kept.members[0] = kept.members[0][1:]
    assert any("exactly one region" in p for p in op.check(kept))


def test_region_missing_its_component_is_caught(regions_outcome):
    op, kept = regions_outcome
    i = kept.kinds.index("a")
    comp = np.where(kept.labels == kept.component_ids[i])[0]
    j = next(k for k, m in enumerate(kept.members) if k != i and len(m))
    kept.members[i] = np.setdiff1d(kept.members[i], comp[:1])
    kept.members[j] = np.concatenate([kept.members[j], comp[:1]])
    assert any("does not contain component" in p for p in op.check(kept))


def test_overlapping_and_face_regions_are_caught(regions_outcome):
    op, kept = regions_outcome
    a = [k for k, kind in enumerate(kept.kinds) if kind == "a"]
    kept.members[a[1]] = np.concatenate([kept.members[a[1]], kept.members[a[0]][:1]])
    assert any("overlap" in p for p in op.check(kept))
    kept.kinds[a[1]] = "c"
    assert any("box face" in p for p in op.check(kept))


def test_failed_lemma_is_caught(regions_outcome):
    op, kept = regions_outcome
    kept.lemmas[0] = (kept.lemmas[0][0], True, False, True)
    assert any("lemma checks fail" in p for p in op.check(kept))


def test_spanning_type_a_on_iid_is_caught(regions_outcome):
    op, kept = regions_outcome
    i = kept.kinds.index("a")
    lat = kept.lattice
    row = lat.flat(np.stack([np.arange(16), np.zeros(16, dtype=np.int64)], axis=1))
    # a fake component that reaches across the box, inside its region
    kept.labels = kept.labels.copy()
    kept.labels[row] = kept.component_ids[i]
    kept.members = [np.setdiff1d(m, row) for m in kept.members]
    kept.members[i] = np.concatenate([kept.members[i], row])
    assert any("spanning component" in p for p in op.check(kept))
