"""Bad generator spec JSON: ``generate --spec`` exits 2 with a one-line error,
never a traceback and never exit 1 ("property failed")."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from nnlab.cli import main
from nnlab.generators import GeneratorSpec

_FK_WINDOW = {"kind": "box", "lo": [0, 0, 0], "hi": [15, 15, 15]}

BAD_SPECS = {
    "type_c null base": {"variant": "type_c", "base": None},
    "layered int base": {"variant": "layered", "layers": 2, "base": 7},
    "iid int domain": {"variant": "iid", "domain": 5},
    "finite_k string k": {"variant": "finite_k", "k": "3", "window": _FK_WINDOW},
    "float box corner": {"variant": "iid", "domain": {"kind": "box", "lo": [0], "hi": [1.5]}},
    "bool torus side": {"variant": "iid", "domain": {"kind": "torus", "sides": [6, True]}},
    "dyadic torus window": {"variant": "dyadic", "window": {"kind": "torus", "sides": [6, 6]}},
    "float level": {"variant": "dyadic", "n": 3.0, "window": {"kind": "box", "lo": [0], "hi": [7]}},
    "string shift": {"variant": "dyadic", "n": 3, "Z": "11",
                     "window": {"kind": "box", "lo": [0], "hi": [7]}},
    "zm without L": {"variant": "zerner_merkl"},
    "bad nested base": {"variant": "type_c", "base": {"variant": "zerner_merkl", "L": [32]}},
    "no variant": {"L": 16},
    "list variant": {"variant": ["iid"]},
    "top-level list": [{"variant": "zerner_merkl", "L": 16}],
    "top-level number": 3,
}


def _generate(doc, root: Path):
    spec_file = root / "spec.json"
    spec_file.write_text(json.dumps(doc))
    return CliRunner().invoke(main, ["generate", "--spec", str(spec_file), "--seed", "1",
                                     "--out", str(root / "out")])


@pytest.mark.parametrize("case", sorted(BAD_SPECS))
def test_bad_spec_exits_2(case, tmp_path):
    res = _generate(BAD_SPECS[case], tmp_path)
    assert isinstance(res.exception, SystemExit), res.exception
    assert res.exit_code == 2, res.output
    errors = res.stderr.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: "), res.stderr


def test_missing_field_is_named(tmp_path):
    res = _generate({"variant": "zerner_merkl"}, tmp_path)
    assert res.stderr == "error: zerner_merkl spec needs 'L'\n"


def test_unknown_keys_are_kept():
    doc = {"variant": "zerner_merkl", "L": 16, "note": {"kind": "box", "lo": [0], "hi": [1.5]}}
    assert GeneratorSpec.from_dict(doc).to_dict() == doc


# Integers stay small and a base spec's own base is plain JSON, so a document
# that happens to be valid builds a graph of a few hundred thousand sites at
# most (a 23^3 box stacked 20 times).  Each
# variant's own keys are always present, most often with a value of the right
# kind, so many documents get as far as building.
_INTS = st.integers(-2, 20)
_JSON = st.recursive(
    st.none() | st.booleans() | _INTS | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8,
)
_COORDS = st.lists(_INTS, min_size=1, max_size=3) | _JSON
_DOMAIN = st.fixed_dictionaries(
    {"kind": st.sampled_from(["box", "torus", "ring"]),
     "lo": _COORDS, "hi": _COORDS, "sides": _COORDS}
) | _JSON
_PARAMS = {"domain": _DOMAIN, "window": _DOMAIN, "L": _INTS | _JSON, "n": _INTS | _JSON,
           "k": _INTS | _JSON, "layers": _INTS | _JSON, "Z": _COORDS, "mode": _JSON, "self": _JSON}
_OWN_KEYS = {"iid": ["domain"], "zerner_merkl": ["L"], "dyadic": ["window", "n"],
             "layered": ["base", "layers"], "finite_k": ["k", "window", "n"], "type_c": ["base"]}


def _specs(base):
    def one(variant):
        params = {**_PARAMS, "base": base}
        own = _OWN_KEYS.get(variant, [])
        return st.fixed_dictionaries({"variant": st.just(variant), **{k: params[k] for k in own}},
                                     optional={k: v for k, v in params.items() if k not in own})
    return st.sampled_from([*_OWN_KEYS, "nope"]).flatmap(one)


_SPEC = _specs(_specs(_JSON) | _JSON)


@settings(max_examples=150, deadline=None)
@given(doc=_SPEC | _JSON)
def test_fuzzed_spec_never_tracebacks(doc):
    with tempfile.TemporaryDirectory() as tmp:
        res = _generate(doc, Path(tmp))
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    assert res.exit_code in (0, 2), res.output
    if res.exit_code == 2:
        errors = res.stderr.splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: "), res.stderr
