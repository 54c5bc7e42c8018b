"""What a cold CLI job imports, and that the benchmark tracer still sees each call.

Each subcommand imports its modules inside its handler, so a `census` job
never loads the finite-field or fixed-ring code, and `oracle` imports the
fixed-ring code only inside the two oracles that run it.  perfbench/tracer.py wraps
its targets in their home modules before the job runs; a handler-level
import must pick those wrappers up, so every span is recorded exactly once.
"""

import json
import os
import pathlib
import subprocess
import sys
from array import array
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

LOADED = """
import contextlib, io, json, sys
if sys.argv[1:]:
    from param_atlas import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
else:
    import param_atlas
print(json.dumps(sorted(sys.modules)))
"""

ATLAS_ONLY = {"gf", "oracle", "invariant_rings", "laurent"}
RINGS = {"invariant_rings", "laurent"}

# the oracle jobs of the benchmark
COMMUTANT = "oracle commutant --group sl2 --q 3 --ell 2 --field-degree 8 --seed 1"
IDENTITIES_GL3 = "oracle identities --group gl3 --q 4 --ell 17 --field-degree 2 --trials 400"
IDENTITIES_GSP6 = "oracle identities --group gsp6 --q 5 --ell 11 --trials 200 --seed 1"
TWISTED = "oracle twisted --order 500"
AVOIDANT = "oracle avoidant --group gsp6 --q 3 --ell 7 --seed 1"


def _run(argv: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules(*argv: str) -> set[str]:
    return set(json.loads(_run([sys.executable, "-c", LOADED, *argv])))


def _loaded(*argv: str) -> set[str]:
    return {m[len("param_atlas."):] for m in _modules(*argv) if m.startswith("param_atlas.")}


def test_bare_import_loads_no_submodule():
    assert _loaded() == set()


@pytest.mark.parametrize("argv,never", [
    ("census --group gsp4 --ell 5", ATLAS_ONLY),
    ("coverage --group gsp6 --ell 5", ATLAS_ONLY),
    ("bg-ring --group gsp4 --q 9", {"census", "coverage", "gf", "oracle"}),
    (COMMUTANT, {"census", "coverage", *RINGS}),
    (IDENTITIES_GL3, {"census", "coverage"}),
    (IDENTITIES_GSP6, {"census", "coverage"}),
    (TWISTED, {"coverage", *RINGS}),
    (AVOIDANT, RINGS),
])
def test_subcommand_loads_only_its_modules(argv, never):
    loaded = _loaded(*argv.split())
    assert "cli" in loaded
    assert loaded & never == set()


# `fractions` (and `decimal` with it) loads on the first division over Q.  The
# one such division is the rank check of the simple roots that the Weyl-orbit
# code runs (`root_datum._simple_pairs`): `bg-ring` and the identity trials
# reach it, the other jobs never do.
@pytest.mark.parametrize("argv,divides", [
    ("census --group sl30 --ell 5", False),
    ("coverage --group gl16", False),
    (COMMUTANT, False),
    (TWISTED, False),
    (AVOIDANT, False),
    ("bg-ring --group gsp4 --q 9", True),
    (IDENTITIES_GSP6, True),
])
def test_fractions_load_only_where_a_rational_elimination_divides(argv, divides):
    assert ("fractions" in _modules(*argv.split())) == divides


# Spans per name, as recorded when `cli` still bound every handler's functions
# at import; a count that doubled or vanished would show a handler calling an
# unwrapped function, or a wrapper around a wrapper.  The census counts twisted
# classes once per distinct pi_0 group: gsp4 has two, 1 and Z/2.
TRACED_SPANS = {
    "census --group gsp4 --ell 5": {
        "cli.main": 1, "cli.cmd_census": 1, "root_datum.build_group": 1,
        "census.census": 1, "census.partitions": 1, "census.unipotent_classes": 1,
        "census.component_group": 4, "census.cyclic_group": 4,
        "census.twisted_class_count": 2, "census.ExplicitGroup.__init__": 2,
    },
    "oracle identities --group gl2 --q 3 --ell 5 --trials 3": {
        "cli.main": 1, "cli.cmd_oracle_identities": 1, "root_datum.build_group": 1,
        "gf.FiniteField.__init__": 1, "oracle.eval_identity_trials": 1,
        "invariant_rings.fundamental_invariants": 1, "invariant_rings.orbit_sum": 2,
        "invariant_rings.frobenius_pullback": 2, "invariant_rings.adams": 2,
        "invariant_rings.rewrite_in_generators": 2, "root_datum.height": 3,
        "root_datum.orbit_of_weight": 5, "laurent.LaurentPolynomial.evaluate_in_field": 18,
    },
    "oracle twisted --order 50": {
        "cli.main": 1, "cli.cmd_oracle_twisted": 1, "census.cyclic_group": 1,
        "census.ExplicitGroup.__init__": 1, "census.twisted_class_count": 1,
        "oracle.twisted_orbits_bruteforce": 1,
    },
}


@pytest.mark.parametrize("job", sorted(TRACED_SPANS))
def test_tracer_spans_match_handler_calls(job, tmp_path):
    out = str(tmp_path / "job")
    _run([sys.executable, str(TRACER), out, job, "cli", *job.split(), "--output", "json"])
    names = json.loads(pathlib.Path(out + ".json").read_text())["names"]
    spans = array("q")
    spans.frombytes(pathlib.Path(out + ".bin").read_bytes())
    assert Counter(names[i] for i in spans[::4]) == TRACED_SPANS[job]
