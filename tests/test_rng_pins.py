"""The rng stream of each sampling command, pinned.

No report shows the draws of a passing check, so a check that draws more,
fewer or other values than before would still print the same report.  Each
command's checks run here as `cli.main` runs them, from the case file's
seed, and the sha256 of the rng's final `getstate()` is compared with the
value in tests/golden/rng_states.json, recorded when the checks drew one
`randint` per value.
"""

import hashlib
import json
import os
import random

import pytest

from toruscheck import cli
from toruscheck.casefile import load_case_file
from toruscheck.characters import TableCache

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "rng_states.json")
CASES = {
    "norm_one_torus": os.path.join(ROOT, "fixtures", "norm_one_torus.json"),
    "s3_component": os.path.join(ROOT, "fixtures", "s3_component.json"),
    "galois6": os.path.join(ROOT, "tests", "galois6_case.json"),
}
SAMPLING = ("cohomology", "sign", "projirr")


def final_state(command, path):
    """The sha256 of the rng state after the checks of `command` on the
    case file at `path`, run in report order until one raises ValueError,
    as `cli.main` runs them."""
    torus, z, phi, extras = load_case_file(path)
    inputs = cli.Inputs(rng=random.Random(int(extras.get("seed", 0))),
                        cache=TableCache(), torus=torus, z=z, phi=phi,
                        extras=extras)
    for _, _, run in cli.COMMANDS[command]:
        try:
            run(inputs)
        except ValueError:
            break
    return hashlib.sha256(repr(inputs.rng.getstate()).encode()).hexdigest()


def _golden():
    with open(GOLDEN, "r", encoding="utf-8") as f:
        return json.load(f)


def test_every_pair_is_pinned():
    assert sorted(_golden()) == sorted(
        "%s.%s" % (c, name) for name in CASES for c in SAMPLING)


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("command", SAMPLING)
def test_rng_end_state_is_pinned(command, name):
    assert final_state(command, CASES[name]) \
        == _golden()["%s.%s" % (command, name)]
