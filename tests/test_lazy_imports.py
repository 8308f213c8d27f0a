"""The package loads `codes` and `census` on first use, and its API is unchanged.

Each case runs in a fresh child interpreter, since this process has already
imported every module.
"""

import json
import subprocess
import sys

import pytest

import z2z8

# the public API as the package has always listed it
PUBLIC_NAMES = [
    "TypeProfile",
    "CountBreakdown",
    "DeltaExponents",
    "IdentityReport",
    "count",
    "count_product",
    "count_closed_form",
    "count_z8",
    "count_z2z4",
    "binary_binomial_identity",
    "delta_exponents",
    "dual_type",
    "count_dual",
    "self_dual_count_condition",
    "lemma_swap_k_l",
    "check_identities",
    "q_integer",
    "q_factorial",
    "q_binomial",
    "q_multinomial",
    "MixedWord",
    "Code",
    "StandardFormMatrix",
    "ParityCheckMatrix",
    "inner_product",
    "assemble",
    "span",
    "classify_type",
    "parity_check",
    "dual_bruteforce",
    "phi_reduce",
    "random_standard_form",
    "TypeCensus",
    "census",
    "formula_census",
    "enumerate_subgroups",
    "verify_formula",
    "SelfCheckError",
    "NotASubgroupError",
    "AmbientTooLargeError",
]


def in_child(code: str, *args: str):
    """Run `code` in a fresh interpreter; it prints one JSON document last."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# records the package modules whose bodies run, through the audit event that
# exec() raises for each module body, then runs cli.main(argv) silently
MODULES_RUN = """
import contextlib, io, json, os, sys
bodies = []
def hook(event, args):
    if event == "exec" and getattr(args[0], "co_name", None) == "<module>":
        bodies.append(args[0].co_filename)
sys.addaudithook(hook)
from z2z8 import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    cli.main(json.loads(sys.argv[1]))
package = os.path.dirname(cli.__file__)
print(json.dumps(sorted(os.path.splitext(os.path.basename(f))[0]
                        for f in bodies if os.path.dirname(f) == package)))
"""

PROFILE = ["--alpha", "2", "--beta", "2", "--k0", "1", "--k1", "1", "--k2", "1"]


@pytest.mark.parametrize("argv,loaded", [
    (["count", *PROFILE, "--k3", "0"], set()),
    (["sequence", "t2"], set()),
    (["check-identities", "--max-alpha", "2", "--max-beta", "2"], set()),
    (["matrix", *PROFILE, "--parity"], {"codes"}),
    (["matrix", *PROFILE, "--span"], {"codes", "census"}),
    (["verify", "--alpha", "1", "--beta", "1"], {"codes", "census"}),
    (["census-export", "--alpha", "1", "--beta", "1"], {"codes", "census"}),
], ids=["count", "sequence", "check-identities", "matrix", "matrix-span", "verify",
        "census-export"])
def test_subcommand_runs_only_the_modules_it_uses(argv, loaded):
    ran = in_child(MODULES_RUN, json.dumps(argv))
    assert {"__init__", "cli", "counting", "qnum", "errors"} <= set(ran)
    assert set(ran) & {"codes", "census"} == loaded


def test_all_is_unchanged():
    assert z2z8.__all__ == PUBLIC_NAMES


def test_each_public_name_is_its_defining_modules_object():
    for name in z2z8.__all__:
        value = getattr(z2z8, name)
        assert value.__module__.startswith("z2z8.")
        assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_and_dir_list_every_public_name():
    names = in_child("""
import json, z2z8
listed = dir(z2z8)
namespace = {}
exec("from z2z8 import *", namespace)
print(json.dumps([listed, sorted(namespace)]))
""")
    listed, bound = names
    assert set(PUBLIC_NAMES) <= set(listed)
    assert set(PUBLIC_NAMES) <= set(bound)


@pytest.mark.parametrize("load", [
    "import z2z8.census",
    "import importlib; importlib.import_module('z2z8.census')",
    "from z2z8 import cli; cli.main(['verify', '--alpha', '1', '--beta', '1'])",
    "from z2z8.census import census",
], ids=["import", "import_module", "cli-verify", "from-import"])
def test_z2z8_census_stays_the_function(load):
    # the package re-exports the function census under its module's name
    kinds = in_child(f"""
import json, sys, types
{load}
import z2z8
module = sys.modules["z2z8.census"]
print(json.dumps([isinstance(z2z8.census, types.FunctionType), z2z8.census is module.census,
                  z2z8.census(1, 1, 3).total_subgroups]))
""")
    assert kinds == [True, True, 11]
