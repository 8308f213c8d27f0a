"""The package loads `codes`, `census` and `identities` on first use, no
subcommand loads `dataclasses` or `inspect`, and its API is unchanged.

Each case runs in a fresh child interpreter, since this process has already
imported every module.
"""

import functools
import importlib
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


# runs cli.main(sys.argv[1:]) silently; prints the package modules whose
# bodies ran, through the audit event that exec() raises for each module
# body, and which of dataclasses, inspect and json were loaded (the child
# imports json itself only after that check)
MODULES_RUN = """
import contextlib, io, os, sys
bodies = []
def hook(event, args):
    if event == "exec" and getattr(args[0], "co_name", None) == "<module>":
        bodies.append(args[0].co_filename)
sys.addaudithook(hook)
from z2z8 import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    cli.main(sys.argv[1:])
loaded = [name for name in ("dataclasses", "inspect", "json") if name in sys.modules]
package = os.path.dirname(cli.__file__)
ran = sorted(os.path.splitext(os.path.basename(f))[0]
             for f in bodies if os.path.dirname(f) == package)
import json
print(json.dumps([ran, loaded]))
"""

PROFILE = ["--alpha", "2", "--beta", "2", "--k0", "1", "--k1", "1", "--k2", "1"]

# id -> (argv, the package's lazy modules it runs, whether it writes JSON)
SUBCOMMANDS = {
    "count": (["count", *PROFILE, "--k3", "0"], set(), False),
    "sequence": (["sequence", "t2"], set(), False),
    "check-identities": (["check-identities", "--max-alpha", "2", "--max-beta", "2"], set(), False),
    "matrix": (["matrix", *PROFILE, "--parity"], {"codes"}, False),
    "matrix-span": (["matrix", *PROFILE, "--span"], {"codes"}, False),
    "verify": (["verify", "--alpha", "1", "--beta", "1"], {"codes", "census"}, False),
    "census-export": (["census-export", "--alpha", "1", "--beta", "1"], {"codes", "census"}, True),
    "count-json": (["count", *PROFILE, "--k3", "0", "--format", "json"], set(), True),
    "check-identities-json": (["check-identities", "--max-alpha", "2", "--max-beta", "2",
                               "--format", "json"], set(), True),
}


@functools.lru_cache(maxsize=None)
def cli_child(case: str) -> tuple[frozenset, frozenset]:
    """(package modules run, watched stdlib modules loaded) by one subcommand."""
    ran, loaded = in_child(MODULES_RUN, *SUBCOMMANDS[case][0])
    return frozenset(ran), frozenset(loaded)


@pytest.mark.parametrize("case", SUBCOMMANDS)
def test_subcommand_runs_only_the_modules_it_uses(case):
    ran, _ = cli_child(case)
    assert {"__init__", "cli", "counting", "qnum", "errors"} <= ran
    assert ran & {"codes", "census"} == SUBCOMMANDS[case][1]


@pytest.mark.parametrize("case", SUBCOMMANDS)
def test_only_check_identities_runs_the_identities_body(case):
    # the sweeps are about a third of counting's old source, compiled on
    # every cold start when no bytecode cache is written
    ran, _ = cli_child(case)
    assert ("identities" in ran) == case.startswith("check-identities")


def test_identity_names_are_one_object_on_every_path():
    identities = sys.modules["z2z8.identities"]
    from z2z8 import counting
    from z2z8.counting import IdentityCheck, check_identities

    assert check_identities is counting.check_identities is z2z8.check_identities
    assert check_identities is identities.check_identities is z2z8.identities.check_identities
    assert z2z8.IdentityReport is counting.IdentityReport is identities.IdentityReport
    assert IdentityCheck is identities.IdentityCheck
    with pytest.raises(AttributeError):
        counting.no_such_name


@pytest.mark.parametrize("case", SUBCOMMANDS)
def test_no_subcommand_loads_dataclasses_or_inspect(case):
    # dataclasses imports inspect, and with it ast, dis and tokenize: about
    # 10 ms of every cold start; json loads only where JSON is written
    _, loaded = cli_child(case)
    assert loaded == ({"json"} if SUBCOMMANDS[case][2] else set())


def test_all_is_unchanged():
    assert z2z8.__all__ == PUBLIC_NAMES


def test_each_public_name_is_its_defining_modules_object():
    for name in z2z8.__all__:
        value = getattr(z2z8, name)
        assert value.__module__.startswith("z2z8.")
        assert getattr(sys.modules[value.__module__], name) is value


@pytest.mark.parametrize("module", ["codes", "counting", "census", "identities", "qnum", "cli"])
def test_each_modules_all_resolves(module):
    # a name deleted from a module but left in its __all__ would break its star import
    mod = importlib.import_module(f"z2z8.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


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
