"""The package's public names and the README's library example: a stale
re-export or an example that no longer runs fails here, not in user
code."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import mouldnf
import mouldnf.alphabet
from mouldnf.cli import _SCHEMA

README = Path(__file__).parent.parent / "README.md"


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from mouldnf import *", namespace)
    assert all(hasattr(mouldnf, name) for name in mouldnf.__all__)
    assert set(mouldnf.__all__) <= set(namespace)


def test_exports_the_readme_names():
    assert sorted(mouldnf.__all__) == [
        "ClassicalBackend",
        "Frequency",
        "Observable",
        "OutOfDomainError",
        "QuantumBackend",
        "ScaleParams",
        "normalize",
    ]


# The standard modules that importing the CLI may load.  perfbench's
# setup_s times this import together with load_config(...).observable().
CLI_IMPORTS = set(
    "__future__ _csv _decimal _json _statistics argparse csv decimal fractions gettext json "
    "json.decoder json.encoder json.scanner numbers statistics".split()
)


def test_cli_import_needs_no_numpy():
    # the package runs on the standard library alone
    src = Path(mouldnf.__file__).parent.parent
    code = (
        "import sys; before = set(sys.modules); import mouldnf.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    added = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    ).stdout.split()
    outside = {m for m in added if m != "mouldnf" and not m.startswith("mouldnf.")}
    assert "numpy" not in outside
    assert outside <= CLI_IMPORTS, sorted(outside - CLI_IMPORTS)


def test_readme_config_schema_lists_the_schema_keys():
    section = README.read_text().split("### Config schema", 1)[1]
    block = re.search(r"```jsonc\n(.*?)```", section, re.S).group(1)
    documented = json.loads(re.sub(r"//[^\n]*", "", block))
    assert set(documented) == set(_SCHEMA)
    for name in ("freq", "scale", "tolerances"):
        assert set(documented[name]) == set(_SCHEMA[name][0]), name


def test_words_are_plain_tuples():
    # a word is the tuple of its letters; no wrapper class is exported
    for name in ("Word", "EMPTY_WORD"):
        assert name not in mouldnf.__all__
        assert not hasattr(mouldnf, name)
        assert not hasattr(mouldnf.alphabet, name)


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
