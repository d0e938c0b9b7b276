"""The package's public names and the README's library example: a stale
re-export or an example that no longer runs fails here, not in user
code."""

import os
import re
import subprocess
import sys
from pathlib import Path

import mouldnf
import mouldnf.alphabet

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


def test_cli_import_needs_no_numpy():
    # the package runs on the standard library alone
    src = Path(mouldnf.__file__).parent.parent
    code = "import sys, mouldnf.cli; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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
