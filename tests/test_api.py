"""The package's public names, the README's library example, and the
reach of the commands: a stale re-export, an example that no longer
runs or a module function no command calls fails here, not in user
code."""

import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import mouldnf
import mouldnf.alphabet
from mouldnf.cli import _SCHEMA, main

REPO = Path(__file__).parent.parent
README = REPO / "README.md"


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from mouldnf import *", namespace)
    assert all(hasattr(mouldnf, name) for name in mouldnf.__all__)
    assert set(mouldnf.__all__) <= set(namespace)


def test_exports_the_readme_names():
    assert sorted(mouldnf.__all__) == [
        "Backend",
        "Frequency",
        "Observable",
        "OutOfDomainError",
        "ScaleParams",
        "normalize",
    ]


# The standard modules that importing the CLI may load.  perfbench's
# setup_s times this import together with load_config(...).observable().
CLI_IMPORTS = set(
    "__future__ _csv _decimal _json _statistics argparse array csv decimal fractions gettext json "
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


# Every command on its shipped config, and normalize with the quantum
# backend, which alone reaches the quantum diagnostics.
COMMAND_RUNS = [
    ["normalize", "toy_normalize.json"],
    ["normalize", "toy_semiclassical.json"],
    ["semiclassical", "toy_semiclassical.json"],
    ["verify", "verify_suite.json"],
    ["dump-moulds", "rational_moulds.json", "--exact"],
]
# behind ``QI.__hash__``; no command keys a dict or set by a Q(i) value
UNREACHED_EXEMPT = {"mouldnf.exact._rational_hash"}


def test_every_module_function_is_reached_by_a_command(tmp_path):
    functions = {}
    for info in pkgutil.iter_modules(mouldnf.__path__):
        module = importlib.import_module(f"mouldnf.{info.name}")
        for name, func in inspect.getmembers(module, inspect.isfunction):
            if func.__module__ == module.__name__:
                functions[func.__code__] = f"{module.__name__}.{name}"
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for i, (command, config, *flags) in enumerate(COMMAND_RUNS):
            argv = [command, "--config", str(REPO / "configs" / config), *flags]
            assert main(argv + ["--out", str(tmp_path / str(i))]) == 0, argv
    finally:
        sys.setprofile(None)
    unreached = {name for code, name in functions.items() if code not in called}
    assert unreached - UNREACHED_EXEMPT == set()


def test_readme_prose_lines_at_most_400_characters():
    fenced, long_lines = False, []
    for number, line in enumerate(README.read_text().splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif not fenced and len(line) > 400:
            long_lines.append((number, len(line)))
    assert long_lines == []
