"""The package exports exactly the API that the README documents."""

import re
import subprocess
import sys
from pathlib import Path

import trigcrystal

README = Path(__file__).resolve().parents[1] / "README.md"


def documented_names():
    text = README.read_text(encoding="utf-8")
    library = text.split("## Library", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in library.splitlines():
        if line.startswith("| `trigcrystal."):
            contents = re.split(r"(?<!\\)\|", line)[2]  # "\|" is a literal bar
            names.update(re.findall(r"`([A-Za-z_]\w*)`", contents))
    example = library.split("```python", 1)[1].split("```", 1)[0]
    names.update(re.findall(r"\btc\.([A-Za-z_]\w*)", example))
    return names


def test_all_is_the_documented_api():
    exported = trigcrystal.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == documented_names()


def test_every_exported_name_resolves():
    for name in trigcrystal.__all__:
        assert getattr(trigcrystal, name) is not None


def test_import_loads_no_scipy():
    # SciPy is a test-only dependency: the library and the CLI must not load it
    code = ("import sys, trigcrystal, trigcrystal.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_the_cli_imports_no_process_pool():
    # only an ensemble run with threads > 1 starts a pool, and imports it then
    code = ("import sys, trigcrystal.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
