import re
import subprocess
import sys
from pathlib import Path

import relcover

README = "README.md"


def test_readme_python_examples_run(capsys, fixtures_dir, monkeypatch):
    root = fixtures_dir.parent
    blocks = re.findall(r"^```python\n(.*?)^```", (root / README).read_text(), re.S | re.M)
    assert blocks
    monkeypatch.chdir(root)
    for block in blocks:
        exec(compile(block, README, "exec"), {})
        # trailing comment lines show what the block prints
        lines = block.rstrip("\n").splitlines()
        shown = []
        while lines and lines[-1].startswith("# "):
            shown.insert(0, lines.pop()[2:])
        assert capsys.readouterr().out.splitlines() == shown, block
    assert any("# 0.2668 7 7" in block for block in blocks)


def test_all_names_resolve_sorted_and_unique():
    assert relcover.__all__ == sorted(set(relcover.__all__))
    namespace: dict = {}
    exec("from relcover import *", namespace)  # raises on a stale entry
    assert set(relcover.__all__) <= set(namespace)


def _fresh(code: str) -> str:
    # stdout of `code` run in a new interpreter that imports this relcover
    src = str(Path(relcover.__file__).resolve().parent.parent)
    prelude = f"import sys; sys.path.insert(0, {src!r}); import relcover\n"
    done = subprocess.run([sys.executable, "-c", prelude + code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


LOADED = "print(sorted(m for m in sys.modules if m.startswith('relcover.')))\n"


def test_bare_import_runs_no_submodule():
    assert _fresh(LOADED) == "[]\n"


def test_load_and_validate_import_only_what_they_use(fixtures_dir):
    code = (
        f"spec = relcover.load_system({str(fixtures_dir / 't1.json')!r})\n"
        "assert relcover.validate_system(spec).ok\n"
        "assert {'load_system', 'validate_system'} <= set(vars(relcover))\n" + LOADED
    )
    assert _fresh(code) == "['relcover.errors', 'relcover.network', 'relcover.system']\n"


def test_submodule_resolves_after_bare_import():
    code = "print(relcover.evaluate.__name__, relcover.evaluate.MAX_LIVE_MASKS)\n"
    assert _fresh(code) == f"relcover.evaluate {relcover.evaluate.MAX_LIVE_MASKS}\n"


def test_unknown_name_raises_attribute_error():
    code = (
        "try:\n    relcover.no_such_name\nexcept AttributeError as e:\n    print(e)\n"
        "try:\n    from relcover import no_such_name\nexcept ImportError as e:\n    print(e)\n"
        + LOADED
    )
    lines = _fresh(code).splitlines()
    assert lines[0] == "module 'relcover' has no attribute 'no_such_name'"
    assert lines[1].startswith("cannot import name 'no_such_name' from 'relcover'")
    assert lines[2:] == ["[]"]


def test_dir_lists_every_public_name_without_importing():
    code = "names = dir(relcover)\nprint('__all__' in names, set(relcover.__all__) <= set(names))\n"
    assert _fresh(code + LOADED) == "True True\n[]\n"
