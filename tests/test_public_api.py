import re

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
