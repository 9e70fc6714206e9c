"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:  # later blocks reuse the names of earlier ones
        exec(compile(block, str(README), "exec"), namespace)
    assert "[[0, 1], [1, 2], [2, 0]]" in capsys.readouterr().out
