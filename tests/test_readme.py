"""The README's quick tour runs as written: it is the README's one promise
about the public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour"):]
    blocks = re.findall(r"```python\n(.*?)```", tour, flags=re.S)
    assert blocks
    namespace = {}
    for block in blocks:  # later blocks read the names of earlier ones
        exec(compile(block, str(README), "exec"), namespace)
