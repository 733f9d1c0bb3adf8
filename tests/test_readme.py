"""README's library quick start runs as documented."""

import re
from pathlib import Path

from formstab.instances import demo_path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_on_the_triangle():
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    code = block.replace('"instance.json"', repr(str(demo_path("triangle"))))
    assert code != block
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["report"].stable
    assert scope["fit"].passed
