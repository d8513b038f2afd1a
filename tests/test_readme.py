"""README's library example runs against the package as it stands, so a
public name that is deleted or renamed cannot stay documented."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_block_runs():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE))
    assert len(blocks) == 1
    # padded so a traceback names the README line
    source = "\n" * text.count("\n", 0, blocks[0].start(1)) + blocks[0][1]
    exec(compile(source, str(README), "exec"), {})
