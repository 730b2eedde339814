"""README's code examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    # the one Python block of the Library section
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ")[0]
    (block,) = re.findall(r"```python\n(.*?)```", library, flags=re.DOTALL)
    exec(compile(block, f"{README.name} (Library)", "exec"), {})
