"""The README's library example runs against the package's exports."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    assert len(namespace["traj"]) == 1002
