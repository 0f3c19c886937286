"""The README's code must at least import what it names."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_imports_resolve():
    text = README.read_text()
    section = text[text.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imports = [ln for ln in block.splitlines() if ln.startswith(("import ", "from "))]
    assert imports
    exec("\n".join(imports), {})
