"""The library API that README.md documents stays importable."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_imports():
    # only the import statements run; the rest of each block is illustrative
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    imports = [node for block in blocks for node in ast.parse(block).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    module = ast.Module(body=imports, type_ignores=[])
    exec(compile(module, str(README), "exec"), {})
