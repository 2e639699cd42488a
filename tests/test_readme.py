"""README's library example runs as written, so it cannot drift from the API."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    (code,) = re.findall(r"## Library example\n\n```python\n(.*?)```", text, re.DOTALL)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert re.fullmatch(r"log Z >= -\d+\.\d{3} \+/- \d+\.\d{3}   \(exact -\d+\.\d{3}\)\n", out.getvalue())
