"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments():
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    # each print line ends in "# <its output>", maybe followed by two spaces
    # and a remark
    want = [line.split("#", 1)[1].strip().split("  ")[0]
            for line in code.splitlines() if line.startswith("print(")]
    assert want == ["-200 44", "48", "-168 None", "3 4"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want
