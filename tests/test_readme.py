"""README's "Library quick start" block runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs_as_written():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    # each print is annotated with its output; "..." elides a dict's tail
    promised = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    printed = out.getvalue().splitlines()
    assert len(promised) == len(printed) == 2
    for line, comment in zip(printed, promised):
        if comment.endswith(", ...}"):
            assert line.startswith(comment.removesuffix("...}")), (line, comment)
        else:
            assert line == comment
