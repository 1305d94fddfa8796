"""The README's library example runs as written, so removing or renaming a
public name it uses fails the suite."""

import contextlib
import io
import json
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_library_example_runs():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    report = json.loads(out.getvalue())
    assert set(report) == {"iacc", "ild_db", "itd_ms", "isd", "ipd_rad", "frames_used"}
