"""The python blocks of README.md run, and give the scalars their comments show."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
# ``expression  # 0.1527864045000421``, the comment going on after a space,
# a comma or a colon.
SCALAR = re.compile(
    r"^(?P<expr>[^#\s][^#]*?)\s+#\s*(?P<value>[-+]?\d[\d.]*(?:e[-+]?\d+)?)(?=[\s,:]|$)"
)


def test_readme_shows_scalars():
    shown = [line for block in BLOCKS for line in block.splitlines() if SCALAR.match(line)]
    assert any(line.startswith("report.value") for line in shown)


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_gives_its_commented_scalars(block):
    scope: dict = {}
    exec(compile(block, str(README), "exec"), scope)
    for line in block.splitlines():
        if m := SCALAR.match(line):
            assert eval(m["expr"], scope) == pytest.approx(float(m["value"]), rel=1e-12), line
