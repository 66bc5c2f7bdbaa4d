"""The README's library example runs as written.

The python block under "## Library entry points" is run on the Beauville
fixture in place of its ``surface.pq``, so every import it documents must
resolve, the pipeline it shows must give that surface's invariants, and the
string matrix it shows must be the one its comment states.
"""

import re
from pathlib import Path

from tests.conftest import fixture_path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert '"surface.pq"' in block
    namespace = {}
    exec(block.replace('"surface.pq"', repr(str(fixture_path("beauville_55.pq")))), namespace)
    inv = namespace["inv"]
    assert (inv.e, inv.ksq, inv.chi, inv.pg) == (4, 8, 1, 0)
    assert namespace["matrix"] == [[-3, 1], [1, -2]]
