"""`tools/identity.py` at smoke size: the working tree's `src` on both
sides gives every artifact file and every exit code identical."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _identity_tool():
    spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_identity_tool_finds_the_working_tree_identical_to_itself():
    identity = _identity_tool()
    src = ROOT / "src"
    lines, unexpected = identity.compare(src, src, smoke=True)
    assert unexpected == []
    *entries, summary = lines
    assert entries and all(line.startswith("identical  ") for line in entries), lines
    # run writes three files, study one: four examples, one template and
    # the every-key config
    assert summary.startswith("24 files, 12 exit codes")


def test_csv_difference_is_counted_by_cell():
    identity = _identity_tool()
    old = b"N,x\n8,1.0\n16,2.0\n"
    new = b"N,x\n8,1.0\n16,2.5\n"
    assert identity.describe_csv_difference(old, new) == "1 cells, max abs 0.5, max rel 0.2"
