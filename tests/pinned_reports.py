"""Every pinned report: a manifest, its ``verify`` flags and its golden.

The same manifest, seed and version give a byte-identical report, so each
row is run through ``metallic-tm verify --report`` and compared with its
golden byte for byte; the exit code must be 0 when every suite of the
golden passes and 1 otherwise.  Pinning a new report is one more row.

Tier-1 runs every row (``tests/test_harness.py``).  Run as a script, this
module checks every row against the ``metallic_tm`` it imports, such as
an installed package, and exits 1 if any row differs:

    python tests/pinned_reports.py

It needs nothing beyond the standard library and the package.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile
from typing import NamedTuple, Tuple

import metallic_tm
from metallic_tm.cli import EXIT_FAIL, EXIT_OK, main as cli_main
from metallic_tm.harness import report_all_pass

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
BUNDLED = "src/metallic_tm/manifests"


class Row(NamedTuple):
    manifest: str  # relative to the repository root
    flags: Tuple[str, ...]
    golden: str  # in tests/data

    @property
    def id(self) -> str:
        return self.golden.removesuffix(".report.json")


TEN = ("--points", "10")

ROWS = [
    # the half-space chart in dimension 3, 5 and 7; at dimension 5 and 7
    # the lifted tensors are mostly zero, so these pin the term order of
    # contractions over block-sparse operands, the largest at dimension 7
    Row(f"{BUNDLED}/hyperbolic-h3.json", (), "hyperbolic-h3.report.json"),
    Row(f"{BUNDLED}/hyperbolic-h3.json", TEN, "hyperbolic-h3.10-points.report.json"),
    Row(f"{BUNDLED}/hyperbolic-h5.json", (), "hyperbolic-h5.report.json"),
    Row(f"{BUNDLED}/hyperbolic-h5.json", TEN, "hyperbolic-h5.10-points.report.json"),
    Row(f"{BUNDLED}/hyperbolic-h7.json", (), "hyperbolic-h7.report.json"),
    Row(f"{BUNDLED}/hyperbolic-h7.json", TEN, "hyperbolic-h7.10-points.report.json"),
    # the same structures pulled back along triangular polynomial maps; the
    # h3 twin's D-frame is not made of coordinate fields, so dPhi is taken
    # on lifted fields that are not, and its denominators are not monomials
    Row("tests/data/hyperbolic-h3-twin.json", (), "hyperbolic-h3-twin.report.json"),
    Row("tests/data/hyperbolic-h3-twin.json", TEN, "hyperbolic-h3-twin.10-points.report.json"),
    Row("tests/data/hyperbolic-h5-twin.json", (), "hyperbolic-h5-twin.report.json"),
    Row("tests/data/hyperbolic-h7-twin.json", (), "hyperbolic-h7-twin.report.json"),
    # the h3 chart at 10 float points on fibers in [-300, 300]: it pins the
    # order in which float sums are taken (F-compat fails there, exit 1)
    Row("tests/data/hyperbolic-h3-wide.json", (), "hyperbolic-h3-wide.float.report.json"),
    # charts outside the half-space family: Phi-closedness on its dPhi != 0
    # branch, phi with both eigenvalues on D, and a dense warped fiber metric
    Row(f"{BUNDLED}/warped-h3.json", (), "warped-h3.report.json"),
    Row(f"{BUNDLED}/split-h3.json", (), "split-h3.report.json"),
    Row(f"{BUNDLED}/warped-h5-dense.json", (), "warped-h5-dense.report.json"),
    # the same dense family at n = 7 (conftest.family(dense(6), [])): the
    # chart whose suites share the most nodes
    Row("tests/data/warped-h7-dense.json", (), "warped-h7-dense.report.json"),
]


def verify(row: Row, tmp: pathlib.Path) -> Tuple[int, bytes]:
    """The exit code and the report bytes of ``verify`` on ``row`` (none if
    it wrote no report); the printed suite table is dropped."""
    out = tmp / f"{row.id}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["verify", str(ROOT / row.manifest), *row.flags, "--report", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def golden(row: Row) -> Tuple[int, bytes]:
    """The exit code and the report bytes that ``row`` pins."""
    text = (DATA / row.golden).read_bytes()
    return (EXIT_OK if report_all_pass(json.loads(text)) else EXIT_FAIL), text


def main() -> int:
    print(f"checking {len(ROWS)} pinned reports with {metallic_tm.__file__}")
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for row in ROWS:
            (code, got), (want_code, want) = verify(row, pathlib.Path(tmp)), golden(row)
            if (code, got) == (want_code, want):
                print(f"ok    {row.id}")
            else:
                bad += 1
                what = "report differs" if got != want else f"exit {code}, want {want_code}"
                print(f"FAIL  {row.id}: {what}")
    return EXIT_FAIL if bad else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
