"""Metallic structures on TM and the full verification run.

Assembles the almost product structures Psi of J (from complete lifts) and
F (from horizontal lifts) over the hyperbolic half-space, checks the
metallic identity once per sign pair, probes parallelity, and then runs the
complete suite battery through the harness, printing the report summary.

Run:  python3 demos/03_metallic_structures.py
"""

from metallic_tm import bundle as bd
from metallic_tm import harness
from metallic_tm import manifold as mf
from metallic_tm import metallic as ml
from metallic_tm import paracontact as pc
from metallic_tm.cli import bundled_manifest_path
from metallic_tm.scalars import scalar_str
from metallic_tm.verdicts import FLOAT_TOL, residual_verdict


def decide(arr, chart, pts):
    """The verdict on the residual array ``arr``, which must vanish at the
    points."""
    verdict, _ = residual_verdict("", chart, pts, FLOAT_TOL, arr)
    return verdict


def main():
    manifest = harness.load_manifest(bundled_manifest_path())
    S = manifest.structure
    tb = bd.TangentBundleChart(manifest.manifold, mf.christoffel(manifest.manifold))
    pts = harness.sample_points(manifest)

    # J and F are T = (p/2) I - (a/2) Psi with a = 2 sigma - p, and Psi does
    # not depend on (p, q): each claim is checked once per sign pair
    print("Metallic identity T^2 = pT + qI, for every (p, q), as Psi^2 = I:")
    for e1, e2 in [(1, 1), (-1, -1), (1, -1)]:
        psi_J = ml.build_psi(S, tb, "c", e1, e2)
        psi_F = ml.build_psi(S, tb, "h", e1, e2)
        square_J, square_F = (ml.pq_residual(psi.components, 0, 1) for psi in (psi_J, psi_F))
        print(f"  (eps1, eps2) = ({e1:+d}, {e2:+d}):"
              f"  J {decide(square_J, tb.chart, pts).status},"
              f"  F {decide(square_F, tb.chart, pts).status}")

    prm = ml.MetallicParams(1, 1)
    psi_J = ml.build_psi(S, tb, "c", 1, 1)
    psi_F = ml.build_psi(S, tb, "h", 1, 1)

    print("\nParallelity probes (closed forms, nonzero residuals):")
    frame = pc.distribution_frame(S, pts)
    scale = prm.coefficients()[2]  # nabla~ T = -(a/2) nabla~ Psi
    for name, psi, lift, conn in (("J", psi_J, "c", bd.clift_connection(tb)),
                                  ("F", psi_F, "h", bd.hlift_connection(tb))):
        probes, mismatch = ml.parallelity_probes(psi, lift, conn, S, tb, frame)
        largest = decide(probes, tb.chart, pts).max_residual
        print(f"  {name} never parallel wrt nabla^{lift}: closed form "
              f"{decide(mismatch, tb.chart, pts).status}, "
              f"sample residual {scalar_str(scale * largest)} at (p, q) = (1, 1)")

    print("\nFull suite battery via the harness:")
    report = harness.run_suites(manifest)
    for s in report["suites"]:
        print(f"  {s['id']:<30} {s['status']:<8} "
              f"max_residual={s['max_residual']['exact']}")
    print(f"\nconventions: {report['conventions']}")
    print(f"all suites pass: {harness.report_all_pass(report)}")


if __name__ == "__main__":
    main()
