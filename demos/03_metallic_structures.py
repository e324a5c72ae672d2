"""Metallic structures on TM and the full verification run.

Assembles J (from complete lifts) and F (from horizontal lifts) over the
hyperbolic half-space, checks the metallic identity and compatibility,
probes parallelity, and then runs the complete suite battery through the
harness, printing the report summary.

Run:  python3 demos/03_metallic_structures.py
"""

from metallic_tm import bundle as bd
from metallic_tm import harness
from metallic_tm import manifold as mf
from metallic_tm import metallic as ml
from metallic_tm import paracontact as pc
from metallic_tm.cli import bundled_manifest_path


def main():
    manifest = harness.load_manifest(bundled_manifest_path())
    S = manifest.structure
    tb = bd.TangentBundleChart(manifest.manifold, mf.christoffel(manifest.manifold))
    pts = harness.sample_points(manifest)

    print("Metallic identity T^2 = pT + qI:")
    for p, q in [(1, 1), (2, 1), (3, 5)]:
        prm = ml.MetallicParams(p, q)
        J = ml.build_J(S, tb, prm)
        F = ml.build_F(S, tb, prm)
        print(f"  (p, q) = ({p}, {q}):"
              f"  J {ml.check_metallic(J, pts).status},"
              f"  F {ml.check_metallic(F, pts).status}")

    prm = ml.MetallicParams(1, 1)
    J = ml.build_J(S, tb, prm)
    F = ml.build_F(S, tb, prm)

    print("\nParallelity probes (closed forms, nonzero residuals):")
    cc = bd.clift_connection(tb)
    hc = bd.hlift_connection(tb)
    frame = pc.distribution_frame(S, pts)
    vJ = ml.parallelity_probe(J, cc, S, tb, frame, pts)
    vF = ml.parallelity_probe(F, hc, S, tb, frame, pts)
    print(f"  J never parallel wrt nabla^c: {vJ.status}, "
          f"sample residual {vJ.witness.value}")
    print(f"  F never parallel wrt nabla^h: {vF.status}, "
          f"sample residual {vF.witness.value}")

    print("\nFull suite battery via the harness:")
    report = harness.run_suites(manifest)
    for s in report["suites"]:
        print(f"  {s['id']:<30} {s['status']:<8} "
              f"max_residual={s['max_residual']['exact']}")
    print(f"\nconventions: {report['conventions']}")
    print(f"all suites pass: {harness.report_all_pass(report)}")


if __name__ == "__main__":
    main()
