"""Exact verification of metallic structures on tangent bundles.

The package lifts an almost paracontact metric structure from a charted
manifold to its tangent bundle, assembles the two induced metallic
structures (one from complete lifts, one from horizontal lifts), and checks
the defining identities, compatibility, integrability, parallelity and
closedness claims exactly over Q(sigma) at rational sample points.
"""

__version__ = "0.1.0"
