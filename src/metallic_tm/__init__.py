"""Exact verification of metallic structures on tangent bundles.

The package lifts an almost paracontact metric structure from a charted
manifold to its tangent bundle, assembles the two induced metallic
structures (one from complete lifts, one from horizontal lifts), and checks
the defining identities, compatibility, integrability, parallelity and
closedness claims exactly over Q(sigma) at rational sample points.
"""

from .scalars import MetallicScalar, sigma
from .exprs import Expr, ParseError, EvalError, parse, evaluate, diff, to_str
from .manifold import (
    ChartedManifold,
    Connection,
    GeometryError,
    TensorField,
    christoffel,
    curvature,
    lie_bracket,
)
from .paracontact import (
    ParacontactStructure,
    check_almost_paracontact,
    check_metric_compat,
    check_p_sasakian,
    check_D_flat,
    distribution_frame,
    n_tensors,
)
from .bundle import (
    TangentBundleChart,
    adapted_frame,
    clift_connection,
    clift_metric,
    clift_vector,
    hlift_connection,
    hlift_metric,
    hlift_vector,
    lift_oneform,
    lift_tensor11,
    sasaki_metric,
    vlift_vector,
)
from .metallic import (
    MetallicOnTM,
    MetallicParams,
    build_F,
    build_J,
    build_psi,
    check_F_integrability_conditions,
    check_compat,
    check_metallic,
    fundamental_form,
    parallelity_probe,
)
from .verdicts import AxiomVerdict, ResidualTracker, Witness
from .harness import (
    Manifest,
    ManifestError,
    SamplePlan,
    SUITE_IDS,
    emit_report,
    load_manifest,
    parse_manifest,
    render_report,
    report_all_pass,
    run_suites,
    sample_points,
)

__version__ = "0.1.0"
