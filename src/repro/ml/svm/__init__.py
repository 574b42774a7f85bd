"""Support vector machines trained by SMO.

Binary soft-margin SVC with pluggable kernels, and the two multi-class
reductions the paper discusses: DAGSVM (Platt et al., the paper's choice —
"the fastest among other multi-class voting methods") and one-vs-one
max-wins voting (the comparison baseline from Hsu & Lin).
"""

from repro._lazy import lazy_exports
from repro.ml.svm.binary import BinarySVC
from repro.ml.svm.dagsvm import DagSvmClassifier
from repro.ml.svm.kernels import LinearKernel, PolynomialKernel, RbfKernel

# Training (SMO) and the one-vs-one baseline: a loaded DAGSVM needs
# neither to predict.
__getattr__, __dir__ = lazy_exports(globals(), {
    "OneVsOneSVC": "repro.ml.svm.ovo",
    "SmoResult": "repro.ml.svm.smo",
    "solve_smo": "repro.ml.svm.smo",
})

__all__ = [
    "BinarySVC",
    "DagSvmClassifier",
    "LinearKernel",
    "OneVsOneSVC",
    "PolynomialKernel",
    "RbfKernel",
    "SmoResult",
    "solve_smo",
]
