"""Support vector machines trained by SMO.

Binary soft-margin SVC with pluggable kernels, and the two multi-class
reductions the paper discusses: DAGSVM (Platt et al., the paper's choice —
"the fastest among other multi-class voting methods") and one-vs-one
max-wins voting (the comparison baseline from Hsu & Lin).
"""

from repro.ml.svm.binary import BinarySVC
from repro.ml.svm.dagsvm import DagSvmClassifier
from repro.ml.svm.kernels import LinearKernel, PolynomialKernel, RbfKernel
from repro.ml.svm.ovo import OneVsOneSVC
from repro.ml.svm.smo import SmoResult, solve_smo

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
