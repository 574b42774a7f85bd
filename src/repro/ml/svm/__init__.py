"""Support vector machines trained by SMO.

Binary soft-margin SVC with pluggable kernels, and the two multi-class
reductions the paper discusses: DAGSVM (Platt et al., the paper's choice —
"the fastest among other multi-class voting methods") and one-vs-one
max-wins voting (the comparison baseline from Hsu & Lin).
"""
