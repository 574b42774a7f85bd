"""Iustitia core: entropy vectors, classification, the CDB, the
configuration of the online engine (:mod:`repro.engine`), and the
offline (delta, epsilon) estimation study."""
