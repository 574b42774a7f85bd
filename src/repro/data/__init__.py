"""Synthetic corpus substrate.

The paper validates on a pool of real text, binary, and encrypted files
(Section 3.2). No such pool ships offline, so this subpackage generates a
statistically equivalent corpus:

* **text** — Zipf/Markov English prose, HTML pages, log files, emails
  (skewed byte distribution → lowest entropy);
* **binary** — ELF-like executables, JPEG/PNG-like images, DEFLATE
  archives, PDF-like documents, AVI/MPG-like media (structured headers and
  padding mixed with compressed payload → intermediate entropy);
* **encrypted** — RC4 / hash-CTR keystream ciphertexts (statistically
  uniform bytes → highest entropy).

All generators are deterministic given a ``numpy.random.Generator``, so
every experiment is reproducible from a seed.
"""
