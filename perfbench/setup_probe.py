"""Set-up probe, run in a fresh interpreter by run.py.

Imports modwave, then makes the first `classify` and the first
`modulation_slopes` call a user of the library or the CLI pays for.
Prints one JSON line with the phase times; exits 1 if modwave is not the
copy under the directory given as the first argument or its answers are
wrong.
"""
import json
import os
import sys
import time

t0 = time.perf_counter()
import modwave  # noqa: E402
from modwave.bloch import BlochMatrix, local_assembler, modulation_slopes  # noqa: E402

t1 = time.perf_counter()
if not os.path.abspath(modwave.__file__).startswith(os.path.abspath(sys.argv[1]) + os.sep):
    sys.exit(f"modwave imported from {modwave.__file__}, not from {sys.argv[1]}")

# the (alpha, beta, gamma) = (3, 1, 0) cnoidal KdV wave
spec, params = modwave.kdv_spec(), modwave.WaveParams(-0.5, 0.0, -4.0 / 3.0)
report = modwave.classify(spec, params)
t2 = time.perf_counter()

first_eig = []
eigenvalues = BlochMatrix.eigenvalues


def timed_eigenvalues(self):
    s = time.perf_counter()
    try:
        return eigenvalues(self)
    finally:
        first_eig.append(time.perf_counter() - s)


BlochMatrix.eigenvalues = timed_eigenvalues
slopes = modulation_slopes(local_assembler(modwave.resolve_profile(spec, params), N=48))
t3 = time.perf_counter()

if report.classification != "stable" or not all(abs(s.imag) < 1e-6 for s in slopes):
    sys.exit(f"wrong answer on the (3, 1, 0) KdV wave: {report.classification}, {slopes}")
print(json.dumps({"import_s": t1 - t0, "first_classify_s": t2 - t1,
                  "first_slopes_s": t3 - t2, "first_eig_s": first_eig[0]}))
