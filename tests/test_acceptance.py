"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its residuals and runtime (run with -s to see them live)."""
import time

import numpy as np

from conftest import (exact_bo_assembler, exact_local_assembler, fd_jacobian, sample_kdv,
                      sample_mkdv_defocusing, sample_mkdv_focusing_cnoidal,
                      sample_mkdv_focusing_dnoidal, sample_schamel,
                      schamel_params_from_interval)
from modwave import (BOWaveParams, WaveParams, bo_conserved,
                     bo_dispersion_matrix, bo_modulation_speeds, classify,
                     delta_constant_state, delta_discriminant, delta_ilw,
                     effective_dispersion_roots, fkdv_symbol, gamma_ilw,
                     ilw_symbol, kdv_params_from_roots, kdv_spec, lambda_fkdv,
                     lambda_index, lambda_oracle, benjamin_feir_cutoff,
                     mkdv_root_classifier, mkdv_spec, modulation_slope_prediction,
                     moment_jacobian, param_jacobian, potential_polynomial, potential_roots,
                     resolve_profile, schamel_spec, whitham_symbol)
from modwave.bloch import (assemble_local, bo_assembler, local_assembler,
                           match_slope_sets, modulation_slopes)


class Budget:
    def __init__(self, name, seconds):
        self.name, self.seconds = name, seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[{self.name}] {status}  ({self.elapsed:.1f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert self.elapsed < self.seconds, f"{self.name} exceeded runtime budget"
        return False


def test_criterion_01_kdv_universal_stability():
    with Budget("criterion 1: KdV universal stability", 30):
        rng = np.random.default_rng(101)
        spec = kdv_spec()
        pts = sample_kdv(rng, 100, min_disc=0.01)
        for p in pts:
            rep = classify(spec, p)
            assert rep.classification == "stable"
            assert rep.delta_mi > 0


def test_criterion_02_mkdv_dichotomy():
    with Budget("criterion 2: mKdV dichotomy", 60):
        rng = np.random.default_rng(102)
        foc, defoc = mkdv_spec(+1), mkdv_spec(-1)
        for p in sample_mkdv_focusing_cnoidal(rng, 50):
            assert classify(foc, p).classification == "unstable"
            assert mkdv_root_classifier(p.a, p.E, p.c, +1) == "unstable-2-real-2-complex"
        for p in sample_mkdv_focusing_dnoidal(rng, 50):
            assert classify(foc, p).classification == "stable"
            assert mkdv_root_classifier(p.a, p.E, p.c, +1) == "stable-4-real-roots"
        for p in sample_mkdv_defocusing(rng, 50):
            assert classify(defoc, p).classification == "stable"
            assert mkdv_root_classifier(p.a, p.E, p.c, -1) == "stable-4-real-roots"


def test_criterion_03_schamel_stable():
    with Budget("criterion 3: Schamel stability", 60):
        rng = np.random.default_rng(103)
        spec = schamel_spec()
        for p, br in sample_schamel(rng, 50):
            rep = classify(spec, p, branch=br)
            assert rep.classification == "stable" and rep.delta_mi > 0


def test_criterion_04_bo_closed_forms():
    with Budget("criterion 4: BO closed forms", 10):
        for k in np.linspace(0.2, 3.0, 50):
            for c in np.linspace(-(k + 4.0), -(k + 0.05), 50):
                D, eigs = bo_dispersion_matrix(float(k), float(c))
                num = np.sort(np.linalg.eigvals(D).real)
                assert np.max(np.abs(num - eigs)) < 1e-10 * max(1.0, np.max(np.abs(eigs)))
        rng = np.random.default_rng(104)
        for _ in range(200):
            k = rng.uniform(0.2, 3.0)
            c = rng.uniform(-4.0 - k, -0.05 - k)
            a = rng.uniform(-1.0, (c * c - k * k) / 4.0 * 0.9)
            p = BOWaveParams(a, k, c)
            MP = bo_conserved(p)[2]
            expect = 2.0 * np.pi ** 2 / (k * np.sqrt(c * c - 4 * a))
            assert abs(MP - expect) < 1e-12 * expect


def test_criterion_05_whitham_cutoff():
    with Budget("criterion 5: Whitham Benjamin-Feir cutoff", 5):
        kstar, bracket = benjamin_feir_cutoff(whitham_symbol())
        assert 1.145 <= kstar <= 1.147
        assert bracket[0] <= kstar <= bracket[1]


def test_criterion_06_fkdv_threshold():
    with Budget("criterion 6: fKdV threshold", 1):
        for al in (0.6, 0.8, 0.95):
            assert lambda_fkdv(1.0, al) < 0
        for al in (1.05, 1.5, 2.0):
            assert lambda_fkdv(1.0, al) > 0
        assert abs(lambda_fkdv(1.0, 1.0)) < 1e-14


def test_criterion_07_ilw_positivity():
    with Budget("criterion 7: ILW positivity", 5):
        zs = np.linspace(1e-2, 10.0, 1000)
        assert np.all(gamma_ilw(zs) > 0)
        for k in np.linspace(0.25, 5.0, 20):
            for H in np.linspace(0.25, 5.0, 20):
                assert delta_ilw(float(k), float(H)) > 0


def test_criterion_08_oracle_equivalence():
    with Budget("criterion 8: Picard-Fuchs vs finite differences", 120):
        rng = np.random.default_rng(108)
        kdv = kdv_spec()
        for p in sample_kdv(rng, 50):
            J = param_jacobian(kdv, p)
            Jfd = fd_jacobian(kdv, p)
            err = np.abs(J.J - Jfd) / np.maximum(np.abs(Jfd), 1e-3)
            assert np.max(err) < 1e-6
        foc, defoc = mkdv_spec(+1), mkdv_spec(-1)
        pts = (sample_mkdv_focusing_cnoidal(rng, 17)
               + sample_mkdv_focusing_dnoidal(rng, 16)
               + sample_mkdv_defocusing(rng, 17))
        specs = [foc] * 33 + [defoc] * 17
        for spec, p in zip(specs, pts):
            J = param_jacobian(spec, p)
            Jfd = fd_jacobian(spec, p)
            err = np.abs(J.J - Jfd) / np.maximum(np.abs(Jfd), 1e-3)
            assert np.max(err) < 1e-6


def _slope_check(measured, predicted):
    return match_slope_sets(measured, predicted) / np.max(np.abs(predicted))


def _truncation_check(assembler_small, assembler_big, xi=5e-3):
    """Drift of the three eigenvalues nearest 0 between two truncations,
    paired by the best permutation (their order is set by rounding noise)."""
    evs = []
    for asm in (assembler_small, assembler_big):
        ev = asm(xi).eigenvalues()
        evs.append(ev[np.argsort(np.abs(ev))[:3]])
    return match_slope_sets(*evs)


def test_criterion_09_theory_spectrum_agreement():
    with Budget("criterion 9: theory vs Bloch spectrum", 300):
        kdv = kdv_spec()
        pk = kdv_params_from_roots(3.0, 1.0, 0.0)
        foc = mkdv_spec(+1)
        cases = [
            ("kdv cnoidal", kdv, pk, 0),
            ("mkdv focusing cnoidal", foc, WaveParams(0.0, 0.5, -1.0), 0),
            ("mkdv dnoidal", foc, WaveParams(0.0, -0.5, -1.0), 1),
            ("schamel", schamel_spec(), schamel_params_from_interval(0.6, 1.2, -1.0), 0),
        ]
        for name, spec, p, br in cases:
            prof = resolve_profile(spec, p, branch=br)
            measured = modulation_slopes(local_assembler(prof, N=48))
            predicted = modulation_slope_prediction(moment_jacobian(prof.moments))
            rel = _slope_check(measured, predicted)
            assert rel < 1e-3, f"{name}: slope mismatch {rel:.2e}"
            conv = _truncation_check(exact_local_assembler(prof, 48),
                                     exact_local_assembler(prof, 96))
            assert conv < 1e-8, f"{name}: truncation drift {conv:.2e}"
        bop = BOWaveParams(0.0, 1.0, -2.0)
        measured = modulation_slopes(bo_assembler(bop, N=96))
        predicted = bo_modulation_speeds(bop).astype(complex)
        rel = _slope_check(measured, predicted)
        assert rel < 1e-3, f"bo: slope mismatch {rel:.2e}"
        conv = _truncation_check(exact_bo_assembler(bop, 96), exact_bo_assembler(bop, 192))
        assert conv < 1e-8, f"bo: truncation drift {conv:.2e}"


def test_criterion_10_smallamp_discriminant():
    with Budget("criterion 10: small-amplitude discriminant", 60):
        sym = whitham_symbol()
        for k in (1.0, 2.0):
            for xi in (1e-2, 1e-3):
                d = delta_discriminant(k, 0.0, xi, sym)
                prod = delta_constant_state(k, xi, sym)
                assert abs(d - prod) < 1e-10 * abs(prod)
        for sym, ks in ((whitham_symbol(), np.linspace(0.3, 3.0, 20)),
                        (fkdv_symbol(0.75), np.linspace(0.3, 2.5, 20)),
                        (ilw_symbol(1.0), np.linspace(0.3, 3.0, 20))):
            for k in ks:
                lam = lambda_index(float(k), sym)[0]
                orc = lambda_oracle(float(k), sym)
                assert np.sign(lam) == np.sign(orc), f"{sym.name} k={k}"


def test_criterion_11_invariant_suites():
    with Budget("criterion 11: invariant suites", 60):
        kdv = kdv_spec()
        rng = np.random.default_rng(111)
        # profile evenness
        for p in sample_kdv(rng, 5):
            prof = resolve_profile(kdv, p)
            zs = np.linspace(0.05, 2.5, 11)
            assert np.max(np.abs(prof(zs) - prof(-zs))) < 1e-10
        # depressed-cubic trace condition
        for p in sample_kdv(rng, 10):
            nus = effective_dispersion_roots(param_jacobian(kdv, p))
            assert abs(np.sum(nus)) < 1e-10 * np.max(np.abs(nus))
        # spectral reflection symmetries
        prof = resolve_profile(kdv, kdv_params_from_roots(3.0, 1.0, 0.0))
        xi = 0.05
        by_imag = lambda ev: ev[np.argsort(ev.imag)]
        ev_p = by_imag(assemble_local(prof, xi, 40).eigenvalues())
        ev_m = by_imag(np.conj(assemble_local(prof, -xi, 40).eigenvalues()))
        scale = np.max(np.abs(ev_p))
        assert np.max(np.abs(ev_p - ev_m)) < 1e-8 * scale
        assert np.max(np.abs(ev_p - by_imag(-np.conj(ev_p)))) < 1e-8 * scale
        # root-map round trips
        for _ in range(20):
            g = rng.uniform(-2.0, 0.0)
            b = g + rng.uniform(0.3, 2.0)
            al = b + rng.uniform(0.3, 2.0)
            p = kdv_params_from_roots(al, b, g)
            roots, _ = potential_roots(potential_polynomial(kdv, p))
            assert np.max(np.abs(roots - np.array([g, b, al]))) < 1e-10
