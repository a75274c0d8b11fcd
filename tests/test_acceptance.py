"""Acceptance gate: nine desk-scale checks, one printed verdict line each.

Each test prints exactly one line, ACCEPTANCE <n>: PASS/FAIL, on the real
stdout so the verdicts survive output capture.  Runtime budgets are part
of the criteria and are asserted where stated.
"""

import time
import warnings
from collections import Counter

import numpy as np
import pytest

from minkpack.bounds import (
    BoundQuery,
    Objective,
    corollary1_bound,
    corollary2_ratio_bound,
    density_bound_from_profile,
    minimize_bound_over_d0,
    theorem_lower_bound,
)
from minkpack.extremal import (
    convexify_flips,
    make_theorem_hexagon,
    max_triangle_area,
    profile,
    sorted_sides_area,
)
from minkpack.geometry import regular_ngon
from minkpack.oracle import grid_max_kgon, grid_max_triangle
from minkpack.packing import (
    Packing,
    Subdivision,
    build_subdivision,
    check_proposition,
    four_neighbour_lattice,
    measure_stats,
    mixed_strip_packing,
    neighbour_graph,
    six_neighbour_lattice,
    three_neighbour_honeycomb,
    validate_packing,
)
from minkpack.random_shapes import random_disc, random_unit_polygon


class Criterion:
    """Context manager that prints the verdict line and enforces the budget."""

    def __init__(self, capsys, n, budget=None):
        self.capsys = capsys
        self.n = n
        self.budget = budget
        self.msg = ""

    def __enter__(self):
        self.t0 = time.perf_counter()
        self.extra = 0.0
        return self

    def __exit__(self, etype, evalue, tb):
        dt = time.perf_counter() - self.t0 + self.extra
        if etype is not None:
            with self.capsys.disabled():
                print(f"\nACCEPTANCE {self.n}: FAIL - {etype.__name__}: {evalue} [{dt:.1f} s]")
            return False
        over = self.budget is not None and dt > self.budget
        with self.capsys.disabled():
            if over:
                print(f"\nACCEPTANCE {self.n}: FAIL - budget {self.budget:.0f} s exceeded [{dt:.1f} s]")
            else:
                print(f"\nACCEPTANCE {self.n}: PASS - {self.msg} [{dt:.1f} s]")
        if over:
            raise AssertionError(f"criterion {self.n} exceeded its {self.budget:.0f} s budget: {dt:.1f} s")


def test_criterion_1_square_profile_vs_frozen_oracle(capsys, square):
    with Criterion(capsys, 1, budget=10.0) as c:
        # frozen oracle values come first and arbitrate everything after
        frozen = {"f3": 0.5, "f4": 2.0, "f6": 4.0, "d0p": 1.0}
        o3 = grid_max_triangle(square, 1024)
        o4 = grid_max_kgon(square, 4, 1024)
        o6 = grid_max_kgon(square, 6, 512)
        assert o3 == pytest.approx(frozen["f3"], abs=1e-3)
        assert o4 == pytest.approx(frozen["f4"], abs=1e-3)
        assert o6 == pytest.approx(frozen["f6"], abs=2e-3)
        prof = profile(square)
        assert prof.delta == pytest.approx(o3, abs=1e-3)
        assert prof.f4 == pytest.approx(o4, abs=1e-3)
        assert prof.f6 == pytest.approx(o6, abs=2e-3)
        assert prof.delta == pytest.approx(frozen["f3"], abs=1e-3)
        assert prof.f4 == pytest.approx(frozen["f4"], abs=1e-3)
        assert prof.f6 == pytest.approx(frozen["f6"], abs=1e-3)
        assert prof.d0p == pytest.approx(frozen["d0p"], abs=1e-3)
        c.msg = (f"square profile delta={prof.delta:.6f} f4={prof.f4:.6f} "
                 f"f6={prof.f6:.6f} d0p={prof.d0p:.6f} matches frozen oracle")


def test_criterion_2_round_disc(capsys):
    with Criterion(capsys, 2, budget=30.0) as c:
        d = regular_ngon(96)
        delta = max_triangle_area(d)
        d0p = d.area / (8.0 * delta)
        assert delta == pytest.approx(np.sqrt(3.0) / 4.0, abs=5e-3)
        assert d0p == pytest.approx(np.pi / (2.0 * np.sqrt(3.0)), abs=5e-3)
        c.msg = (f"96-gon delta={delta:.6f} (target {np.sqrt(3)/4:.6f}), "
                 f"d0p={d0p:.6f} (target {np.pi/(2*np.sqrt(3)):.6f})")


def test_criterion_3_corollary_minimum(capsys):
    with Criterion(capsys, 3) as c:
        assert corollary1_bound(5.0) == 9.0 / 14.0
        d0_star, val = minimize_bound_over_d0(5.0, Objective.BOUND)
        assert val == pytest.approx(9.0 / 14.0, abs=1e-8)
        assert d0_star == pytest.approx(0.75, abs=1e-4)
        c.msg = f"corollary1(5) = 9/14 exactly; numeric minimum {val:.10f} at d0p={d0_star:.6f}"


def test_criterion_4_seams_and_corollary_agreement(capsys):
    with Criterion(capsys, 4) as c:
        # branch seam at d0p = 7/8, scanned over lambda
        worst_seam = 0.0
        d0_lo = 0.875
        d0_hi = np.nextafter(0.875, 1.0)
        for lam in np.linspace(3.0, 6.0, 700):
            a = theorem_lower_bound(lam, d0_lo).value
            b = theorem_lower_bound(lam, d0_hi).value
            worst_seam = max(worst_seam, abs(a - b))
        # branch seam at lambda = 4, scanned over d0p
        lam_lo = np.nextafter(4.0, 3.0)
        for d0 in np.linspace(0.75, 1.0, 300):
            a = theorem_lower_bound(lam_lo, d0).value
            b = theorem_lower_bound(4.0, d0).value
            worst_seam = max(worst_seam, abs(a - b))
        assert worst_seam <= 1e-12
        worst_cor = 0.0
        for lam in np.linspace(3.0, 6.0, 601):
            _, v1 = minimize_bound_over_d0(lam, Objective.BOUND)
            _, v2 = minimize_bound_over_d0(lam, Objective.RATIO)
            worst_cor = max(worst_cor, abs(v1 - corollary1_bound(lam)),
                            abs(v2 - corollary2_ratio_bound(lam)))
        assert worst_cor <= 1e-9
        c.msg = (f"1000 seam points discrepancy <= {worst_seam:.2e}; "
                 f"601-point corollary agreement <= {worst_cor:.2e}")


def test_criterion_5_random_disc_inequalities(capsys, random_disc_profiles):
    with Criterion(capsys, 5, budget=600.0) as c:
        c.extra = random_disc_profiles.build_seconds
        n_hex = 0
        for d, prof in random_disc_profiles:
            assert prof.f3 == prof.delta
            assert prof.f4 <= prof.area - 4.0 * prof.delta + 1e-6
            assert prof.f5 <= 0.5 * (prof.f4 + prof.f6) + 1e-6
            assert prof.f6 <= prof.area + 1e-6
            if len(d.vertices) <= 6:
                n_hex += 1
                assert prof.f6 == pytest.approx(prof.area, abs=1e-6)
        assert len(random_disc_profiles) == 200
        c.msg = (f"200 random discs satisfy the extremal chain; "
                 f"{n_hex} hexagon-class discs reach f6 = area")


# equality cases: (lambda, d0p) -> builder recipe
_EQUALITY = [(lam, d0p) for lam in (3.0, 4.0, 5.0, 6.0) for d0p in (0.75, 0.875, 1.0)]


def _equality_builder(d, lam, d0p):
    if lam == 6.0:
        return lambda extent: six_neighbour_lattice(d, extent=extent)
    if lam == 3.0:
        return lambda extent: three_neighbour_honeycomb(d, extent=extent)
    if lam == 4.0 and d0p >= 0.875 - 1e-9:
        return lambda extent: four_neighbour_lattice(d, extent=extent)
    if d0p < 0.875 - 1e-9:
        f_six = (lam - 3.0) / 3.0
        return lambda extent: mixed_strip_packing(
            d, "six", "honeycomb", f_six, strip_width=4, extent=extent)
    width = 3 if d0p >= 1.0 - 1e-9 else 4
    return lambda extent: mixed_strip_packing(
        d, "six", "four", 0.5, strip_width=width, extent=extent)


def _sized(build, R):
    extent = 24
    for _ in range(10):
        p = build(extent)
        cov = float(p.generator["covered_radius"])
        if cov >= R * 1.02:
            return p
        grow = R * 1.1 / max(cov, 1e-9)
        extent = max(extent + 8, int(extent * grow) + 4)
    raise AssertionError(f"generator never covered window radius {R}")


def test_criterion_6_equality_cases(capsys):
    # center counting in a circular window oscillates around the limit, so
    # the doubling check compares slack envelopes sampled over a radius band
    # at each scale rather than two isolated radii
    band = np.linspace(0.6, 1.0, 9)
    with Criterion(capsys, 6, budget=300.0 * 12) as c:
        worst_lam = worst_dens = 0.0
        for lam, d0p in _EQUALITY:
            t_case = time.perf_counter()
            d = make_theorem_hexagon(d0p)
            R = 50.0 * d.diameter
            p = _sized(_equality_builder(d, lam, d0p), 2.0 * R)
            assert validate_packing(p)["ok"], f"case ({lam}, {d0p}) invalid"
            bound = theorem_lower_bound(lam, d0p).value
            full = measure_stats(p, R)
            err_lam = abs(full.lambda_hat - lam)
            err_dens = abs(full.density_hat - bound)
            assert err_lam <= 0.05, f"case ({lam}, {d0p}): lambda_hat {full.lambda_hat}"
            assert err_dens <= 0.02 * bound, f"case ({lam}, {d0p}): density {full.density_hat} vs {bound}"
            env_R = max(abs(measure_stats(p, f * R).density_hat - bound) for f in band)
            env_2R = max(abs(measure_stats(p, f * 2.0 * R).density_hat - bound) for f in band)
            assert env_2R <= env_R + 1e-12, \
                f"case ({lam}, {d0p}): slack envelope grew when the window doubled"
            dt_case = time.perf_counter() - t_case
            assert dt_case <= 300.0, f"case ({lam}, {d0p}) took {dt_case:.1f} s"
            worst_lam = max(worst_lam, err_lam)
            worst_dens = max(worst_dens, err_dens / bound)
        c.msg = (f"12 equality cases at R = 50 diam: worst lambda error {worst_lam:.4f}, "
                 f"worst density slack {100 * worst_dens:.3f}%, envelope shrinks at 2R")


def _slid_row_packing(rng):
    """Six-lattice of an equality hexagon with every row slid at random.

    Flat tops make adjacent rows touch for any horizontal offset up to 2w,
    and overlap never occurs, so arbitrary slides stay valid packings.
    """
    d0p = float(rng.uniform(0.755, 0.995))
    d = make_theorem_hexagon(d0p)
    rows = []
    for r in range(-8, 9):
        phase = rng.uniform(0.0, 2.0)
        xs = phase + 2.0 * np.arange(-10, 11)
        rows.append(np.column_stack([xs, np.full_like(xs, 2.0 * r)]))
    return Packing(disc=d, centers=np.vstack(rows))


def _jittered_honeycomb(rng):
    d0p = float(rng.uniform(0.755, 0.995))
    d = make_theorem_hexagon(d0p)
    p = three_neighbour_honeycomb(d, extent=7)
    jitter = rng.uniform(-1e-10, 1e-10, size=p.centers.shape) * d.diameter
    return Packing(disc=d, centers=p.centers + jitter)


def test_criterion_7_proposition(capsys, hexagon_34, hexagon_78, square):
    with Criterion(capsys, 7) as c:
        # every generator output in this basket obeys the six-side cap
        basket = []
        for d in (hexagon_34, hexagon_78, square):
            basket += [six_neighbour_lattice(d, extent=12),
                       four_neighbour_lattice(d, extent=12),
                       three_neighbour_honeycomb(d, extent=12)]
        basket.append(mixed_strip_packing(hexagon_78, "six", "four", 0.5,
                                          strip_width=4, extent=50))
        basket.append(mixed_strip_packing(hexagon_34, "six", "honeycomb", 0.5,
                                          strip_width=4, extent=50))
        basket.append(mixed_strip_packing(square, "four", "honeycomb", 0.5,
                                          strip_width=4, extent=50))
        for p in basket:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ok, bad = check_proposition(build_subdivision(p))
            assert ok, f"generated packing has cells with more than six sides: {bad}"
        # 100 perturbed valid packings of non-parallelogram hexagons
        rng = np.random.default_rng(42)
        for i in range(100):
            p = _slid_row_packing(rng) if i % 10 < 7 else _jittered_honeycomb(rng)
            assert validate_packing(p)["ok"], f"perturbed packing {i} invalid"
            ok, bad = check_proposition(build_subdivision(p))
            assert ok, f"perturbed packing {i} fails the cap: cells {bad}"
        # a hand-built seven-sided interior cell must be flagged
        ang = 2.0 * np.pi * np.arange(7) / 7.0
        seven = Subdivision(
            faces=[np.column_stack([np.cos(ang), np.sin(ang)])],
            sides=np.array([7]),
            areas=np.array([3.0]),
            boundary=np.array([False]),
            vertex_count=7,
            disc=hexagon_78,
            max_radius=np.array([1.0]),
        )
        ok, bad = check_proposition(seven)
        assert not ok and bad == [0]
        c.msg = (f"{len(basket)} generated + 100 perturbed packings all obey the "
                 f"six-side cap; hand-built 7-gon cell rejected")


def test_criterion_8_bound_reassembly(capsys, random_disc_profiles):
    with Criterion(capsys, 8) as c:
        lams = np.linspace(3.0, 6.0, 13)
        worst = 0.0
        for d, prof in random_disc_profiles[:50]:
            for lam in lams:
                direct = theorem_lower_bound(lam, prof.d0p).value
                pieces = density_bound_from_profile(prof, lam)
                worst = max(worst, abs(direct - pieces))
        assert worst <= 1e-9
        c.msg = f"50 discs x 13 lambdas: reassembled bound deviates <= {worst:.2e}"


def test_criterion_9_flip_convexification(capsys):
    with Criterion(capsys, 9) as c:
        rng = np.random.default_rng(99)
        n_done = 0
        worst = 0.0
        while n_done < 500:
            d = random_disc(rng)
            k = int(rng.integers(4, 11))
            try:
                p = random_unit_polygon(d, k, rng)
            except Exception:
                continue
            target = sorted_sides_area(p.sides)
            q = convexify_flips(p)  # raises if the flip cap is exhausted
            assert q.area >= p.area - 1e-12
            gap = abs(q.area - target)
            assert gap <= 1e-9 * max(1.0, target)
            before = Counter(tuple(round(x, 8) for x in row) for row in p.sides)
            after = Counter(tuple(round(x, 8) for x in row) for row in q.sides)
            assert before == after
            worst = max(worst, gap)
            n_done += 1
        c.msg = (f"500 random polygons convexified: side multisets preserved, "
                 f"areas reach the angle-sorted optimum within {worst:.2e}")
