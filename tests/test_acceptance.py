"""Acceptance suite.

Every criterion below is exact (rational arithmetic, zero tolerance) and
prints a single pass or fail line; run with ``pytest tests/test_acceptance.py
-v -s`` to see them.  Criteria 5 through 8 share one deterministic pool of
fifty regular ideals with n <= 8.
"""

import contextlib
import dataclasses
import itertools
import random
import time

from regfactor import (
    MinorSpec,
    all_invariants,
    build_diagram,
    check_invariance,
    close_ideal,
    column_max_permutation,
    crosscheck_symbols,
    inversions,
    is_extremal,
    minor_degree,
    minor_top,
    oracle_invariants,
    reflection_product,
    skew_rank_stats,
)
from helpers import (
    N7_CROSSES,
    N7_GRID_STEPS,
    N7_W,
    assert_unit_coefficients,
    grid,
    in_poly_span,
    jacobian_rank,
    n7_ideal,
    naive_minor,
    naive_top,
    poisson_bracket_generator,
    prime_point,
    random_ideal,
    random_ideals,
    y,
)

POOL_SEED = 20250810
POOL_SIZE = 50

_pool_cache: list = []
_analysis_cache: dict = {}


def pool():
    if not _pool_cache:
        _pool_cache.extend(random_ideals(POOL_SIZE, seed=POOL_SEED))
    return _pool_cache


def analysis(index):
    """Diagram and invariant records for one pool instance, computed once."""
    if index not in _analysis_cache:
        ideal = pool()[index]
        diagram = build_diagram(ideal)
        records = all_invariants(ideal)
        _analysis_cache[index] = (ideal, diagram, records)
    return _analysis_cache[index]


@contextlib.contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number} ({description}): PASS ({elapsed:.2f}s)")


def test_criterion_1_reference_diagram():
    with criterion(1, "n=7 diagram and step trace"):
        start = time.perf_counter()
        ideal = n7_ideal()
        diagram = build_diagram(ideal)
        for step, expected in enumerate(N7_GRID_STEPS):
            assert diagram.render(upto_step=step) == grid(expected)
        assert diagram.render() == grid(N7_GRID_STEPS[-1])
        assert diagram.crosses == N7_CROSSES
        assert diagram.counts() == (5, 12, 4)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_permutation_identities():
    with criterion(2, "permutation equals reflection product, length 17"):
        ideal = n7_ideal()
        w = column_max_permutation(ideal)
        assert w.images == N7_W
        assert reflection_product(7, N7_CROSSES) == w
        assert inversions(w) == 17 == ideal.dim
        brute = sum(
            1
            for a, b in itertools.combinations(range(7), 2)
            if N7_W[a] > N7_W[b]
        )
        assert brute == 17


def test_criterion_3_reference_invariants():
    with criterion(3, "n=7 invariants match, printed variant included"):
        ideal = n7_ideal()
        records = all_invariants(ideal)
        assert records[0].invariant == y(4, 1)
        assert records[1].invariant == y(6, 2)
        assert records[2].invariant == y(7, 3)
        p4 = y(6, 2) * (y(7, 4) * y(4, 1) + y(7, 3) * y(3, 1))
        assert records[3].invariant in (p4, -p4)
        p5 = (
            y(5, 2) * y(6, 3) * y(7, 4)
            - y(5, 2) * y(6, 4) * y(7, 3)
            - y(5, 3) * y(6, 2) * y(7, 4)
            + y(5, 4) * y(6, 2) * y(7, 3)
        )
        assert records[4].invariant in (p5, -p5)
        for record in records:
            assert_unit_coefficients(record.invariant)

        # the printed variant of the fourth minor: rows {2,3,4,7}
        spec = MinorSpec((2, 3, 4, 7), (1, 2, 3, 4))
        degree, top = minor_top(ideal, spec)
        assert top == y(7, 4) * y(4, 1) + y(7, 3) * y(3, 1)
        assert is_extremal(ideal, spec, degree)
        for i in range(1, 7):
            assert poisson_bracket_generator(i, top, ideal).is_zero
        probe = dataclasses.replace(records[3], invariant=top)
        assert check_invariance([probe], ideal, trials=100, seed=3).passed


def test_criterion_4_corner_minors_baseline():
    with criterion(4, "free factors n=3..6 yield the corner minors"):
        for n in range(3, 7):
            ideal = close_ideal(n, [])
            records = all_invariants(ideal)
            assert len(records) == n // 2
            corners = []
            for size in range(1, n // 2 + 1):
                rows = tuple(range(n - size + 1, n + 1))
                cols = tuple(range(1, size + 1))
                coeffs = naive_minor(ideal, rows, cols)
                assert len(coeffs) == 1
                corners.append(coeffs[0])
                assert is_extremal(ideal, MinorSpec(rows, cols))
            for record, corner in zip(records, corners):
                assert record.invariant in (corner, -corner)
                assert_unit_coefficients(record.invariant)
                assert record.extremal


def test_criterion_5_property_suite():
    with criterion(5, f"property suite over {POOL_SIZE} instances"):
        start = time.perf_counter()
        for index in range(len(pool())):
            ideal, diagram, records = analysis(index)
            crosscheck_symbols(ideal, diagram)
            assert len(records) == diagram.counts().crosses
            for record in records:
                t = record.xi[1]
                assert len(record.rows) == len(record.cols)
                assert record.cols == tuple(range(record.cols[0], t + 1))
                assert record.extremal
                assert_unit_coefficients(record.invariant)
                if record.case == 1:
                    assert record.degree == 0
                else:
                    assert record.degree == record.d_star
            report = check_invariance(records, ideal, trials=100, seed=POOL_SEED)
            assert report.passed, report.lines()
        assert time.perf_counter() - start < 60.0


def test_criterion_6_orbit_statistics():
    with criterion(6, "skew rank equals plus/minus count on every instance"):
        for index in range(len(pool())):
            ideal, diagram, _ = analysis(index)
            counts = diagram.counts()
            stats = skew_rank_stats(ideal)
            assert stats.max_rank == counts.plus_minus
            assert stats.corank == counts.crosses


def test_criterion_7_independence():
    with criterion(7, "Jacobian rank equals the cross count"):
        for index in range(len(pool())):
            ideal, _, records = analysis(index)
            point = prime_point(ideal)
            rank = jacobian_rank([r.invariant for r in records], point.coords)
            assert rank == len(records)


def test_criterion_8_oracle_containment():
    with criterion(8, "low-degree invariants lie in the oracle kernel"):
        start = time.perf_counter()
        small = [close_ideal(n, []) for n in range(2, 6)]
        small.extend(ideal for ideal in pool() if ideal.n <= 5)
        for ideal in small:
            records = all_invariants(ideal)
            low = [r.invariant for r in records if r.invariant.degree() <= 4]
            assert len(low) == len(records)  # n <= 5 keeps every degree low
            if not low:
                continue
            basis = oracle_invariants(ideal, max_degree=4)
            assert all(in_poly_span(basis, low))
        assert time.perf_counter() - start < 30.0


def _assert_kernel(ideal, rows, cols):
    """The kernel's degree and highest coefficient are the permutation sum's."""
    spec = MinorSpec(rows, cols)
    expected = naive_top(ideal, rows, cols)
    assert (minor_degree(ideal, spec), minor_top(ideal, spec)) == (expected[0], expected)


def test_criterion_9_determinant_oracle():
    with criterion(9, "minors agree with the permutation-sum oracle"):
        rng = random.Random(POOL_SEED)
        # exhaustive over every spec for n <= 5
        for n in range(2, 6):
            for ideal in (close_ideal(n, []), random_ideal(rng, n=n)):
                for size in range(1, n + 1):
                    for rows in itertools.combinations(range(1, n + 1), size):
                        for cols in itertools.combinations(range(1, n + 1), size):
                            _assert_kernel(ideal, rows, cols)
        # 500 random specs for n <= 8
        for _ in range(500):
            n = rng.randint(2, 8)
            ideal = random_ideal(rng, n=n)
            size = rng.randint(1, n)
            rows = tuple(sorted(rng.sample(range(1, n + 1), size)))
            cols = tuple(sorted(rng.sample(range(1, n + 1), size)))
            _assert_kernel(ideal, rows, cols)
