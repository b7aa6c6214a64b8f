"""Shared presentation builders used across the test suite.

All builders go through ``load_presentation_data`` so every test exercises
the same loading path as the CLI.
"""

from ncdim import GroebnerBasis, load_presentation_data


def ore_case_a() -> GroebnerBasis:
    # X2*X1 = 2*X1*X2 + 3*X2 + (X1^2 + X1), weights (1, 1)
    return load_presentation_data(
        {
            "variables": [{"name": "x1"}, {"name": "x2"}],
            "relations": ["x2*x1 - 2*x1*x2 - 3*x2 - x1^2 - x1"],
        }
    )


def ore_case_b() -> GroebnerBasis:
    # X2*X1 = 2*X1*X2 + 3*X2 + X1^3, weights (1, 3)
    return load_presentation_data(
        {
            "variables": [{"name": "x1"}, {"name": "x2", "weight": 3}],
            "relations": ["x2*x1 - 2*x1*x2 - 3*x2 - x1^3"],
        }
    )


def down_up() -> GroebnerBasis:
    # Down-up style presentation with all parameters 1 and grlex x2 < x1,
    # so the leading words are x1^2*x2 and x1*x2^2.
    return load_presentation_data(
        {
            "variables": [{"name": "x1"}, {"name": "x2"}],
            "order": {"kind": "grlex", "precedence": ["x2", "x1"]},
            "relations": [
                "x1^2*x2 - x1*x2*x1 - x2*x1^2 - x1",
                "x1*x2^2 - x2*x1*x2 - x2^2*x1 - x2",
            ],
        }
    )


def power_family(n: int) -> GroebnerBasis:
    # X2^n*X1 = 2*X1*X2^n + X1, weights (1, 1); leading word X2^n*X1.
    return load_presentation_data(
        {
            "variables": [{"name": "x1"}, {"name": "x2"}],
            "relations": [f"x2^{n}*x1 - 2*x1*x2^{n} - x1"],
        }
    )


def commutation(n: int) -> GroebnerBasis:
    # X_j*X_i - X_i*X_j for i < j: the commutative polynomial ring.
    names = [f"x{i + 1}" for i in range(n)]
    relations = [
        f"{names[j]}*{names[i]} - {names[i]}*{names[j]}"
        for j in range(n)
        for i in range(j)
    ]
    return load_presentation_data(
        {"variables": [{"name": name} for name in names], "relations": relations}
    )


def free_algebra(n: int) -> GroebnerBasis:
    names = [f"x{i + 1}" for i in range(n)]
    return load_presentation_data(
        {"variables": [{"name": name} for name in names], "relations": []}
    )


def nilpotent() -> GroebnerBasis:
    # One variable with x^2 = 0: the algebra spanned by 1 and x.
    return load_presentation_data(
        {"variables": [{"name": "x1"}], "relations": ["x1^2"]}
    )


def _pbw(names, lower) -> GroebnerBasis:
    # x_j*x_i - x_i*x_j + lower(i, j) for i < j, over unit weights
    relations = [
        f"{names[j]}*{names[i]} - {names[i]}*{names[j]} {lower(i, j)}"
        for j in range(len(names))
        for i in range(j)
    ]
    return load_presentation_data(
        {"variables": [{"name": name} for name in names], "relations": relations}
    )


def weyl(m: int) -> GroebnerBasis:
    # A_m on x1..xm, d1..dm: d_i*x_i - x_i*d_i = 1, all other pairs commute.
    names = [f"x{i + 1}" for i in range(m)] + [f"d{i + 1}" for i in range(m)]
    return _pbw(names, lambda i, j: "- 1" if j == i + m else "")


def heisenberg(m: int) -> GroebnerBasis:
    # p1..pm, q1..qm, z: q_i*p_i - p_i*q_i = z with z central.
    names = [f"p{i + 1}" for i in range(m)] + [f"q{i + 1}" for i in range(m)] + ["z"]
    return _pbw(names, lambda i, j: "- z" if i < m and j == i + m else "")


def sl2() -> GroebnerBasis:
    # U(sl2) on e < f < h: [e,f] = h, [h,e] = 2e, [h,f] = -2f.
    return load_presentation_data(
        {
            "variables": [{"name": "e"}, {"name": "f"}, {"name": "h"}],
            "relations": ["f*e - e*f + h", "h*e - e*h - 2*e", "h*f - f*h + 2*f"],
        }
    )
