"""One Apéry element of the closed form, read off its coefficient tuple."""

from operator import mul

from grepunit import closed_form
from grepunit.arith import validate


def test_element_records_coefficients_and_length():
    # generators <40, 43, 52, 79>: the tuple (1, 0, 0) is one copy of 43
    params = validate(3, 3, 4)
    u = (1, 0, 0)
    assert u in closed_form.coefficient_tuples(params.b, params.n)
    assert sum(map(mul, u, params.generators()[1:])) == 43
    assert [k for k, group in enumerate(closed_form.apery_set(params)) if 43 in group] == [sum(u)]
