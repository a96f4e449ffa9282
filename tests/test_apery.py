"""One Apéry element of the closed form, read off its coefficient tuple."""

from grepunit import closed_form
from grepunit.arith import validate


def test_element_records_coefficients_and_length():
    # generators <40, 43, 52, 79>: the tuple (1, 0, 0) is one copy of 43
    params = validate(3, 3, 4)
    values, lengths = closed_form.apery_set(params)
    i = closed_form.coefficient_tuples(params.b, params.n).index((1, 0, 0))
    assert values[i] == 43
    assert lengths[i] == 1
