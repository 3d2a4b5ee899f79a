"""H-rep parsing, serialization, and the two-variable profile."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import permuted
from li2poly import constructors
from li2poly.model import (Constraint, FamilyTag, HPolytope, LI2Profile,
                           li2_profile, parse_hrep, serialize_hrep)


def test_parse_basic():
    p = parse_hrep("2 2\n1 0 1\n0 1 1")
    assert (p.n, p.dim) == (2, 2)
    assert p.constraints[0].coeffs == (Fraction(1), Fraction(0))
    assert p.constraints[1].rhs == 1


def test_parse_fraction_entry():
    p = parse_hrep("1 1\n1/3 2")
    assert p.constraints[0].coeffs == (Fraction(1, 3),)


def test_parse_bytes_and_comments():
    p = parse_hrep(b"# family: pstar n=8 d=4\n# another comment\n2 2\n1 0 1\n0 1 1\n")
    assert p.family is not None and p.family.name == "pstar"
    assert (p.family.n, p.family.d) == (8, 4)


def test_blank_lines_and_comments_between_rows_are_skipped():
    spaced = "\n2 2\n\n# between rows\n1 0 1\n   \n0 1 1\n\n"
    assert parse_hrep(spaced) == parse_hrep("2 2\n1 0 1\n0 1 1\n")
    # Skipped lines still count toward the line a message names.
    with pytest.raises(ValueError, match=r"^line 4: malformed rational '1\.5'$"):
        parse_hrep("1 1\n\n# between rows\n1.5 2")


def test_parse_missing_rhs_errors_with_line():
    with pytest.raises(ValueError) as err:
        parse_hrep("2 2\n1 0 1\n0 1")
    assert str(err.value) == ("line 3: expected 2 coefficients and one right-hand side, "
                              "got 2 fields")


def test_parse_malformed_rational():
    with pytest.raises(ValueError, match=r"^line 2: malformed rational '1\.5'$"):
        parse_hrep("1 1\n1.5 2")
    with pytest.raises(ValueError, match=r"^line 2: malformed rational '1/-2'$"):
        parse_hrep("1 1\n1/-2 2")


def test_parse_zero_denominator_names_line_and_token():
    with pytest.raises(ValueError) as err:
        parse_hrep("1 1\n1 1/0")
    assert str(err.value) == "line 2: zero denominator in '1/0'"


def test_parse_trailing_data_rejected():
    with pytest.raises(ValueError,
                       match=r"^line 3: trailing data after the declared constraint rows$"):
        parse_hrep("1 2\n1 0 1\n0 1 1")


def test_parse_missing_rows_rejected():
    with pytest.raises(ValueError, match=r"^expected 3 constraint rows, found 2$"):
        parse_hrep("3 2\n1 0 1\n0 1 1")


def test_serialize_normalizes():
    p = HPolytope(1, (Constraint((Fraction(2, 4),), Fraction(6, 2)),))
    assert serialize_hrep(p).splitlines()[1] == "1/2 3"


def test_serialize_integers_without_denominator():
    p = HPolytope(2, (Constraint((Fraction(3), Fraction(-2)), Fraction(7)),))
    assert serialize_hrep(p).splitlines()[1] == "3 -2 7"


def test_round_trip_pstar_12_6():
    p = constructors.pstar(12, 6)
    again = parse_hrep(serialize_hrep(p))
    assert again == p  # labels are compare-excluded; rows and family survive


def test_round_trip_awkward_entries():
    rows = [
        [Fraction(-7, 3), Fraction(10 ** 12), Fraction(0), Fraction(1, 9999)],
        [Fraction(5), Fraction(-1, 2), Fraction(3, 7), Fraction(-10 ** 9)],
    ]
    p = HPolytope(3, tuple(
        Constraint(tuple(r[:3]), r[3]) for r in rows))
    assert parse_hrep(serialize_hrep(p)) == p


@settings(max_examples=50)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=997),
             min_size=d + 1, max_size=d + 1),
    min_size=0, max_size=6).map(lambda rows: (d, rows))))
def test_round_trip_is_exact(case):
    d, rows = case
    p = HPolytope(d, tuple(Constraint(tuple(r[:d]), r[d]) for r in rows))
    assert parse_hrep(serialize_hrep(p)) == p


def test_profile_pstar():
    prof = li2_profile(constructors.pstar(12, 6))
    assert prof.is_li2
    assert prof.n_prime == 12
    assert prof.single_var_count == 0
    assert prof.pair_counts == {(0, 1): 4, (2, 3): 4, (4, 5): 4}


def test_profile_dual_cyclic_dense():
    prof = li2_profile(constructors.dual_cyclic(8, 4))
    assert not prof.is_li2


def test_profile_prism():
    prof = li2_profile(constructors.prism3(8))
    assert prof.is_li2
    assert prof.n_prime == 6
    assert prof.single_var_count == 2
    assert prof.pair_counts == {(0, 1): 6}


def test_profile_buckets_partition_rows():
    for p in (constructors.pstar(8, 4), constructors.prism3(6),
              constructors.dual_cyclic(6, 3), constructors.pstar(7, 5)):
        prof = li2_profile(p)
        dense = sum(1 for c in p.constraints
                    if sum(1 for a in c.coeffs if a != 0) > 2)
        assert prof.n_prime + prof.single_var_count + dense == p.n


def test_permuted_preserves_rows():
    p = constructors.prism3(6)
    q = permuted(p, list(reversed(range(p.n))))
    assert q.constraints == tuple(reversed(p.constraints))


def test_serialize_after_parse_reproduces_canonical_text():
    text = "3 2\n1 0 1\n0 1/2 1\n-1 -1 0\n"
    assert serialize_hrep(parse_hrep(text)) == text
    # Non-canonical spacing and entries normalize, nothing else changes.
    messy = "  3   2\n1 0 1\n0 2/4 1\n-1 -1 0\n"
    assert serialize_hrep(parse_hrep(messy)) == text


def test_unrecognized_family_comment_is_ignored():
    p = parse_hrep("# family: mysteryshape n=3 d=2\n1 2\n1 0 1\n")
    assert p.family is None
    # Non-ASCII digits leave the tag a plain comment, as in the rows below.
    p = parse_hrep("# family: pstar n=٣ d=2\n1 2\n1 0 1\n")
    assert p.family is None


# '²' passes str.isdigit, but int() rejects it; '٣' is a decimal digit that
# int() and Fraction() read as 3, which serialize_hrep would write as '3'.
# With ASCII digits only, the header's one range error is d = 0, and a
# malformed header and d = 0 break the same rule.
HEADER_RULE = "header must be 'n d' with integers n >= 0 and d >= 1"
NON_ASCII_DIGITS = {
    "superscript_header": ("1 ²\n1 1\n", 1, HEADER_RULE),
    "arabic_indic_entry": ("1 1\n٣ 1\n", 2, "malformed rational '٣'"),
    "zero_dimension_header": ("0 0\n", 1, HEADER_RULE),
}


@pytest.mark.parametrize("name", NON_ASCII_DIGITS)
def test_parse_rejects_non_ascii_digits(name):
    text, line, message = NON_ASCII_DIGITS[name]
    with pytest.raises(ValueError) as err:
        parse_hrep(text)
    assert str(err.value) == f"line {line}: {message}"


def test_constraint_and_polytope_values_ignore_labels():
    one, two = Fraction(1), Fraction(2)
    a = Constraint((one, two), one)
    b = Constraint(coeffs=(one, two), rhs=one)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != Constraint((one, two), two) and a != Constraint((two, one), one)
    p, q = HPolytope(2, (a, b)), HPolytope(2, (b, a), None)
    assert p == q and not p != q and hash(p) == hash(q) and len({p, q}) == 1
    assert p.n == 2 and p.family is None
    tagged = HPolytope(2, (a, b), FamilyTag("pstar", 2, 2))
    assert tagged != p and tagged.family.comment() == "# family: pstar n=2 d=2"
    assert HPolytope(2, (a,)) != p
    with pytest.raises(AttributeError):
        p.dim = 3
    with pytest.raises(AttributeError):
        a.rhs = two


def test_polytope_validates_dimension_and_row_widths():
    row = Constraint((Fraction(1), Fraction(0)), Fraction(1))
    for dim in (0, -1):
        with pytest.raises(ValueError, match="ambient dimension must be positive"):
            HPolytope(dim, ())
    with pytest.raises(ValueError, match="constraint dimension mismatch"):
        HPolytope(3, (row,))
    with pytest.raises(ValueError, match="constraint dimension mismatch"):
        HPolytope(dim=2, constraints=(row, Constraint((Fraction(1),), Fraction(1))))
    assert HPolytope(1, ()).n == 0


@pytest.mark.parametrize("record, fields", [
    (FamilyTag, ("name", "n", "d")),
    (Constraint, ("coeffs", "rhs")),
    (HPolytope, ("dim", "constraints", "family")),
    (LI2Profile, ("is_li2", "n_prime", "pair_counts", "single_var_count")),
], ids=lambda x: x.__name__ if isinstance(x, type) else "")
def test_records_keep_positional_fields(record, fields):
    assert record._fields == fields
    values = [{"coeffs": (Fraction(1),), "constraints": ()}.get(f, 1) for f in fields]
    built = record(*values)
    assert [getattr(built, f) for f in fields] == values
    assert built == record(**dict(zip(fields, values)))
    assert not hasattr(record, "__dataclass_fields__")
