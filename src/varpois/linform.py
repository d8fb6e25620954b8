"""Linear forms in unknown functions of x, with FieldElem coefficients.

A LinForm is sum c_{a,r} * D^r(p_a) over atoms a and derivative orders r,
where the p_a are unknown elements of the coefficient field.  They stand
for FieldElem values in the coefficients of differential polynomials and
lambda-polynomials (the generic unknowns of polydiff and complexes), so a
lambda-array computation applied to unknowns yields the linear
differential system the unknowns must satisfy; solve_linform_system reads
each LinForm as one row.  An operator's coefficients are never LinForms
(see ScalarDiffOp).
"""

from __future__ import annotations

from fractions import Fraction

from .field import CoefficientField, FieldElem, accumulate


class LinForm:
    __slots__ = ("field", "terms")

    def __init__(self, field: CoefficientField, terms: dict):
        self.field = field
        self.terms = terms

    @classmethod
    def atom(cls, field: CoefficientField, a, der: int = 0) -> "LinForm":
        return cls(field, {(a, der): field.one})

    @classmethod
    def zero(cls, field: CoefficientField) -> "LinForm":
        return cls(field, {})

    def _coerce_coeff(self, c):
        if isinstance(c, FieldElem):
            return c
        if isinstance(c, (int, Fraction)):
            return self.field.coerce(c)
        return None

    def __add__(self, other):
        if not isinstance(other, LinForm):
            if isinstance(other, (int, Fraction)) and other == 0:
                return self
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return LinForm(self.field, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LinForm(self.field, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        c = self._coerce_coeff(other)
        if c is None:
            raise TypeError("LinForm can only be scaled by field elements "
                            "(nonlinear product of unknowns)")
        if c.is_zero():
            return LinForm.zero(self.field)
        return LinForm(self.field, {k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def derive(self) -> "LinForm":
        out: dict = {}
        for (a, r), c in self.terms.items():
            dc = c.derive()
            if not dc.is_zero():
                accumulate(out, (a, r), dc)
            accumulate(out, (a, r + 1), c)
        return LinForm(self.field, out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, LinForm):
            return self.field == other.field and self.terms == other.terms
        if isinstance(other, (int, Fraction)) and other == 0:
            return self.is_zero()
        return NotImplemented

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.terms.items(),
                                              key=lambda kv: repr(kv[0])))))

    def __repr__(self):
        if not self.terms:
            return "LinForm(0)"
        bits = []
        for (a, r), c in sorted(self.terms.items(), key=lambda kv: repr(kv[0])):
            bits.append(f"({c!r})*D^{r}[{a}]")
        return "LinForm(" + " + ".join(bits) + ")"
