"""symcap: exact symplectic capacities of toric domains.

Everything is exact rational arithmetic (`fractions.Fraction`); the only
non-rational value is the +inf sentinel for cylinder factors.
"""
