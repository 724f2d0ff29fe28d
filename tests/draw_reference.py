"""The sweep draw as it was before each family drew by its own record.

``runner.draw_symbols`` hands the draw to the family's ``Family.draw``.
This module keeps the draw as one function that tests each family's name,
with its own copy of the default ranges, so the tests compare the two on
seeded draws dict for dict: every generator call in the same order, and
every drawn field the same float.
"""

from cswcd.errors import ConfigError
from cswcd.rng import SplitMix64
from cswcd.symbols import _family_phi, bounded_sufficient, sup_norm_lft

MAX_REJECTIONS = 10**5
RANGE_DEFAULTS = {
    "abs_a": (0.5, 1.5),
    "abs_b": (0.1, 0.6),
    "abs_c": (0.0, 0.5),
    "abs_p": (0.1, 0.6),
}
GENERAL_MIN_ABS_C = 0.05


def _range(symbols: dict, key: str) -> tuple:
    value = symbols.get("ranges", {}).get(key)
    if value is None:
        return RANGE_DEFAULTS[key]
    return float(value[0]), float(value[1])


def draw_reference(symbols: dict, rng: SplitMix64) -> dict:
    """Concrete family parameters inside the admissible region, drawn as
    ``runner.draw_symbols`` drew them."""
    family = symbols["family"]
    a_lo, a_hi = _range(symbols, "abs_a")
    b_lo, b_hi = _range(symbols, "abs_b")
    c_lo, c_hi = _range(symbols, "abs_c")
    p_lo, p_hi = _range(symbols, "abs_p")

    def as_pair(z: complex):
        return [z.real, z.imag]

    for _ in range(MAX_REJECTIONS):
        draw = dict(symbols)
        if family in ("j-symmetric", "wc-conjugated", "rotation-conjugated"):
            a = rng.complex_annulus(a_lo, a_hi)
            b = rng.complex_annulus(b_lo, b_hi)
            c = rng.complex_annulus(c_lo, c_hi)
            if not bounded_sufficient(b, c):
                continue
            draw.update({"a": as_pair(a), "b": as_pair(b), "c": as_pair(c)})
            if family == "wc-conjugated":
                draw["p"] = as_pair(rng.complex_annulus(p_lo, p_hi))
                draw["lambda_u"] = as_pair(rng.unimodular())
            if family == "rotation-conjugated":
                draw["mu"] = as_pair(rng.unimodular())
                draw["lam"] = as_pair(rng.unimodular())
        elif family in ("self-adjoint", "general"):
            if family == "self-adjoint":
                a = complex(rng.real_signed(a_lo, a_hi))
                b = complex(rng.real_signed(b_lo, b_hi))
                c = rng.complex_annulus(c_lo, c_hi)
            else:
                branch = rng.choice(("b-real", "c-zero", "free"))
                a = rng.complex_annulus(a_lo, a_hi)
                if branch == "b-real":
                    b = complex(rng.real_signed(b_lo, b_hi))
                    c = rng.complex_annulus(max(c_lo, GENERAL_MIN_ABS_C), c_hi)
                elif branch == "c-zero":
                    b = rng.complex_annulus(b_lo, b_hi)
                    c = 0j
                else:
                    b = rng.complex_annulus(b_lo, b_hi)
                    c = rng.complex_annulus(max(c_lo, GENERAL_MIN_ABS_C), c_hi)
            if not sup_norm_lft(_family_phi(b, c.conjugate(), c)) < 0.95:
                continue
            draw.update({"a": as_pair(a), "b": as_pair(b), "c": as_pair(c)})
        elif family == "normal-origin":
            draw.update(
                {
                    "a": as_pair(rng.complex_annulus(a_lo, a_hi)),
                    "b": as_pair(rng.complex_annulus(0.1, 0.9)),
                }
            )
        elif family == "unitary":
            draw.update(
                {
                    "p": as_pair(rng.complex_annulus(p_lo, p_hi)),
                    "lambda_u": as_pair(rng.unimodular()),
                }
            )
        else:
            raise ConfigError("symbols.family", f"family {family!r} cannot be swept")
        return draw
    raise ConfigError("symbols",
                      f"admissible region looks empty after {MAX_REJECTIONS} rejections")
