"""The four coefficient families C, D, E, F and their independent cross-checks.

C multiplies structure-sheaf classes, D splits one class over a direct sum,
E multiplies boundary ideal-sheaf classes, and F splits those; F always equals
D.  Each number shown here is computed by counting rectifications, then
re-derived through a route that never slides a single box.
"""

from ktaquin.shapes import AmbientRectangle, DirectSumFrame
from ktaquin.coefficients import (
    coeff_C,
    coeff_D,
    coeff_D_buch,
    coeff_D_via_identity,
    coeff_E,
    coeff_E_via_C,
    coeff_F,
    expand_coproduct,
    expand_product,
)

lam, mu, nu = (2,), (2, 1), (3, 1)
frame = DirectSumFrame(1, 3, 2, 4)
print(f"splitting coefficient for {lam} (x) {mu} inside {nu}:")
print(f"  by rectification counting : {coeff_D(lam, mu, nu)}")
print(f"  by set-valued tableaux    : {coeff_D_buch(lam, mu, nu)}")
print(f"  by the direct-sum identity: {coeff_D_via_identity(lam, mu, nu, frame)}")
print(f"  ideal-sheaf splitting (F) : {coeff_F(lam, mu, nu)}")

print(f"\nideal-sheaf product constant for (1) * (1) -> (2,1):")
print(f"  by the rook-strip sum     : {coeff_E((1,), (1,), (2, 1))}")
print(f"  by marked fillings        : {coeff_E_via_C((1,), (1,), (2, 1))}")

print("\nfull product of the single-box class with itself in a 2x2 world:")
for basis in ("structure-sheaf", "ideal-sheaf"):
    table = expand_product((1,), (1,), AmbientRectangle(2, 4), basis)
    terms = " + ".join(f"{v}*[{','.join(map(str, shape))}]" for shape, v in sorted(table.items()))
    print(f"  {basis:16s}: {terms}")

print("\nsplitting the class of (3,1) over a (1,3)+(2,4) direct sum:")
for (a, b), v in sorted(expand_coproduct((3, 1), frame).items()):
    print(f"  {str(a):10s} (x) {str(b):10s} -> {v:+d}")

print(f"\nsanity: C[(1),(1)->(2,1)] = {coeff_C((1,), (1,), (2, 1))} (one filling, odd box excess)")
