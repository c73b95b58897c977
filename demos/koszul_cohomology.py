"""Cohomology of the chiralized Koszul complex of x^m.

The carrier is the free-field vertex algebra of one even coordinate x
and one odd coordinate xi together with their conjugate momenta; the
differential is the zero mode of the odd current x(z)^m d_xi(z).  The
extra charge grading (x has charge 1, xi charge m) makes each
(weight, charge) cell a finite-dimensional complex over Q, so all
dimensions below are exact.

At weight zero the complex collapses to the classical Koszul complex of
x^m and the cohomology is spanned by the classes of 1, x, ..., x^{m-1}.
Higher-weight dimensions are printed with their Euler-characteristic
consistency check.
"""

from chiralis.koszul import ChiralKoszul, euler_lines


def main() -> None:
    for m in (1, 2, 3):
        K = ChiralKoszul(m)
        print(f"== m = {m} " + "=" * 40)
        rep = K.cohomology(0, 2 * m + 1)
        total = sum(c["dim"] for c in rep["cells"])
        print(f"weight-0 cohomology: total dimension {total}")
        for cell in rep["cells"]:
            if not cell["dim"]:
                continue
            reps = ", ".join(
                K.fock.str(r) for r in cell["representatives"]
            )
            print(
                f"  charge {cell['charge']}, degree {cell['degree']}: "
                f"dim {cell['dim']}, representatives {reps}"
            )
        lines, euler_ok = euler_lines(
            K.cohomology(2, 2 * m + 2, min_charge=-2)["cells"])
        print(f"weights <= 2: Euler checks pass: {euler_ok}")
        for line in lines:
            if line["dims"]:
                print(
                    f"  weight {line['weight']}, charge "
                    f"{line['charge']}: dims by degree {line['dims']}, "
                    f"Euler characteristic {line['euler']}"
                )
        print()


if __name__ == "__main__":
    main()
