"""Walk the component census for every preset at a fixed (q, ell).

Run:  python3 demos/census_tour.py
"""

from param_atlas import ArithmeticContext, build_group, census

PRESETS = [("GL", 3), ("SL", 2), ("SL", 3), ("U", 3), ("GSp", 4), ("GSp", 6)]


def main() -> None:
    ctx = ArithmeticContext(q=3, ell=5)
    for family, n in PRESETS:
        datum = build_group(family, n)
        entries = census(datum, ctx)
        print(f"\n{datum.name}: {len(entries)} unipotent components (q=3, ell=5)")
        for e in entries:
            bits = []
            if e.unipotent.regular:
                bits.append("regular")
            if e.unipotent.distinguished:
                bits.append("distinguished")
            note = f"  [{', '.join(bits)}]" if bits else ""
            print(f"  {e.label:<4} partition {e.unipotent.partition}  "
                  f"pi0 {e.pi0.name:<5} class {e.twisted_rep}{note}")
            if e.pi0.curated_note:
                print(f"       note: {e.pi0.curated_note}")

    # The same class can split or not depending on ell: the regular class of
    # SL_2 has pi0 = mu_2, whose ell-regular points collapse when ell = 2.
    sl2 = build_group("SL", 2)
    for ell in (5, 2):
        labels = [e.label for e in census(sl2, ArithmeticContext(q=3, ell=ell))]
        print(f"\nSL2 with ell={ell}: {labels}")


if __name__ == "__main__":
    main()
