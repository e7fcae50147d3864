"""Secret-key rate curves: numeric pipeline vs closed forms.

Sweeps the attack angle for both protocols, computes the Devetak-Winter
rate from the full density-matrix pipeline (one batched call per curve)
and from the closed key-rate formulas, and tabulates the agreement. Saves
a plot to rate_curves.png when matplotlib is available.
"""

from symqkd.rates import rate_curve
from symqkd.states import Protocol

point, closed = rate_curve(Protocol.BB84, 25)
rows_bb84 = list(zip(point.D, point.R_DW, closed))

point, closed = rate_curve(Protocol.SIX_STATE, 25)
rows_six = list(zip(point.D, point.R_DW, closed))

for label, rows in (("BB84", rows_bb84), ("six-state", rows_six)):
    print(f"\n{label}: QBER, numeric rate, closed-form rate, |diff|")
    print("-" * 56)
    for d, numeric, closed in rows:
        print(f"  {d:8.5f}  {numeric:12.8f}  {closed:12.8f}  {abs(numeric - closed):.2e}")
    worst = max(abs(n - c) for _, n, c in rows)
    print(f"  max |numeric - closed| = {worst:.2e}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not installed; skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(6, 4))
    for label, rows, style in (("BB84", rows_bb84, "C0"), ("six-state", rows_six, "C1")):
        ds = [r[0] for r in rows]
        ax.plot(ds, [r[2] for r in rows], style + "-", label=f"{label} closed form")
        ax.plot(ds, [r[1] for r in rows], style + "o", mfc="none", ms=4, label=f"{label} numeric")
    ax.axhline(0.0, color="k", lw=0.6)
    ax.set_xlabel("QBER D")
    ax.set_ylabel("Devetak-Winter rate (bits)")
    ax.set_xlim(0, 0.5)
    ax.legend()
    fig.tight_layout()
    fig.savefig("rate_curves.png", dpi=150)
    print("\nwrote rate_curves.png")
