"""Extract a non-convergent trajectory at the stability boundary.

A rotation has spectral radius one, and a single nonnegative quadratic
constraint on the first coordinate does not pull the constrained radius
below one.  At the boundary the dual optimum of the margin program can
be factored into modes (X, U, F) with F orthogonal; iterating F and
mapping through X produces a trajectory that satisfies the dynamics and
every constraint sum yet never converges, which certifies that the
radius bound is tight.

Run: python3 demos/boundary_witness.py
"""

import numpy as np

from iqcradius import IqcSet, SystemData, build_witness, check_witness, spectral_radius


def main() -> None:
    theta = 1.0
    A = np.array([[np.cos(theta), np.sin(theta)],
                  [-np.sin(theta), np.cos(theta)]])
    sys = SystemData(A=A)
    iqcs = IqcSet.from_matrices([[[1.0, 0.0], [0.0, 0.0]]])

    cert = spectral_radius(sys, iqcs)
    print(f"certified radius: {cert.rho:.6f} (attained: {cert.attained})")

    outcome = build_witness(sys, iqcs, rho=1.0)
    if not outcome.ok:
        print(f"no witness: stage {outcome.stage}: {outcome.reason}")
        return

    modes = outcome.modes
    report = outcome.report
    print(f"dual witness rank d = {modes.d}")
    print("mode angles (radians):",
          ", ".join(f"{g.theta:.6f}" for g in modes.groups))
    norms = np.linalg.norm(outcome.trajectory.states, axis=1)
    print(f"trajectory norms stay in [{norms.min():.12f}, {norms.max():.12f}]")
    print(f"constraint sum lower bound: {report.iqc_lower_bounds[0]:+.6f}")
    if report.hard_shift is not None:
        print(f"shift for nonnegative partial sums: N* = {report.hard_shift}")

    result = check_witness(sys, report, iqcs)
    print(f"independent re-check over 10^4 steps: "
          f"{'all checks pass' if result.ok else 'FAILED'}")
    print(f"  dynamics residual {result.dynamics_residual:.2e}, "
          f"worst constraint margin {min(result.iqc_margins):+.2e}, "
          f"norm drift {result.norm_drift:.2e}")


if __name__ == "__main__":
    main()
