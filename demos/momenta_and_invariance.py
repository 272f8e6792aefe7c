"""Hyperangular momenta and the invariances that make the terms physical.

Every quantity the library computes is unchanged by orthogonal coordinate
changes of the physical space, by orthogonal rearrangements of the
kinematic space, and by padding the system with a zero column.  This script
shows those invariances numerically on one random 3-d cluster, along with
the two momentum inequalities.
"""

import numpy as np

from kinpart import compute_partition, sample_system_block, substream, svd_rates

MASS = 2.0


def describe(tag, res):
    mom = res.momenta
    print(f"{tag:>24}: T_rot={res.T_rot:.10f} T_ext={res.T_ext:.10f} "
          f"J2={mom.J2:.10f} K2={mom.K2:.10f}")


def main():
    rng = substream(2024, 0)
    z, zdot, _ = sample_system_block(3, 6, "random", rng, 1)
    z, zdot = z[0], zdot[0]

    res = compute_partition(MASS, z, zdot)
    describe("original", res)

    # any orthogonal matrices will do: the Q factors of Gaussian ones
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    kin = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    describe("rotated O(d) x O(n)",
             compute_partition(MASS, rot @ z @ kin.T, rot @ zdot @ kin.T))

    pad = np.zeros((3, 1))
    describe("zero column added",
             compute_partition(MASS, np.hstack([z, pad]), np.hstack([zdot, pad])))

    mom = res.momenta
    print("\nmomentum inequalities (grand momentum dominates):")
    print(f"  J2 + L2 = {mom.J2 + mom.L2:.6f} <= Lambda2 = {mom.Lambda2:.6f}")
    print(f"  K2 + L2 = {mom.K2 + mom.L2:.6f} <= Lambda2 = {mom.Lambda2:.6f}")
    print("\nsingular values and their rates along the motion:")
    xi, xidot = svd_rates(z, zdot)
    print("  xi    =", np.round(xi, 6))
    print("  xidot =", np.round(xidot, 6))


if __name__ == "__main__":
    main()
