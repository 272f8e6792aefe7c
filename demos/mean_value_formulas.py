"""Monte Carlo means of the bounded energy terms versus the closed forms.

Samples equal-mass ensembles at a few cluster sizes on the plane and prints
the sampled mean of each bounded term next to the closed-form value
(a simple rational in d, N and min(d, N-1)).  The agreement column shows
|mean - formula| in units of the standard error.
"""

from kinpart import BOUNDED_TERMS, conjecture_means, run_single

SAMPLES = 50_000
SEED = 7


def main():
    d = 2
    for n_particles in (3, 6, 12):
        rep = run_single(d, n_particles, "equal", SAMPLES, seed=SEED)
        means = conjecture_means(d, n_particles)
        print(f"\nd={d}, N={n_particles}, equal masses, {SAMPLES} samples")
        print(f"{'term':>9} {'sampled':>10} {'formula':>10} {'diff/se':>8}")
        for term in BOUNDED_TERMS:
            tr = rep.terms[term]
            formula = means[term]
            if tr.stderr > 0:
                pull = abs(tr.mean - formula) / tr.stderr
                pull_text = f"{pull:8.2f}"
            else:
                pull_text = "   exact"
            print(f"{term:>9} {tr.mean:10.6f} {formula:10.6f} {pull_text}")
        frac = rep.terms["T_res"].fraction_negative
        print(f"residual energy negative for {frac:.1%} of systems")


if __name__ == "__main__":
    main()
