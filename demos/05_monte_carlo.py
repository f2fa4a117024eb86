"""Monte Carlo validation of the closed forms.

A stars-and-bars draw picks one of the C(M+N-1, N-1) microstates uniformly,
with no rejection step. Sampling lets us validate the exact formulas at
sizes where exhaustive enumeration is hopeless.
"""
from boltzgas import (
    SamplerConfig,
    SystemParams,
    empirical_stats,
    exact_moment,
    occupation_pdf_exact,
    z_score_report,
)

params = SystemParams(n_particles=50, energy_units=100)
config = SamplerConfig(params=params, sample_count=200_000, seed=7)
print(f"sampling {config.sample_count:,} microstates of N=50, M=100 (seed {config.seed})")

stats = empirical_stats(config)
rows = z_score_report(stats, levels=range(8))
print("\nempirical vs exact means (z = gap in standard errors):")
for row in rows:
    print(
        f"  level {row.level}: empirical {row.empirical_mean:8.4f}  "
        f"exact {float(row.exact_mean):8.4f}  z = {row.z_score:+.2f}"
    )
assert all(not row.flagged for row in rows)

table = occupation_pdf_exact(params, 1)
tv = 0.5 * sum(
    abs(stats.histograms[1][k] / config.sample_count - float(table.probabilities[k]))
    for k in range(params.n_particles + 1)
)
print(f"\nlevel-1 histogram vs exact law: total variation {tv:.4f}")

print("\nempirical vs exact variance of n_1:")
exact_var = exact_moment(params, 1, 2) - exact_moment(params, 1, 1) ** 2
print(f"  empirical {stats.variances[1]:.4f}, exact {float(exact_var):.4f}")

again = empirical_stats(config)
print(f"\nsame config, second run identical: {again == stats}")
