"""The Laplace mechanism behind the private loss reports.

Shows the noise scale implied by the privacy budget, verifies the sampler's
moments against the closed-form Laplace values, and demonstrates the
epsilon-DP guarantee empirically: output histograms for two adjacent losses
(differing by the sensitivity) differ by at most a factor of e^epsilon —
and that factor is actually reached in the tails, so the empirical maximum
lands right at e^1 up to sampling error.
"""

import numpy as np

from fedsim import LdpConfig, laplace_sample, laplace_scale, perturb_loss

config = LdpConfig(epsilon=1.0, sensitivity=0.0001)
b = laplace_scale(config)
print(f"epsilon={config.epsilon}, sensitivity={config.sensitivity} -> scale b={b}")

samples = laplace_sample(b, np.random.default_rng(0), size=1_000_000)
print(f"sample mean     {samples.mean():+.2e}   (theory 0)")
print(f"sample variance {samples.var():.3e}   (theory 2b^2 = {2 * b * b:.3e})")
print(f"P(noise > 0)    {np.mean(samples > 0):.4f}     (theory 0.5)")

# Adjacent losses: the mechanism's output distributions may differ at most
# by a factor of e^epsilon. Compare histogram densities bin by bin.
x, y = 0.73, 0.73 + config.sensitivity
# perturb_loss noises a stack of clients' losses, each from its own generator.
[report] = perturb_loss(np.array([x]), config, [np.random.default_rng(42)])
print(f"one private report of loss {x}: {report:.6f}")
out_x = x + laplace_sample(b, np.random.default_rng(1), size=500_000)
out_y = y + laplace_sample(b, np.random.default_rng(2), size=500_000)
edges = np.linspace(x - 4 * b, y + 4 * b, 31)
hx, _ = np.histogram(out_x, bins=edges)
hy, _ = np.histogram(out_y, bins=edges)
mask = (hx > 5000) & (hy > 5000)  # only bins with enough mass to estimate a density
ratio = hx[mask] / hy[mask]
print(
    f"max density ratio over {mask.sum()} bins: {ratio.max():.3f} "
    f"(theoretical maximum e^1 = {np.e:.3f}, attained left of both inputs)"
)
print()
print("At b = 1e-4 the noise is invisible next to losses of order 0.1-2.0,")
print("so the defense loses nothing -- but any single client's report is")
print("still deniable within the privacy budget.")
