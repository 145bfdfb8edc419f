#include "imaging/threshold.h"

#include <cmath>
#include <limits>

namespace vr {

int MinFuzzinessThreshold(const GrayHistogram& hist) {
  // Huang & Wang (1995): choose t minimizing Shannon fuzzy entropy of the
  // membership function mu(g) = 1 / (1 + |g - mu_class(g)| / C).
  const double total = static_cast<double>(hist.Total());
  if (total <= 0) return 127;

  int gmin = 0;
  int gmax = 255;
  while (gmin < 255 && hist.bins[static_cast<size_t>(gmin)] == 0) ++gmin;
  while (gmax > 0 && hist.bins[static_cast<size_t>(gmax)] == 0) --gmax;
  if (gmin >= gmax) return gmin;
  const double c = gmax - gmin;

  // Prefix sums for class means.
  double w0 = 0.0;
  double s0 = 0.0;
  double w_all = 0.0;
  double s_all = 0.0;
  for (int i = gmin; i <= gmax; ++i) {
    w_all += static_cast<double>(hist.bins[static_cast<size_t>(i)]);
    s_all += i * static_cast<double>(hist.bins[static_cast<size_t>(i)]);
  }

  double best_entropy = std::numeric_limits<double>::max();
  int best_t = (gmin + gmax) / 2;
  for (int t = gmin; t < gmax; ++t) {
    // An empty bin past gmin leaves w0, s0, both class means and every
    // entropy term (only g == t changes class, and it has no pixels)
    // exactly those of the last threshold scored before it, so its
    // entropy cannot beat best_entropy: skipping it moves no result.
    if (t > gmin && hist.bins[static_cast<size_t>(t)] == 0) continue;
    w0 +=static_cast<double>(hist.bins[static_cast<size_t>(t)]);
    s0 += t * static_cast<double>(hist.bins[static_cast<size_t>(t)]);
    const double w1 = w_all - w0;
    if (w0 == 0 || w1 == 0) continue;
    const double mu0 = s0 / w0;
    const double mu1 = (s_all - s0) / w1;
    double entropy = 0.0;
    for (int g = gmin; g <= gmax; ++g) {
      const uint64_t n = hist.bins[static_cast<size_t>(g)];
      if (n == 0) continue;
      const double mu_class = g <= t ? mu0 : mu1;
      const double membership = 1.0 / (1.0 + std::fabs(g - mu_class) / c);
      // Shannon entropy term; membership is in (0.5, 1], so both logs are
      // well-defined except exactly at 1, which we guard.
      double h = 0.0;
      if (membership > 0.0 && membership < 1.0) {
        h = -membership * std::log(membership) -
            (1.0 - membership) * std::log(1.0 - membership);
      }
      entropy += h * static_cast<double>(n);
    }
    if (entropy < best_entropy) {
      best_entropy = entropy;
      best_t = t;
    }
  }
  return best_t;
}

}  // namespace vr
