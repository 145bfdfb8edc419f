#include "similarity/emd_signature.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/hash.h"
#include "util/rng.h"

namespace vr {

namespace {

double GroundDistance(const SignaturePoint& a, const SignaturePoint& b) {
  double acc = 0.0;
  for (int d = 0; d < 3; ++d) {
    const double diff = a.position[d] - b.position[d];
    acc += diff * diff;
  }
  return std::sqrt(acc);
}

/// Normalizes weights to sum 1; InvalidArgument on zero mass.
Status NormalizeSignature(const Signature& in, Signature* out) {
  double total = 0.0;
  for (const SignaturePoint& p : in) total += std::max(0.0, p.weight);
  if (total <= 0.0 || in.empty()) {
    return Status::InvalidArgument("signature has no mass");
  }
  out->clear();
  for (const SignaturePoint& p : in) {
    if (p.weight <= 0.0) continue;
    SignaturePoint q = p;
    q.weight = p.weight / total;
    out->push_back(q);
  }
  return Status::OK();
}

}  // namespace

Result<double> EmdSignatureLowerBound(const Signature& a, const Signature& b) {
  Signature pa;
  Signature pb;
  VR_RETURN_NOT_OK(NormalizeSignature(a, &pa));
  VR_RETURN_NOT_OK(NormalizeSignature(b, &pb));
  std::array<double, 3> ca{};
  std::array<double, 3> cb{};
  for (const SignaturePoint& p : pa) {
    for (int d = 0; d < 3; ++d) ca[d] += p.weight * p.position[d];
  }
  for (const SignaturePoint& p : pb) {
    for (int d = 0; d < 3; ++d) cb[d] += p.weight * p.position[d];
  }
  double acc = 0.0;
  for (int d = 0; d < 3; ++d) {
    const double diff = ca[d] - cb[d];
    acc += diff * diff;
  }
  return std::sqrt(acc);
}

Result<double> EmdSignatureDistance(const Signature& a, const Signature& b) {
  Signature supply;
  Signature demand;
  VR_RETURN_NOT_OK(NormalizeSignature(a, &supply));
  VR_RETURN_NOT_OK(NormalizeSignature(b, &demand));
  const size_t n = supply.size();
  const size_t m = demand.size();
  if (n > 64 || m > 64) {
    return Status::InvalidArgument("signature too large for exact EMD");
  }

  // Min-cost flow by successive shortest augmenting paths with node
  // potentials (Dijkstra on the dense bipartite residual graph).
  // Nodes: 0 = source, 1..n = supply, n+1..n+m = demand, n+m+1 = sink.
  const size_t num_nodes = n + m + 2;
  const size_t source = 0;
  const size_t sink = n + m + 1;
  std::vector<double> remaining_supply(n);
  std::vector<double> remaining_demand(m);
  for (size_t i = 0; i < n; ++i) remaining_supply[i] = supply[i].weight;
  for (size_t j = 0; j < m; ++j) remaining_demand[j] = demand[j].weight;
  // flow[i][j] currently shipped from supply i to demand j.
  std::vector<std::vector<double>> flow(n, std::vector<double>(m, 0.0));
  std::vector<std::vector<double>> cost(n, std::vector<double>(m, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      cost[i][j] = GroundDistance(supply[i], demand[j]);
    }
  }
  std::vector<double> potential(num_nodes, 0.0);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kEps = 1e-12;

  double total_cost = 0.0;
  double mass_left = 1.0;
  // Augment until all mass is shipped. Paths through residual edges may
  // saturate only a residual arc rather than a node, so the bound is a
  // generous safety net, not the expected count.
  const size_t max_rounds = 16 * (n + m) + 64;
  size_t round = 0;
  for (; round < max_rounds && mass_left > kEps; ++round) {
    // Dijkstra with reduced costs.
    std::vector<double> dist(num_nodes, kInf);
    std::vector<int> prev(num_nodes, -1);
    std::vector<bool> done(num_nodes, false);
    dist[source] = 0.0;
    for (size_t it = 0; it < num_nodes; ++it) {
      size_t u = num_nodes;
      double best = kInf;
      for (size_t v = 0; v < num_nodes; ++v) {
        if (!done[v] && dist[v] < best) {
          best = dist[v];
          u = v;
        }
      }
      if (u == num_nodes) break;
      done[u] = true;
      auto relax = [&](size_t v, double edge_cost) {
        // Reduced costs are non-negative up to float error; clamp so
        // Dijkstra's invariant holds.
        const double reduced =
            std::max(0.0, edge_cost + potential[u] - potential[v]);
        if (dist[u] + reduced < dist[v]) {
          dist[v] = dist[u] + reduced;
          prev[v] = static_cast<int>(u);
        }
      };
      if (u == source) {
        for (size_t i = 0; i < n; ++i) {
          if (remaining_supply[i] > kEps) relax(1 + i, 0.0);
        }
      } else if (u >= 1 && u <= n) {
        const size_t i = u - 1;
        for (size_t j = 0; j < m; ++j) {
          relax(1 + n + j, cost[i][j]);  // forward edge (infinite capacity)
        }
      } else if (u >= 1 + n && u <= n + m) {
        const size_t j = u - 1 - n;
        if (remaining_demand[j] > kEps) relax(sink, 0.0);
        for (size_t i = 0; i < n; ++i) {
          if (flow[i][j] > kEps) relax(1 + i, -cost[i][j]);  // residual back
        }
      }
    }
    if (dist[sink] == kInf) {
      return Status::Internal("EMD flow network disconnected");
    }
    for (size_t v = 0; v < num_nodes; ++v) {
      potential[v] += std::min(dist[v], dist[sink]);
    }
    // Bottleneck along the path.
    double push = mass_left;
    for (int v = static_cast<int>(sink); prev[v] != -1; v = prev[v]) {
      const size_t u = static_cast<size_t>(prev[v]);
      if (u == source) {
        push = std::min(push, remaining_supply[static_cast<size_t>(v) - 1]);
      } else if (static_cast<size_t>(v) == sink) {
        push = std::min(push, remaining_demand[u - 1 - n]);
      } else if (u > n && static_cast<size_t>(v) <= n) {
        // residual edge demand(u) -> supply(v): limited by shipped flow
        push = std::min(push, flow[static_cast<size_t>(v) - 1][u - 1 - n]);
      }
    }
    if (push <= kEps) {
      // Numerical dust on the bottleneck: treat the residue as shipped.
      mass_left = 0.0;
      break;
    }
    // Apply.
    for (int v = static_cast<int>(sink); prev[v] != -1; v = prev[v]) {
      const size_t u = static_cast<size_t>(prev[v]);
      if (u == source) {
        remaining_supply[static_cast<size_t>(v) - 1] -= push;
      } else if (static_cast<size_t>(v) == sink) {
        remaining_demand[u - 1 - n] -= push;
      } else if (u <= n) {
        const size_t i = u - 1;
        const size_t j = static_cast<size_t>(v) - 1 - n;
        flow[i][j] += push;
        total_cost += push * cost[i][j];
      } else {
        const size_t j = u - 1 - n;
        const size_t i = static_cast<size_t>(v) - 1;
        flow[i][j] -= push;
        total_cost -= push * cost[i][j];
      }
    }
    mass_left -= push;
  }
  if (mass_left > 1e-6) {
    return Status::Internal("EMD solver failed to ship all mass");
  }
  return total_cost;
}

Result<Signature> MakeColorSignature(const Image& img, int clusters) {
  if (img.empty()) return Status::InvalidArgument("empty image");
  clusters = std::clamp(clusters, 1, 64);

  // Gather (subsampled) pixels as points in [0, 1]^3.
  std::vector<std::array<double, 3>> points;
  const int stride =
      std::max(1, static_cast<int>(img.PixelCount()) / 4096);
  int counter = 0;
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      if (counter++ % stride != 0) continue;
      const Rgb p = img.PixelRgb(x, y);
      points.push_back({p.r / 255.0, p.g / 255.0, p.b / 255.0});
    }
  }
  const int k = std::min<int>(clusters, static_cast<int>(points.size()));

  // Deterministic k-means++ seeding from a content-derived seed.
  Rng rng(Fnv1a64(img.data(), std::min<size_t>(img.SizeBytes(), 4096)));
  std::vector<std::array<double, 3>> centers;
  centers.push_back(points[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(points.size()) - 1))]);
  auto sq_dist = [](const std::array<double, 3>& a,
                    const std::array<double, 3>& b) {
    double acc = 0;
    for (int d = 0; d < 3; ++d) {
      acc += (a[d] - b[d]) * (a[d] - b[d]);
    }
    return acc;
  };
  while (static_cast<int>(centers.size()) < k) {
    // Pick the point farthest from existing centers (deterministic
    // farthest-first; robust and seed-stable).
    size_t best_idx = 0;
    double best_d = -1;
    for (size_t i = 0; i < points.size(); ++i) {
      double d = std::numeric_limits<double>::max();
      for (const auto& c : centers) d = std::min(d, sq_dist(points[i], c));
      if (d > best_d) {
        best_d = d;
        best_idx = i;
      }
    }
    centers.push_back(points[best_idx]);
  }

  // Lloyd iterations.
  std::vector<int> assignment(points.size(), 0);
  for (int iter = 0; iter < 12; ++iter) {
    bool changed = false;
    for (size_t i = 0; i < points.size(); ++i) {
      int best = 0;
      double best_d = std::numeric_limits<double>::max();
      for (int c = 0; c < static_cast<int>(centers.size()); ++c) {
        const double d = sq_dist(points[i], centers[static_cast<size_t>(c)]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      if (assignment[i] != best) {
        assignment[i] = best;
        changed = true;
      }
    }
    std::vector<std::array<double, 3>> sums(centers.size(),
                                            {0.0, 0.0, 0.0});
    std::vector<int> counts(centers.size(), 0);
    for (size_t i = 0; i < points.size(); ++i) {
      for (int d = 0; d < 3; ++d) {
        sums[static_cast<size_t>(assignment[i])][d] += points[i][d];
      }
      ++counts[static_cast<size_t>(assignment[i])];
    }
    for (size_t c = 0; c < centers.size(); ++c) {
      if (counts[c] == 0) continue;
      for (int d = 0; d < 3; ++d) centers[c][d] = sums[c][d] / counts[c];
    }
    if (!changed) break;
  }

  Signature signature;
  std::vector<int> counts(centers.size(), 0);
  for (int a : assignment) ++counts[static_cast<size_t>(a)];
  for (size_t c = 0; c < centers.size(); ++c) {
    if (counts[c] == 0) continue;
    SignaturePoint p;
    p.weight = static_cast<double>(counts[c]) /
               static_cast<double>(points.size());
    p.position = centers[c];
    signature.push_back(p);
  }
  return signature;
}

}  // namespace vr
